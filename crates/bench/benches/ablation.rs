//! Bench for the design-choice ablations DESIGN.md calls out: the join
//! step's lookup (walk vs probe vs window-then-gallop, the replacement
//! for §III-C's join-plan selection) and the compression codecs (§III-D).

use std::hint::black_box;
use xtk_bench::harness::Harness;
use xtk_bench::{
    build_dblp, join_step_inputs, lookup_hits, point_queries, probe_lookup, walk_lookup,
    window_gallop_lookup, Scale, LOW_FREQS,
};
use xtk_core::query::Query;
use xtk_index::codec::{choose_scheme, decode_column, encode_column, Scheme};

fn main() {
    let ix = build_dblp(Scale::Small);
    let mut h = Harness::new("ablation");

    // The join step's lookup, over the steps of the Fig. 9 point workload.
    for &low in &LOW_FREQS {
        let queries: Vec<Query> = point_queries(Scale::Small, 3, low, 8)
            .iter()
            .map(|w| Query::from_words(&ix, w).unwrap())
            .collect();
        let steps = join_step_inputs(&ix, &queries);
        h.bench(format!("lookup_low{low}/walk"), || black_box(lookup_hits(&steps, walk_lookup)));
        h.bench(format!("lookup_low{low}/probe"), || black_box(lookup_hits(&steps, probe_lookup)));
        h.bench(format!("lookup_low{low}/window_gallop"), || {
            black_box(lookup_hits(&steps, window_gallop_lookup))
        });
    }

    // Compression codecs on the high-frequency term's columns.
    let hf = ix.term_by_str(&xtk_bench::high_term(0)).unwrap();
    for (li, col) in hf.columns.iter().enumerate() {
        if col.runs.is_empty() {
            continue;
        }
        let present: Vec<u32> = col.runs.iter().flat_map(|r| r.rows()).collect();
        for scheme in [Scheme::Delta, Scheme::Rle] {
            h.bench(format!("codec_encode_l{}/{scheme:?}", li + 1), || {
                black_box(encode_column(col, scheme))
            });
            let cc = encode_column(col, scheme);
            h.bench(format!("codec_decode_l{}/{scheme:?}", li + 1), || {
                black_box(decode_column(&cc, &present).unwrap())
            });
        }
        // And the adaptive choice.
        h.bench(format!("codec_adaptive_l{}", li + 1), || {
            let s = choose_scheme(col);
            black_box(encode_column(col, s))
        });
    }
}
