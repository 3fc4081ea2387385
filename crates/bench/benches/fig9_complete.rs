//! Bench behind **Fig. 9**: complete-result ELCA evaluation — join-based
//! vs stack-based vs index-based, across the low-frequency sweep (a–d)
//! and the equal-frequency setting (e–f).

use std::hint::black_box;
use xtk_bench::harness::Harness;
use xtk_bench::{build_dblp, equal_queries, point_queries, Scale, LOW_FREQS};
use xtk_baselines::baseline::indexed::{indexed_search, IndexedOptions};
use xtk_baselines::BaselineIndex;
use xtk_core::baseline::stack::{stack_search, StackOptions};
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::Query;

fn main() {
    let ix = build_dblp(Scale::Small);
    let bx = BaselineIndex::new(&ix);
    let mut h = Harness::new("fig9");

    for k in [2usize, 3] {
        for &low in &[LOW_FREQS[0], LOW_FREQS[3]] {
            let queries: Vec<Query> = point_queries(Scale::Small, k, low, 8)
                .iter()
                .map(|w| Query::from_words(&ix, w).unwrap())
                .collect();
            let tag = format!("k{k}_low{low}");
            h.bench(format!("join_based/{tag}"), || {
                for q in &queries {
                    black_box(join_search(&ix, q, &JoinOptions::default()));
                }
            });
            h.bench(format!("stack_based/{tag}"), || {
                for q in &queries {
                    black_box(stack_search(&ix, q, &StackOptions::default()));
                }
            });
            h.bench(format!("index_based/{tag}"), || {
                for q in &queries {
                    black_box(indexed_search(&bx, q, &IndexedOptions::default()));
                }
            });
        }
    }

    // Equal frequencies (Fig. 9 e-f).
    let queries: Vec<Query> = equal_queries(3, 1_000, 8)
        .iter()
        .map(|w| Query::from_words(&ix, w).unwrap())
        .collect();
    h.bench("join_based/equal_freq_k3", || {
        for q in &queries {
            black_box(join_search(&ix, q, &JoinOptions::default()));
        }
    });
    h.bench("stack_based/equal_freq_k3", || {
        for q in &queries {
            black_box(stack_search(&ix, q, &StackOptions::default()));
        }
    });
}
