//! Bench behind **Fig. 10**: top-10 processing — the join-based top-K
//! algorithm vs the complete join (+sort) vs RDIL, on random
//! low-correlation queries (a) and planted correlated queries (b/c).

use std::hint::black_box;
use xtk_bench::harness::Harness;
use xtk_bench::{build_dblp, correlated_groups, point_queries, Scale, LOW_FREQS};
use xtk_baselines::baseline::rdil::{rdil_search, RdilOptions};
use xtk_baselines::BaselineIndex;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{Query, Semantics};
use xtk_core::result::sort_ranked;
use xtk_core::topk::{topk_search, TopKOptions};

const K: usize = 10;

fn main() {
    let ix = build_dblp(Scale::Small);
    let bx = BaselineIndex::new(&ix);
    let mut h = Harness::new("fig10");

    let mut workloads: Vec<(String, Vec<Query>)> = Vec::new();
    for &low in &[LOW_FREQS[0], LOW_FREQS[3]] {
        let qs: Vec<Query> = point_queries(Scale::Small, 2, low, 6)
            .iter()
            .map(|w| Query::from_words(&ix, w).unwrap())
            .collect();
        workloads.push((format!("random_low{low}"), qs));
    }
    let correlated: Vec<Query> = correlated_groups()
        .iter()
        .map(|(terms, _, _)| Query::from_words(&ix, terms).unwrap())
        .collect();
    workloads.push(("correlated".to_string(), correlated));

    for (tag, qs) in &workloads {
        h.bench(format!("topk_join/{tag}"), || {
            for q in qs {
                black_box(topk_search(
                    &ix,
                    q,
                    &TopKOptions { k: K, semantics: Semantics::Elca, ..Default::default() },
                ));
            }
        });
        h.bench(format!("complete_join/{tag}"), || {
            for q in qs {
                let (mut rs, _) =
                    join_search(&ix, q, &JoinOptions { with_scores: true, ..Default::default() });
                sort_ranked(&mut rs);
                rs.truncate(K);
                black_box(rs);
            }
        });
        h.bench(format!("rdil/{tag}"), || {
            for q in qs {
                black_box(rdil_search(&bx, q, &RdilOptions { k: K, semantics: Semantics::Elca }));
            }
        });
    }
}
