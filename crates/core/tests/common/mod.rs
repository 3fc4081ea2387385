//! Shared corpus construction for the cross-engine test binaries:
//! `engine_agreement` (serial engines against naive references) and
//! `parallel_differential` (parallel execution against serial) generate
//! their random trees, keyword placements, and queries through these
//! helpers so both exercise the same input distribution; the disk suites
//! share the in-memory store image.
//!
//! Each test binary compiles its own copy and uses a different subset;
//! `crates/baselines/tests/engine_agreement.rs` includes it by path, so
//! the baselines are checked on the same corpora.
#![allow(dead_code)]

use xtk_core::query::Query;
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_index::bytes::ColumnBytes;
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::XmlIndex;
use xtk_xml::testutil::Gen;
use xtk_xml::tree::{NodeId, XmlTree};

/// The scored file `write_index` would produce for `ix`, in memory and
/// shareable between stores: the disk tests touch no filesystem.
pub fn store_image(ix: &XmlIndex) -> ColumnBytes {
    let mut bytes = Vec::new();
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_index_to(ix, &mut bytes, opts).unwrap();
    ColumnBytes::from(std::sync::Arc::<[u8]>::from(bytes))
}

/// Random tree + random keyword placements, built in pre-order.
pub fn build_corpus(shape: &[usize], placements: &[(usize, usize)], k: usize) -> XmlIndex {
    let n = shape.len() + 1;
    let mut parents = vec![usize::MAX; n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in shape.iter().enumerate() {
        let p = c % (i + 1);
        parents[i + 1] = p;
        children[p].push(i + 1);
    }
    let mut tree = XmlTree::with_capacity(n);
    let mut map = vec![NodeId(0); n];
    map[0] = tree.add_root("n0");
    let mut stack: Vec<usize> = children[0].iter().rev().copied().collect();
    while let Some(v) = stack.pop() {
        map[v] = tree.add_child(map[parents[v]], format!("n{v}"));
        for &c in children[v].iter().rev() {
            stack.push(c);
        }
    }
    // Place keywords; ensure every keyword occurs at least once.
    for kw in 0..k {
        tree.append_text(map[kw % n], &format!("kw{kw}"));
    }
    for &(node, kw) in placements {
        tree.append_text(map[node % n], &format!("kw{}", kw % k));
    }
    XmlIndex::build(tree)
}

/// The query over the `k` planted keywords.
pub fn query(ix: &XmlIndex, k: usize) -> Query {
    let words: Vec<String> = (0..k).map(|i| format!("kw{i}")).collect();
    Query::from_words(ix, &words).expect("all keywords planted")
}

/// Result nodes in document order (for set comparison).
pub fn nodes(mut rs: Vec<ScoredResult>) -> Vec<NodeId> {
    rs.sort_by_key(|r| r.node);
    rs.iter().map(|r| r.node).collect()
}

/// `got` must be a valid top-K of the ranked `complete` set: same scores
/// position by position, each returned node a real result with its exact
/// score.
pub fn assert_topk_valid(got: &[ScoredResult], complete: &mut [ScoredResult], k: usize) {
    sort_ranked(complete);
    assert_eq!(got.len(), k.min(complete.len()), "result count");
    for (i, r) in got.iter().enumerate() {
        let found = complete
            .iter()
            .find(|c| c.node == r.node)
            .unwrap_or_else(|| panic!("top-K returned non-result {:?}", r.node));
        assert!(
            (found.score - r.score).abs() < 1e-4,
            "score mismatch for {:?}: {} vs {}",
            r.node,
            r.score,
            found.score
        );
        assert!(
            (complete[i].score - r.score).abs() < 1e-4,
            "rank {i}: {} vs {}",
            r.score,
            complete[i].score
        );
    }
}

/// The standard random corpus: mostly-flat uniform shapes, 0–80 keyword
/// placements, 2–4 query keywords.
pub fn corpus(g: &mut Gen) -> (Vec<usize>, Vec<(usize, usize)>, usize) {
    let shape_cap = 60.min(g.size() + 2).max(2);
    let shape: Vec<usize> = (0..g.gen_range(1..shape_cap))
        .map(|_| g.gen_range(0..10_000usize))
        .collect();
    let place_cap = 80.min(2 * g.size() + 1).max(1);
    let placements: Vec<(usize, usize)> = (0..g.gen_range(0..place_cap))
        .map(|_| (g.gen_range(0..10_000usize), g.gen_range(0..10_000usize)))
        .collect();
    let k = g.gen_range(2..5usize);
    (shape, placements, k)
}

/// Chain-heavy shapes: parent choices biased to the most recent node, so
/// trees get deep (many JDewey columns) — exercises the per-level loops
/// far harder than the mostly-flat uniform shapes.
pub fn deep_corpus(g: &mut Gen) -> (Vec<usize>, Vec<(usize, usize)>, usize) {
    let n = g.gen_range(10..80.min(g.size() + 11));
    let shape: Vec<usize> = (0..n)
        .map(|i| {
            // chance-of-chain: parent = i (the previous node) mostly.
            if g.gen_range(0..3u32) > 0 {
                i
            } else {
                0
            }
        })
        .collect();
    let place_cap = 60.min(2 * g.size() + 2).max(2);
    let placements: Vec<(usize, usize)> = (0..g.gen_range(1..place_cap))
        .map(|_| (g.gen_range(0..10_000usize), g.gen_range(0..10_000usize)))
        .collect();
    let k = g.gen_range(2..4usize);
    (shape, placements, k)
}
