//! Property test for the sharded engine: on random corpora × shard
//! counts × semantics, a complete request agrees bit for bit with the
//! unsharded engine's complete set minus its level-1 results.

mod common;

use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{
    Engine, Executor, Query, QueryAlgorithm, QueryRequest, Semantics,
};
use xtk_xml::testutil::{prop_check, TempPath};

/// A fresh scratch directory per case (cases run in one process).
fn scratch(tag: &str) -> TempPath {
    TempPath::new(&format!("xtk_shard_prop_{tag}"))
}

fn assert_bit_identical(label: &str, got: &[ScoredResult], want: &[ScoredResult]) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.node, b.node, "{label}: node at rank {i}");
        assert_eq!(a.level, b.level, "{label}: level at rank {i}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{label}: score bits at rank {i}"
        );
    }
}

/// The unsharded reference: complete join, level-1 results (which the
/// sharded engine leaves out) filtered out, ranked, truncated.
fn reference(engine: &Engine, q: &Query, req: &QueryRequest) -> Vec<ScoredResult> {
    let complete = QueryRequest::complete(req.semantics)
        .with_variant(req.variant)
        .with_algorithm(QueryAlgorithm::JoinBased);
    let mut rs: Vec<ScoredResult> = engine
        .run(q, &complete)
        .results
        .into_iter()
        .filter(|r| r.level > 1)
        .collect();
    sort_ranked(&mut rs);
    if let Some(k) = req.k {
        rs.truncate(k);
    }
    rs
}

#[test]
fn complete_requests_never_prune_and_match_unsharded() {
    prop_check(0xA5A5_0002, 120, |g| {
        let (shape, placements, kws) = common::corpus(g);
        let ix = common::build_corpus(&shape, &placements, kws);
        let q = common::query(&ix, kws);
        let semantics = if g.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
        let shards = g.gen_range(1..5usize);
        let req = QueryRequest::complete(semantics).with_algorithm(QueryAlgorithm::JoinBased);

        let dir = scratch("complete");
        write_sharded(&ix, &dir, shards).expect("write sharded corpus");
        let resp = ShardedEngine::open(&ix, &dir)
            .expect("open sharded corpus")
            .execute(&q, &req)
            .expect("complete sharded request");

        let engine = Engine::from_index(common::build_corpus(&shape, &placements, kws));
        let want = reference(&engine, &q, &req);
        assert_bit_identical("complete sharded vs unsharded", &resp.results, &want);
    });
}
