//! The shard-invariance differential suite: 1 shard ≡ {2, 4, 8} shards
//! bit-identically — results across batch `Parallelism` × block-cache
//! configs — plus `run_batch` ≡ sequential per-query runs ≡ single-shard
//! runs, the TA stop on a shard the first one dominates, and the
//! topology-salt regression for the stale-cache-hit case.

use std::sync::Arc;
use xtk_core::batch::{run_batch, BatchItem, BatchOptions, ResultCache};
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, write_sharded_with, ShardedEngine};
use xtk_core::{
    Engine, Executor, Parallelism, Query, QueryAlgorithm, QueryRequest, Semantics,
};
use xtk_index::cache::ShardedLruCache;
use xtk_index::disk::WriteIndexOptions;
use xtk_index::XmlIndex;
use xtk_obs::TraceLevel;
use xtk_xml::parse;
use xtk_xml::testutil::TempPath;

/// A deterministic 48-document corpus with skewed term frequencies, so
/// the TA merge actually prunes on some queries and not on others.
fn corpus_xml() -> String {
    let mut s = String::from("<bib>");
    for c in 0..8 {
        s.push_str(&format!("<conf><name>proc venue{c}</name>", ));
        for p in 0..6 {
            let i = c * 6 + p;
            let mut title = String::from("xml");
            if i % 2 == 0 {
                title.push_str(" keyword");
            }
            if i % 3 == 0 {
                title.push_str(" search");
            }
            if i % 7 == 0 {
                title.push_str(" ranking");
            }
            if i == 11 || i == 37 {
                title.push_str(" threshold");
            }
            title.push_str(&format!(" topic{}", i % 5));
            s.push_str(&format!(
                "<paper><title>{title}</title><author>writer{}</author></paper>",
                i % 9
            ));
        }
        s.push_str("</conf>");
    }
    s.push_str("</bib>");
    s
}

fn corpus() -> XmlIndex {
    XmlIndex::build(parse(&corpus_xml()).unwrap())
}

fn tmp(tag: &str) -> TempPath {
    TempPath::new(&format!("xtk_shard_diff_{tag}"))
}

/// The query/request mix the grid runs: top-K and complete, ELCA and
/// SLCA, small and large k.
fn workload(ix: &XmlIndex) -> Vec<(Query, QueryRequest)> {
    let q = |words: &[&str]| Query::from_words(ix, words).unwrap();
    vec![
        (q(&["xml", "keyword"]), QueryRequest::top_k(3, Semantics::Elca)),
        (q(&["keyword", "search"]), QueryRequest::top_k(1, Semantics::Slca)),
        (q(&["xml", "ranking"]), QueryRequest::top_k(10, Semantics::Elca)),
        (q(&["threshold"]), QueryRequest::top_k(2, Semantics::Elca)),
        (q(&["xml", "search"]), QueryRequest::complete(Semantics::Slca)),
        (
            q(&["keyword", "topic0"]),
            QueryRequest::top_k(4, Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased),
        ),
    ]
}

fn assert_bit_identical(label: &str, got: &[ScoredResult], want: &[ScoredResult]) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.node, b.node, "{label}: node at rank {i}");
        assert_eq!(a.level, b.level, "{label}: level at rank {i}");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{label}: score bits at rank {i}");
    }
}

/// Unsharded reference: complete join, level-1 filtered, ranked, cut.
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
fn results_bit_identical_across_topology_parallelism_and_cache() {
    let ix = corpus();
    let engine = Engine::from_index(corpus());
    let work = workload(&ix);
    let references: Vec<Vec<ScoredResult>> =
        work.iter().map(|(q, r)| reference(&engine, q, r)).collect();

    let items: Vec<BatchItem> =
        work.iter().map(|(q, req)| BatchItem::new(q.clone(), *req)).collect();

    for shards in [1usize, 2, 4, 8] {
        let dir = tmp(&format!("grid{shards}"));
        write_sharded(&ix, &dir, shards).unwrap();
        for bounded in [false, true] {
            let cache: Arc<ShardedLruCache> = if bounded {
                Arc::new(ShardedLruCache::with_block_capacity(8))
            } else {
                Arc::new(ShardedLruCache::unbounded())
            };
            let sharded = ShardedEngine::open_with_cache(&ix, &dir, cache).unwrap();
            for ((q, req), want) in work.iter().zip(&references) {
                let got = sharded.execute(q, req).unwrap();
                let label = format!("{shards} shards, bounded={bounded}");
                assert_bit_identical(&label, &got.results, want);
            }
            // The same requests as one batch, its distinct requests on
            // three workers sharing the engine and its block cache.
            let opts = BatchOptions { parallelism: Parallelism::Fixed(3), ..Default::default() };
            let report = run_batch(&sharded, &ResultCache::default(), &opts, &items).unwrap();
            for (got, want) in report.responses.iter().zip(&references) {
                let label = format!("{shards} shards, bounded={bounded}, batch on fixed(3)");
                assert_bit_identical(&label, &got.results, want);
            }
        }
    }
}

#[test]
fn stores_written_without_scores_serve_ranked_requests() {
    // Nothing reads a shard file's score section: shard scores are
    // stamped into each shard's in-memory index from the corpus-global
    // one.  So stores written without scores open and answer every
    // request, top-K included, bit for bit as the unsharded reference.
    let ix = corpus();
    let engine = Engine::from_index(corpus());
    let dir = tmp("noscores");
    let opts = WriteIndexOptions { include_scores: false, ..Default::default() };
    write_sharded_with(&ix, &dir, 4, opts).unwrap();
    let sharded = ShardedEngine::open(&ix, &dir).unwrap();
    for (q, req) in &workload(&ix) {
        let got = sharded.execute(q, req).unwrap();
        assert_bit_identical("4 shards, no scores", &got.results, &reference(&engine, q, req));
    }
}

/// Four documents, one per shard: the first holds the only nodes that
/// repeat both keywords, the others one occurrence of each.  A shard's
/// bound is the sum of its keywords' best occurrence scores, so the
/// first shard's two best answers lie above every other shard's bound.
fn dominated_corpus_xml() -> String {
    let strong = "alpha ".repeat(8) + &"beta ".repeat(8);
    let mut s = format!("<bib><doc><p>{strong}</p><p>{strong}</p><p>{strong}gamma</p></doc>");
    for d in 1..4 {
        s.push_str(&format!("<doc><p>alpha beta delta{d}</p><p>gamma delta{d}</p></doc>"));
    }
    s.push_str("</bib>");
    s
}

#[test]
fn a_dominated_shard_is_pruned_before_it_runs() {
    let engine = Engine::from_xml(&dominated_corpus_xml()).unwrap();
    let ix = engine.index();
    let dir = tmp("dominated");
    assert_eq!(write_sharded(ix, &dir, 4).unwrap(), 4);
    let sharded = ShardedEngine::open(ix, &dir).unwrap();
    let q = Query::from_words(ix, &["alpha", "beta"]).unwrap();
    for sem in [Semantics::Elca, Semantics::Slca] {
        let req = QueryRequest::top_k(2, sem).with_trace(TraceLevel::Events);
        let got = sharded.execute(&q, &req).unwrap();
        assert_bit_identical(&format!("{sem:?}"), &got.results, &reference(&engine, &q, &req));
        let (executed, pruned) = (got.metrics.get("shard.executed"), got.metrics.get("shard.pruned"));
        assert_eq!(got.metrics.get("shard.eligible"), 4, "{sem:?}: every shard holds both keywords");
        assert!(pruned >= 1 && executed < 4, "{sem:?}: executed {executed}, pruned {pruned}");
        assert_eq!(executed + pruned, 4, "{sem:?}");
        // One scatter and one gather per executed shard, one stop.
        let trace = got.trace.as_ref().unwrap();
        assert_eq!(trace.of_kind("shard_scatter").len() as u64, executed, "{sem:?}");
        assert_eq!(trace.of_kind("shard_gather").len() as u64, executed, "{sem:?}");
        assert_eq!(trace.of_kind("shard_stop").len(), 1, "{sem:?}");
        // Without the stop every shard runs, and the answer is the same.
        let full = ShardedEngine::open(ix, &dir).unwrap().with_pruning(false);
        let all = full.execute(&q, &req).unwrap();
        assert_eq!((all.metrics.get("shard.executed"), all.metrics.get("shard.pruned")), (4, 0));
        assert_bit_identical(&format!("{sem:?} unpruned"), &all.results, &got.results);
    }
}

#[test]
fn run_batch_equals_sequential_equals_single_shard() {
    let ix = corpus();
    let work = workload(&ix);
    let (dir4, dir1) = (tmp("batch4"), tmp("batch1"));
    write_sharded(&ix, &dir4, 4).unwrap();
    write_sharded(&ix, &dir1, 1).unwrap();
    let batch_eng = ShardedEngine::open(&ix, &dir4).unwrap();
    let seq_eng = ShardedEngine::open(&ix, &dir4).unwrap();
    let single = ShardedEngine::open(&ix, &dir1).unwrap();
    // Warm every engine's block cache so per-query metrics are identical
    // between the batch and sequential paths (unbounded cache: decode
    // counts settle to their steady state after one pass).
    for (q, req) in &work {
        batch_eng.execute(q, req).unwrap();
        seq_eng.execute(q, req).unwrap();
        single.execute(q, req).unwrap();
    }

    // Duplicate-heavy batch: dedup and (second run) result-cache paths.
    let mut items: Vec<BatchItem> = Vec::new();
    for (q, req) in &work {
        items.push(BatchItem::new(q.clone(), *req));
    }
    for (q, req) in work.iter().take(3) {
        items.push(BatchItem::new(q.clone(), *req));
    }

    let cache = ResultCache::default();
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
        let opts = BatchOptions { parallelism, ..Default::default() };
        let report = run_batch(&batch_eng, &cache, &opts, &items).unwrap();
        assert_eq!(report.responses.len(), items.len());
        for (item, resp) in items.iter().zip(&report.responses) {
            let seq = seq_eng.execute(&item.query, &item.request).unwrap();
            assert_bit_identical("batch vs sequential", &resp.results, &seq.results);
            assert_eq!(resp.metrics, seq.metrics, "batch vs sequential metrics");
            let alone = single.execute(&item.query, &item.request).unwrap();
            assert_bit_identical("batch vs single shard", &resp.results, &alone.results);
        }
        cache.clear();
    }

    // Warm result cache: the repeat batch is served entirely from it,
    // byte-identically.
    let opts = BatchOptions::default();
    let cold = run_batch(&batch_eng, &cache, &opts, &items).unwrap();
    let warm = run_batch(&batch_eng, &cache, &opts, &items).unwrap();
    assert_eq!(warm.metrics.get("batch.result_hits"), warm.metrics.get("batch.queries"));
    assert_eq!(warm.metrics.get("batch.executed"), 0);
    for (a, b) in cold.responses.iter().zip(&warm.responses) {
        assert_bit_identical("cold vs warm batch", &a.results, &b.results);
        assert_eq!(a.metrics, b.metrics, "cold vs warm batch metrics");
    }
}

#[test]
fn resharding_invalidates_cached_answers() {
    let ix = corpus();
    let work = workload(&ix);
    let (da, db) = (tmp("salt2"), tmp("salt4"));
    write_sharded(&ix, &da, 2).unwrap();
    write_sharded(&ix, &db, 4).unwrap();
    let two = ShardedEngine::open(&ix, &da).unwrap();
    let four = ShardedEngine::open(&ix, &db).unwrap();
    assert_ne!(two.topology_salt(), four.topology_salt());

    let items: Vec<BatchItem> =
        work.iter().map(|(q, req)| BatchItem::new(q.clone(), *req)).collect();
    let cache = ResultCache::default();
    let opts = BatchOptions::default();

    let first = run_batch(&two, &cache, &opts, &items).unwrap();
    assert_eq!(first.metrics.get("batch.result_hits"), 0);
    assert_eq!(first.metrics.get("batch.executed"), first.metrics.get("batch.distinct"));

    // Re-sharded topology, same shared cache: without the topology salt
    // these lookups would serve the 2-shard responses (whose shard.*
    // metric totals describe the wrong topology) as stale hits.
    let second = run_batch(&four, &cache, &opts, &items).unwrap();
    assert_eq!(
        second.metrics.get("batch.result_hits"),
        0,
        "a re-sharded corpus must not hit cache entries from the old topology"
    );
    assert_eq!(second.metrics.get("batch.executed"), second.metrics.get("batch.distinct"));
    for resp in &second.responses {
        assert_eq!(resp.metrics.get("shard.shards"), 4, "responses describe the live topology");
    }
    // The answers themselves are topology-invariant.
    for (a, b) in first.responses.iter().zip(&second.responses) {
        assert_bit_identical("2 shards vs 4 shards", &a.results, &b.results);
    }
    // Same topology again: now it hits.
    let third = run_batch(&four, &cache, &opts, &items).unwrap();
    assert_eq!(third.metrics.get("batch.result_hits"), third.metrics.get("batch.queries"));
}
