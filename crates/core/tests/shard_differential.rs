//! The shard-invariance differential suite: 1 shard ≡ {2, 4, 8} shards
//! bit-identically — results across Parallelism × block-cache configs,
//! metric totals and merged trace order across Parallelism — plus
//! `run_batch` ≡ sequential per-query runs ≡ single-shard runs, and the
//! topology-salt regression for the stale-cache-hit case.

use std::sync::Arc;
use xtk_core::batch::{run_batch, BatchItem, BatchOptions, ResultCache};
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, write_sharded_with, ShardedEngine};
use xtk_core::{
    Engine, Executor, Parallelism, Query, QueryAlgorithm, QueryRequest, Semantics,
};
use xtk_index::cache::ShardedLruCache;
use xtk_index::disk::{FormatVersion, WriteIndexOptions};
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

    for shards in [1usize, 2, 4, 8] {
        let dir = tmp(&format!("grid{shards}"));
        write_sharded(&ix, &dir, shards).unwrap();
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
            for bounded in [false, true] {
                let cache: Arc<ShardedLruCache> = if bounded {
                    Arc::new(ShardedLruCache::with_block_capacity(8))
                } else {
                    Arc::new(ShardedLruCache::unbounded())
                };
                let sharded = ShardedEngine::open_with_cache(&ix, &dir, cache)
                    .unwrap()
                    .with_parallelism(parallelism);
                for ((q, req), want) in work.iter().zip(&references) {
                    let got = sharded.execute(q, req).unwrap();
                    assert_bit_identical(
                        &format!("{shards} shards, {parallelism:?}, bounded={bounded}"),
                        &got.results,
                        want,
                    );
                }
            }
        }
    }
}

#[test]
fn packed_shard_stores_bit_identical_to_varint() {
    // Same topology written in the varint (v2) and bit-packed (v3) block
    // layouts: every workload answer must agree bit for bit, across
    // serial and parallel scatter, on a 1-shard and a 4-shard split.
    let ix = corpus();
    let work = workload(&ix);
    for shards in [1usize, 4] {
        let (d2, d3) = (
            tmp(&format!("fmt_v2_{shards}")),
            tmp(&format!("fmt_v3_{shards}")),
        );
        write_sharded_with(
            &ix,
            &d2,
            shards,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V2 },
        )
        .unwrap();
        write_sharded_with(
            &ix,
            &d3,
            shards,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V3 },
        )
        .unwrap();
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
            let v2 = ShardedEngine::open(&ix, &d2).unwrap().with_parallelism(parallelism);
            let v3 = ShardedEngine::open(&ix, &d3).unwrap().with_parallelism(parallelism);
            for (q, req) in &work {
                let a = v2.execute(q, req).unwrap();
                let b = v3.execute(q, req).unwrap();
                assert_bit_identical(
                    &format!("{shards} shards, {parallelism:?}, v2 vs v3"),
                    &b.results,
                    &a.results,
                );
            }
        }
    }
}

#[test]
fn metric_totals_and_merged_traces_are_parallelism_invariant() {
    let ix = corpus();
    let work = workload(&ix);
    let dir = tmp("trace");
    write_sharded(&ix, &dir, 4).unwrap();
    // Fresh unbounded cache per engine, same execution sequence: decode
    // counters and everything downstream must be bit-identical.
    let run = |parallelism: Parallelism| {
        let sharded = ShardedEngine::open(&ix, &dir).unwrap().with_parallelism(parallelism);
        work.iter()
            .map(|(q, req)| {
                sharded.execute(q, &req.with_trace(TraceLevel::Events)).unwrap()
            })
            .collect::<Vec<_>>()
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Fixed(3));
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.metrics, b.metrics, "metric totals for query {i}");
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(
            ta.to_json_lines(),
            tb.to_json_lines(),
            "merged trace order for query {i}"
        );
        assert!(!ta.of_kind("shard_scatter").is_empty());
        assert_eq!(ta.of_kind("shard_stop").len(), 1);
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
