//! The sharded engine's differential suite: at 1, 2, 4 and 8 shards it
//! answers as a `DiskEngine` over the same store and as the in-memory
//! engine, both without their level-1 results, bit for bit — across batch
//! `Parallelism` × block-cache configs — plus `run_batch` ≡ sequential
//! per-query runs ≡ single-shard runs.

use std::sync::Arc;
use xtk_core::batch::{run_batch, BatchItem, BatchOptions, ResultCache};
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, write_sharded_with, ShardedEngine, STORE_FILE};
use xtk_core::{
    DiskEngine, Engine, Executor, Parallelism, Query, QueryAlgorithm, QueryRequest, Semantics,
};
use xtk_index::cache::ShardedLruCache;
use xtk_index::disk::WriteIndexOptions;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::TempPath;

/// A deterministic 48-document corpus with skewed term frequencies.
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

/// `ShardedEngine` at every shard count answers as a `DiskEngine` over
/// the same `index.bin` with the corpus root's results dropped, score
/// bits included: complete and top-K (k = 1, 5, 100 000) under ELCA and
/// SLCA, on the mixed corpus, on one without documents (the root holds
/// every keyword, so nothing is left) and on a one-document corpus.
#[test]
fn sharded_equals_the_disk_engine_below_the_root() {
    let corpora = [
        ("mixed", corpus_xml()),
        ("no documents", "<bib>xml keyword search threshold</bib>".to_string()),
        (
            "one document",
            "<bib><paper><title>xml keyword</title><sec><p>xml search</p>\
             <p>keyword search threshold</p></sec></paper></bib>"
                .to_string(),
        ),
    ];
    let phrases: [&[&str]; 5] = [
        &["xml", "keyword"],
        &["keyword", "search"],
        &["xml", "ranking"],
        &["threshold"],
        &["xml", "search", "keyword"],
    ];
    for (name, xml) in &corpora {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let mut requests = Vec::new();
        for sem in [Semantics::Elca, Semantics::Slca] {
            requests.push(QueryRequest::complete(sem));
            for k in [1, 5, 100_000] {
                requests.push(QueryRequest::top_k(k, sem));
            }
        }
        let queries: Vec<Query> = phrases
            .iter()
            .filter(|words| words.iter().all(|w| ix.term_id(w).is_some()))
            .map(|words| Query::from_words(&ix, words).unwrap())
            .collect();
        assert!(!queries.is_empty(), "{name}: no query applies");
        for shards in [1usize, 2, 4, 8] {
            let dir = tmp(&format!("vs_disk_{shards}"));
            write_sharded(&ix, &dir, shards).unwrap();
            let sharded = ShardedEngine::open(&ix, &dir).unwrap();
            let store = DiskColumnStore::open(&dir.join(STORE_FILE)).unwrap();
            let disk = DiskEngine::new(&ix, &store);
            for q in &queries {
                for req in &requests {
                    let complete = QueryRequest::complete(req.semantics);
                    let mut want = disk.execute(q, &complete).unwrap().results;
                    want.retain(|r| r.level > 1);
                    sort_ranked(&mut want);
                    want.truncate(req.k.unwrap_or(usize::MAX));
                    let got = sharded.execute(q, req).unwrap();
                    let label = format!("{name}, {shards} shards, {q:?}, {req:?}");
                    assert_bit_identical(&label, &got.results, &want);
                }
            }
        }
    }
}

#[test]
fn stores_written_without_scores_serve_ranked_requests() {
    // Nothing reads the store's score section: the engine ranks by the
    // corpus index's scores.  So a store written without scores opens
    // and answers every request, top-K included, bit for bit as the
    // unsharded reference.
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
