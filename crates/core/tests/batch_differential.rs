//! Differential tests for batched serving: [`Engine::run_batch`] must be
//! **byte-identical** to per-query [`Engine::run`] — same nodes, order,
//! score bits, metrics and traces — for every semantics × algorithm ×
//! parallelism × cache-capacity combination, including exact-duplicate
//! and near-duplicate (canonically equal) requests.  Canonicalization
//! itself is validated over the full request grid: a request and its
//! canonical form must be answered identically by `Engine::run`.

use std::sync::Arc;
use xtk_core::batch::canonicalize;
use xtk_core::query::ElcaVariant;
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm};
use xtk_core::topk::ThresholdKind;
use xtk_core::{
    BatchExecutor, BatchItem, BatchOptions, Engine, Parallelism, QueryRequest, ScoredResult,
    Semantics, TraceLevel,
};
use xtk_index::cache::{BlockCache, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS};
use xtk_index::bytes::ColumnBytes;
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

fn corpus() -> String {
    let mut xml = String::from("<dblp>");
    for i in 0..120 {
        xml.push_str(&format!(
            "<conf><year>20{:02}</year><paper><title>xml keyword topic{} search</title>\
             <author>author{}</author></paper><paper><title>top k join rare{}</title>\
             </paper></conf>",
            i % 30,
            i % 7,
            i % 13,
            i % 41
        ));
    }
    xml.push_str("</dblp>");
    xml
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// The full request grid (every knob), for canonicalization validation.
fn request_grid() -> Vec<QueryRequest> {
    let mut grid = Vec::new();
    for sem in [Semantics::Elca, Semantics::Slca] {
        for k in [None, Some(3)] {
            for alg in [
                QueryAlgorithm::Auto,
                QueryAlgorithm::JoinBased,
                QueryAlgorithm::StackBased,
                QueryAlgorithm::TopKJoin,
            ] {
                for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
                    for threshold in [ThresholdKind::Tight, ThresholdKind::Classic] {
                        for unranked in [false, true] {
                            let mut r = match k {
                                None => QueryRequest::complete(sem),
                                Some(k) => QueryRequest::top_k(k, sem),
                            }
                            .with_algorithm(alg)
                            .with_variant(variant)
                            .with_threshold(threshold);
                            if unranked {
                                r = r.unranked();
                            }
                            grid.push(r);
                        }
                    }
                }
            }
        }
    }
    grid
}

/// Canonicalization must be invisible to `Engine::run`: a request and its
/// canonical form return byte-identical responses (results *and*
/// metrics), for every cell of the full knob grid.  This is the property
/// that makes serving near-duplicates from one execution sound.
#[test]
fn canonical_request_is_run_equivalent() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = e.query("xml search").unwrap();
    for req in request_grid() {
        let canon = canonicalize(&req);
        // Canonicalization is idempotent.
        assert_eq!(canonicalize(&canon), canon, "{req:?}");
        let raw = e.run(&q, &req);
        let via = e.run(&q, &canon);
        assert_eq!(bits(&raw.results), bits(&via.results), "{req:?} vs {canon:?}");
        assert_eq!(raw.metrics, via.metrics, "{req:?} vs {canon:?}");
        assert_eq!(raw.engine, via.engine, "{req:?}");
    }
}

/// `run_batch` output must equal per-query `Engine::run` — responses,
/// metrics fingerprints and traces — with duplicates and near-duplicates
/// in the batch, across batch parallelism settings.
#[test]
fn batch_equals_sequential_runs() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q1 = e.query("xml search").unwrap();
    let q2 = e.query("keyword topic1").unwrap();
    let q3 = e.query("top k join").unwrap();
    let mut items = Vec::new();
    for sem in [Semantics::Elca, Semantics::Slca] {
        for q in [&q1, &q2, &q3] {
            items.push(BatchItem::new(q.clone(), QueryRequest::complete(sem)));
            items.push(BatchItem::new(
                q.clone(),
                QueryRequest::top_k(4, sem).with_trace(TraceLevel::Events),
            ));
            // Near-duplicate of the complete request (canonically equal).
            items.push(BatchItem::new(
                q.clone(),
                QueryRequest::complete(sem)
                    .with_algorithm(QueryAlgorithm::TopKJoin)
                    .with_threshold(ThresholdKind::Classic),
            ));
            // Exact duplicate.
            items.push(BatchItem::new(q.clone(), QueryRequest::complete(sem)));
        }
    }

    // Reference: one `run` per item on an engine that never batches.
    let reference: Vec<_> = items.iter().map(|it| e.run(&it.query, &it.request)).collect();

    for par in [Parallelism::Serial, Parallelism::Fixed(3)] {
        // Fresh engine per setting: the result cache starts cold, so each
        // run exercises execute, dedup *and* cache paths identically.
        let e = Engine::from_xml(&corpus()).unwrap();
        let opts = BatchOptions { parallelism: par, trace: TraceLevel::Events, ..Default::default() };
        let cold = e.run_batch_report(&items, &opts);
        assert_eq!(cold.responses.len(), reference.len());
        for (i, (got, want)) in cold.responses.iter().zip(&reference).enumerate() {
            assert_eq!(bits(&got.results), bits(&want.results), "item {i} under {par}");
            assert_eq!(got.metrics, want.metrics, "item {i} metrics under {par}");
            assert_eq!(got.trace, want.trace, "item {i} trace under {par}");
            assert_eq!(got.engine, want.engine, "item {i} engine under {par}");
        }
        // Warm pass: served from the result cache, still byte-identical.
        let warm = e.run_batch_report(&items, &opts);
        assert_eq!(
            warm.metrics.get("batch.result_hits"),
            warm.metrics.get("batch.queries"),
            "warm pass should be all result-cache hits under {par}"
        );
        for (i, (got, want)) in warm.responses.iter().zip(&reference).enumerate() {
            assert_eq!(bits(&got.results), bits(&want.results), "warm item {i} under {par}");
            assert_eq!(got.metrics, want.metrics, "warm item {i} metrics under {par}");
            assert_eq!(got.trace, want.trace, "warm item {i} trace under {par}");
        }
    }
}

/// Batch metrics and the batch trace are bit-identical across
/// `Parallelism` settings (fresh caches each side).
#[test]
fn batch_report_is_parallelism_invariant() {
    let xml = corpus();
    let mk_items = |e: &Engine| {
        let q1 = e.query("xml search").unwrap();
        let q2 = e.query("keyword topic2").unwrap();
        vec![
            BatchItem::new(q1.clone(), QueryRequest::complete(Semantics::Elca)),
            BatchItem::new(q2.clone(), QueryRequest::top_k(3, Semantics::Slca)),
            BatchItem::new(q1, QueryRequest::complete(Semantics::Elca)),
            BatchItem::new(q2, QueryRequest::top_k(3, Semantics::Slca)),
        ]
    };
    let opts = |par| BatchOptions { parallelism: par, trace: TraceLevel::Events, ..Default::default() };
    let base_engine = Engine::from_xml(&xml).unwrap();
    let base = base_engine.run_batch_report(&mk_items(&base_engine), &opts(Parallelism::Serial));
    for par in [Parallelism::Fixed(2), Parallelism::Fixed(4), Parallelism::Fixed(8)] {
        let e = Engine::from_xml(&xml).unwrap();
        let got = e.run_batch_report(&mk_items(&e), &opts(par));
        assert_eq!(base.metrics, got.metrics, "batch metrics under {par}");
        assert_eq!(base.trace, got.trace, "batch trace under {par}");
        assert_eq!(base.responses.len(), got.responses.len());
        for (a, b) in base.responses.iter().zip(&got.responses) {
            assert_eq!(bits(&a.results), bits(&b.results), "results under {par}");
        }
    }
}

/// The facade over a larger corpus: every request of a three-worker
/// batch, the explicit top-K join included, answers as `Engine::run` does.
#[test]
fn engine_facade_is_parallelism_invariant() {
    let mut xml = String::from("<r>");
    for i in 0..400 {
        xml.push_str(&format!("<p><t>alpha beta</t><u>gamma{}</u></p>", i % 7));
    }
    xml.push_str("</r>");
    let engine = Engine::from_xml(&xml).unwrap();
    let requests = [
        QueryRequest::complete(Semantics::Elca),
        QueryRequest::complete(Semantics::Slca),
        QueryRequest::top_k(7, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        QueryRequest::top_k(7, Semantics::Elca),
    ];
    let items: Vec<BatchItem> = ["alpha beta", "alpha gamma3", "beta gamma0 alpha"]
        .iter()
        .flat_map(|text| requests.iter().map(|req| (engine.query(text).unwrap(), *req)))
        .map(|(query, req)| BatchItem::new(query, req))
        .collect();
    let opts = BatchOptions { parallelism: Parallelism::Fixed(3), ..Default::default() };
    let report = engine.run_batch_report(&items, &opts);
    assert_eq!(report.responses.len(), items.len());
    for (item, got) in items.iter().zip(&report.responses) {
        let want = engine.run(&item.query, &item.request);
        assert_eq!(want.engine, got.engine, "planner choice");
        assert_eq!(bits(&want.results), bits(&got.results));
        assert_eq!(want.metrics, got.metrics, "per-query metrics");
    }
}

/// Disk leg: batched execution over the on-disk store returns the same
/// results as per-query execution for every cache capacity, and repeat
/// batches are served from the result cache with **zero** further block
/// decodes.
#[test]
fn disk_batches_match_and_hits_decode_nothing() {
    let xml = corpus();
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let mut image = Vec::new();
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_index_to(&ix, &mut image, opts).unwrap();
    let image = ColumnBytes::from(Arc::<[u8]>::from(image));

    let e = Engine::from_index(XmlIndex::build(xtk_xml::parse(&xml).unwrap()));
    let q1 = e.query("xml search").unwrap();
    let q2 = e.query("top k join").unwrap();
    let items = vec![
        BatchItem::new(q1.clone(), QueryRequest::complete(Semantics::Elca)),
        BatchItem::new(q2.clone(), QueryRequest::top_k(5, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased)),
        BatchItem::new(q1.clone(), QueryRequest::complete(Semantics::Elca)),
    ];

    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let caches: [(&str, CacheCtor); 3] = [
        ("cap1", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("default", || Arc::new(ShardedLruCache::with_block_capacity(DEFAULT_CAPACITY_BLOCKS))),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];
    for (cname, mk_cache) in caches {
        let store = DiskColumnStore::open_bytes(image.clone(), mk_cache()).unwrap();
        let disk = DiskEngine::new(&ix, &store);
        // Per-query reference on the same store (results are
        // warmth-independent even though store counters are not).
        let reference: Vec<_> = items
            .iter()
            .map(|it| disk.execute(&it.query, &it.request).unwrap())
            .collect();
        let exec = BatchExecutor::new(DiskEngine::new(&ix, &store));
        let report = exec.run(&items).unwrap();
        for (i, (got, want)) in report.responses.iter().zip(&reference).enumerate() {
            assert_eq!(bits(&got.results), bits(&want.results), "item {i} on {cname}");
        }
        // Result-cache hits must not touch the block layer at all.
        let decodes_before = store.reads();
        let warm = exec.run(&items).unwrap();
        assert_eq!(warm.metrics.get("batch.result_hits"), items.len() as u64, "{cname}");
        assert_eq!(store.reads(), decodes_before, "hits decoded blocks on {cname}");
        for (i, (got, want)) in warm.responses.iter().zip(&reference).enumerate() {
            assert_eq!(bits(&got.results), bits(&want.results), "warm item {i} on {cname}");
        }
    }
}
