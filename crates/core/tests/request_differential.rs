//! Differential tests for the unified request API: `Engine::run` must
//! return **bit-identical** results (nodes, order, score bits) to the
//! underlying algorithm entry points it lowers to, for every semantics ×
//! served engine combination, and the recorded trace must not depend on the
//! `Parallelism` of the batch that served it.

use xtk_core::baseline::stack::{stack_search, StackOptions};
use xtk_core::hybrid::hybrid_topk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::result::sort_ranked;
use xtk_core::topk::{topk_search, TopKOptions};
use xtk_core::{ElcaVariant, Engine, Parallelism, ScoredResult, Semantics, TraceLevel};

fn corpus() -> String {
    let mut xml = String::from("<dblp>");
    for i in 0..400 {
        xml.push_str(&format!(
            "<conf><year>20{:02}</year><paper><title>xml keyword topic{} search</title>\
             <author>author{}</author></paper><paper><title>top k join rare{}</title>\
             </paper></conf>",
            i % 30,
            i % 7,
            i % 13,
            i % 97
        ));
    }
    xml.push_str("</dblp>");
    xml
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

const SEM: [Semantics; 2] = [Semantics::Elca, Semantics::Slca];

#[test]
fn run_complete_equals_join_search() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = e.query("xml search").unwrap();
    for sem in SEM {
        let opts = JoinOptions { semantics: sem, with_scores: true, ..Default::default() };
        let (mut old, _) = join_search(e.index(), &q, &opts);
        sort_ranked(&mut old);
        let new = e
            .run(&q, &QueryRequest::complete(sem).with_algorithm(QueryAlgorithm::JoinBased))
            .results;
        assert_eq!(bits(&old), bits(&new), "{sem:?}");
    }
}

#[test]
fn run_unranked_equals_every_raw_engine() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = e.query("xml keyword").unwrap();
    for sem in SEM {
        let raw: [(QueryAlgorithm, Vec<ScoredResult>); 2] = [
            (
                QueryAlgorithm::JoinBased,
                join_search(
                    e.index(),
                    &q,
                    &JoinOptions { semantics: sem, ..Default::default() },
                )
                .0,
            ),
            (
                QueryAlgorithm::StackBased,
                stack_search(
                    e.index(),
                    &q,
                    &StackOptions { semantics: sem, ..Default::default() },
                ),
            ),
        ];
        for (alg, old) in raw {
            let new = e
                .run(&q, &QueryRequest::complete(sem).unranked().with_algorithm(alg))
                .results;
            assert_eq!(bits(&old), bits(&new), "{sem:?} {alg:?}");
        }
    }
}

#[test]
fn top_k_family_equals_raw_engines() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = e.query("top join").unwrap();
    for sem in SEM {
        for k in [1, 5, 50] {
            let req = QueryRequest::top_k(k, sem);
            let (old, _) = topk_search(
                e.index(),
                &q,
                &TopKOptions { k, semantics: sem, ..Default::default() },
            );
            let new = e.run(&q, &req.with_algorithm(QueryAlgorithm::TopKJoin)).results;
            assert_eq!(bits(&old), bits(&new), "top_k {sem:?} k={k}");

            let (old_auto, _) = hybrid_topk(e.index(), &q, k, sem);
            let new_auto = e.run(&q, &req).results;
            assert_eq!(bits(&old_auto), bits(&new_auto), "auto {sem:?} k={k}");
        }
    }
}

#[test]
fn run_metrics_equal_raw_counters() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = e.query("xml search").unwrap();
    let (_, js) = join_search(e.index(), &q, &JoinOptions::default());
    let resp = e.run(
        &q,
        &QueryRequest::complete(Semantics::Elca)
            .unranked()
            .with_algorithm(QueryAlgorithm::JoinBased),
    );
    assert_eq!(resp.metrics.get("join.levels"), js.levels as u64);
    assert_eq!(resp.metrics.get("join.matches"), js.matches);
    assert_eq!(resp.metrics.get("join.results"), js.results);
    assert_eq!(resp.metrics.get("join.steps"), js.steps as u64);

    let (_, ts) = topk_search(e.index(), &q, &TopKOptions { k: 10, ..Default::default() });
    let resp = e.run(
        &q,
        &QueryRequest::top_k(10, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
    );
    assert_eq!(resp.metrics.get("topk.rows_retrieved"), ts.rows_retrieved);
    assert_eq!(resp.metrics.get("topk.columns"), ts.columns as u64);
    assert_eq!(resp.metrics.get("topk.candidates"), ts.candidates);
}

#[test]
fn traces_are_bit_identical_across_parallelism() {
    // A request runs on one thread; the batch workers are around it and
    // may not show in its trace.
    use xtk_core::{BatchItem, BatchOptions};
    let traced = |req: QueryRequest| {
        req.with_algorithm(QueryAlgorithm::JoinBased).with_trace(TraceLevel::Events)
    };
    let reqs = [
        traced(QueryRequest::complete(Semantics::Elca)),
        traced(QueryRequest::complete(Semantics::Slca)),
        traced(QueryRequest::top_k(7, Semantics::Elca)),
        QueryRequest::top_k(7, Semantics::Elca)
            .with_algorithm(QueryAlgorithm::TopKJoin)
            .with_trace(TraceLevel::Events),
    ];
    let e = Engine::from_xml(&corpus()).unwrap();
    let items: Vec<BatchItem> = ["xml search", "top join", "keyword author4"]
        .iter()
        .flat_map(|text| reqs.iter().map(|req| BatchItem::new(e.query(text).unwrap(), *req)))
        .collect();
    let want: Vec<_> =
        items.iter().map(|it| e.run(&it.query, &it.request).trace.expect("trace")).collect();
    assert!(want.iter().all(|t| !t.events.is_empty()));
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
        // A fresh engine per setting: nothing is served from the result cache.
        let fresh = Engine::from_xml(&corpus()).unwrap();
        let opts = BatchOptions { parallelism, ..Default::default() };
        let report = fresh.run_batch_report(&items, &opts);
        for (i, (response, t1)) in report.responses.iter().zip(&want).enumerate() {
            let t2 = response.trace.as_ref().expect("trace requested");
            assert_eq!(t1, t2, "item {i} batch {parallelism:?}");
            // Logical sequence numbers, no wall clock: the rendered JSON
            // is byte-identical too.
            assert_eq!(t1.to_json_lines(), t2.to_json_lines());
        }
    }
}

#[test]
fn disk_and_memory_executors_agree_bit_for_bit() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let mut image = Vec::new();
    xtk_index::disk::write_index_to(
        e.index(),
        &mut image,
        xtk_index::disk::WriteIndexOptions { include_scores: true, ..Default::default() },
    )
    .unwrap();
    let store = xtk_index::diskcol::DiskColumnStore::open_bytes(
        image.into(),
        std::sync::Arc::new(xtk_index::cache::ShardedLruCache::unbounded()),
    )
    .unwrap();
    let disk = DiskEngine::new(e.index(), &store);
    let q = e.query("xml rare17").unwrap();
    for sem in SEM {
        for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
            let req = QueryRequest::complete(sem)
                .with_variant(variant)
                .with_algorithm(QueryAlgorithm::JoinBased);
            let m = e.run(&q, &req);
            let d = disk.execute(&q, &req).unwrap();
            assert_eq!(bits(&m.results), bits(&d.results), "{sem:?} {variant:?}");
        }
    }
    // The disk trace repeats on a warm cache, from any engine over the
    // store (decode counts settle at 0).
    let req = QueryRequest::complete(Semantics::Elca)
        .with_algorithm(QueryAlgorithm::JoinBased)
        .with_trace(TraceLevel::Events);
    let _ = disk.execute(&q, &req).unwrap();
    let t1 = disk.execute(&q, &req).unwrap().trace.expect("trace");
    let t2 = DiskEngine::new(e.index(), &store).execute(&q, &req).unwrap().trace.expect("trace");
    assert_eq!(t1, t2);
}

#[test]
fn hand_built_empty_query_answers_empty_on_every_executor() {
    // `Query::parse`/`from_words` refuse an empty keyword list, but the
    // struct is public: a hand-built empty query must answer empty — the
    // same way on memory, disk and sharded, never a panic.
    use xtk_core::diskexec::join_search_disk;
    use xtk_core::shard::{write_sharded, ShardedEngine};
    use xtk_core::Query;
    let e = Engine::from_xml(&corpus()).unwrap();
    let q = Query { terms: Vec::new() };
    let mut image = Vec::new();
    xtk_index::disk::write_index_to(
        e.index(),
        &mut image,
        xtk_index::disk::WriteIndexOptions { include_scores: true, ..Default::default() },
    )
    .unwrap();
    let store = xtk_index::diskcol::DiskColumnStore::open_bytes(
        image.into(),
        std::sync::Arc::new(xtk_index::cache::ShardedLruCache::unbounded()),
    )
    .unwrap();
    let dir = xtk_xml::testutil::TempPath::new("xtk_request_diff_empty");
    write_sharded(e.index(), &dir, 3).unwrap();
    let sharded = ShardedEngine::open(e.index(), &dir).unwrap();

    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let (mem, mem_stats) = join_search(e.index(), &q, &opts);
    let (dsk, dsk_stats, reads) = join_search_disk(e.index(), &store, &q, &opts).unwrap();
    assert!(mem.is_empty() && dsk.is_empty());
    assert_eq!(mem_stats, dsk_stats);
    assert_eq!(reads, 0, "an empty query touches no block");

    let disk = DiskEngine::new(e.index(), &store);
    for req in [QueryRequest::complete(Semantics::Elca), QueryRequest::top_k(3, Semantics::Slca)] {
        let req = req.with_algorithm(QueryAlgorithm::JoinBased);
        assert!(e.run(&q, &req).results.is_empty());
        assert!(disk.execute(&q, &req).unwrap().results.is_empty());
        assert!(sharded.execute(&q, &req).unwrap().results.is_empty());
    }
}
