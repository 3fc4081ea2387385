//! Differential tests for the one planned pipeline: every request is
//! bound, rewritten by all three rules (prune-columns, push-probes,
//! eliminate-noops) and lowered, and must answer what the naive reference
//! evaluators answer — on the in-memory, on-disk and sharded executors,
//! for every block-cache configuration, bit for bit across executors.
//! What the rules *are* for is I/O: on disk, the pipeline must decode
//! strictly fewer blocks than a pruned read, which decodes strictly fewer
//! than the whole-sequence read, on mixed-depth workloads.

mod common;

use common::{assert_topk_valid, nodes, store_image as image};
use std::sync::Arc;
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::result::rank_top;
use xtk_core::semantics::{naive_elca, naive_slca};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{ElcaVariant, Engine, Query, ScoredResult, Semantics};
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::diskcol::DiskColumnStore;
use xtk_xml::testutil::TempPath;
use xtk_xml::tree::NodeId;

/// Mixed-depth corpus: conference names live at level 3, titles and
/// authors at level 5 — so `l0` for a mixed query sits well below the
/// deep terms' maximum level and column pruning has something to prune.
fn corpus() -> String {
    let mut xml = String::from("<dblp>");
    for i in 0..400 {
        xml.push_str(&format!(
            "<conf><name>venue{} series</name><session><paper>\
             <title>xml keyword topic{} search</title><author>author{}</author>\
             </paper><paper><title>top k join rare{}</title></paper>\
             </session></conf>",
            i % 5,
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

/// The naive evaluator's answer to `query` under `semantics` (the
/// operational ELCA variant, which every request below uses).
fn reference(e: &Engine, query: &Query, semantics: Semantics) -> Vec<NodeId> {
    let ix = e.index();
    let lists: Vec<&[NodeId]> = query.terms.iter().map(|&t| ix.term(t).postings()).collect();
    match semantics {
        Semantics::Elca => naive_elca(ix.tree(), &lists, ElcaVariant::Operational),
        Semantics::Slca => naive_slca(ix.tree(), &lists),
    }
}

const QUERIES: [&str; 4] = ["series xml", "xml search", "top join", "keyword author4"];

fn requests() -> Vec<(&'static str, QueryRequest)> {
    vec![
        ("complete-elca", QueryRequest::complete(Semantics::Elca)),
        ("complete-slca", QueryRequest::complete(Semantics::Slca)),
        ("auto-k3", QueryRequest::top_k(3, Semantics::Elca)),
        // k far above any candidate bound: eliminate-noops rewrites the
        // top-K to a complete sort, which must emulate the hybrid route.
        ("auto-k100000", QueryRequest::top_k(100_000, Semantics::Slca)),
        (
            "star-k5",
            QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        ),
    ]
}

#[test]
fn every_rule_is_result_preserving_in_memory() {
    let e = Engine::from_xml(&corpus()).unwrap();
    for q_text in QUERIES {
        let q = e.query(q_text).unwrap();
        for (req_name, req) in requests() {
            let want = reference(&e, &q, req.semantics);
            let got = e.run(&q, &req).results;
            let Some(k) = req.k else {
                assert_eq!(nodes(got), want, "{q_text:?} {req_name}");
                continue;
            };
            let mut complete = e.run(&q, &QueryRequest::complete(req.semantics)).results;
            assert_eq!(nodes(complete.clone()), want, "{q_text:?} {req_name} complete");
            assert_topk_valid(&got, &mut complete, k);
        }
    }
}

#[test]
fn every_rule_is_result_preserving_on_disk() {
    let e = Engine::from_xml(&corpus()).unwrap();
    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let caches: [(&str, CacheCtor); 2] = [
        ("cap1", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];
    let image = image(e.index());
    for (cname, mk_cache) in caches {
        let store = DiskColumnStore::open_bytes(image.clone(), mk_cache()).unwrap();
        let disk = DiskEngine::new(e.index(), &store);
        for q_text in ["series xml", "top join"] {
            let q = e.query(q_text).unwrap();
            for (req_name, req) in [
                ("complete", QueryRequest::complete(Semantics::Elca)),
                ("auto-k3", QueryRequest::top_k(3, Semantics::Slca)),
            ] {
                let got = disk.execute(&q, &req).unwrap().results;
                // The memory executor is the cross-engine referee.
                let mem = e.run(&q, &req).results;
                assert_eq!(bits(&got), bits(&mem), "{q_text:?} {req_name} {cname} disk-vs-mem");
                if req.k.is_none() {
                    let want = reference(&e, &q, req.semantics);
                    assert_eq!(nodes(got), want, "{q_text:?} {req_name} {cname}");
                }
            }
        }
    }
}

#[test]
fn every_rule_is_result_preserving_sharded() {
    let e = Engine::from_xml(&corpus()).unwrap();
    for shards in [1usize, 3] {
        let dir = TempPath::new("xtk_plan_diff_shards");
        write_sharded(e.index(), &dir, shards).unwrap();
        for (cname, cache) in [
            ("cap1", Arc::new(ShardedLruCache::with_block_capacity(1)) as Arc<dyn BlockCache>),
            ("unbounded", Arc::new(ShardedLruCache::unbounded()) as Arc<dyn BlockCache>),
        ] {
            let engine = ShardedEngine::open_with_cache(e.index(), &dir, cache).unwrap();
            for q_text in ["series xml", "top join"] {
                let q = e.query(q_text).unwrap();
                // A range never enters level 1: the reference is the
                // memory engine's ranked complete set without the root.
                let mut want = e.run(&q, &QueryRequest::complete(Semantics::Elca)).results;
                want.retain(|r| r.level > 1);
                rank_top(&mut want, Some(4));
                let req = QueryRequest::top_k(4, Semantics::Elca);
                let got = engine.execute(&q, &req).unwrap().results;
                assert_eq!(bits(&got), bits(&want), "{q_text:?} shards={shards} {cname}");
            }
        }
    }
}

/// What the rules are *for*: on a cold store the pipeline's footer-skipping
/// probes must decode strictly fewer blocks than reading the pruned level
/// range whole, which is strictly less than the §III-B whole-sequence read
/// (both counted from the store's directory, without decoding).  Results
/// equal the memory engine's.
#[test]
fn pruning_strictly_reduces_cold_decodes() {
    // A corpus whose frequent columns span many 4 KiB blocks, with the
    // scarce term clustered in a narrow document range — so footer
    // skipping has whole blocks of definite misses to skip.
    let mut xml = String::from("<dblp>");
    for i in 0..20_000 {
        let anchor = if (100..103).contains(&i) { "anchor " } else { "" };
        xml.push_str(&format!(
            "<conf><name>{anchor}series</name><session><paper>\
             <title>xml topic{}</title></paper></session></conf>",
            i % 7,
        ));
    }
    xml.push_str("</dblp>");
    let e = Engine::from_xml(&xml).unwrap();
    // The driver is the scarce clustered term; the frequent deep term is
    // the one pruned (levels above l0) and probed (footer block skipping).
    let words = ["xml", "anchor"];
    let q = e.query(&words.join(" ")).unwrap();
    let req = QueryRequest::complete(Semantics::Elca);
    let store =
        DiskColumnStore::open_bytes(image(e.index()), Arc::new(ShardedLruCache::unbounded()))
            .unwrap();
    let resp = DiskEngine::new(e.index(), &store).execute(&q, &req).unwrap();
    assert_eq!(bits(&resp.results), bits(&e.run(&q, &req).results));
    let probed = resp.metrics.get("store.decodes");
    let l0 = words.iter().map(|w| store.levels_of(w)).min().unwrap();
    let blocks = |levels: &dyn Fn(&str) -> u16| -> u64 {
        let cols = words.iter().flat_map(|w| (1..=levels(w)).filter_map(|l| store.column(w, l)));
        cols.map(|c| c.block_count() as u64).sum()
    };
    let (strawman, pruned) = (blocks(&|w| store.levels_of(w)), blocks(&|_| l0));
    assert!(
        strawman > pruned,
        "whole-sequence reads ({strawman}) must cover more blocks than pruned ones ({pruned})"
    );
    assert!(
        pruned > probed,
        "pruned reads ({pruned}) must decode more than footer-skipping probes ({probed})"
    );
}

/// EXPLAIN shows an `ExecRefused` line for exactly the requests its
/// target's executor refuses, and the executor's error is the line's
/// reason: over every algorithm, with and without `k`, ranked and
/// unranked, under both semantics, on the disk and the sharded target.
#[test]
fn explain_and_execution_refuse_the_same_requests() {
    use xtk_core::plan::{explain, ExplainTarget};
    let engine = Engine::from_xml(&corpus()).unwrap();
    let ix = engine.index();
    let store = DiskColumnStore::open_bytes(image(ix), Arc::new(ShardedLruCache::unbounded())).unwrap();
    let disk = DiskEngine::new(ix, &store);
    let dir = TempPath::new("xtk_plan_refusals");
    write_sharded(ix, &dir, 2).unwrap();
    let sharded = ShardedEngine::open(ix, &dir).unwrap();
    let targets: [(ExplainTarget, &dyn Executor); 2] =
        [(ExplainTarget::Disk, &disk), (ExplainTarget::Sharded, &sharded)];
    let q = Query::from_words(ix, &["xml", "search"]).unwrap();
    let (mut refused, mut served) = (0, 0);
    for algorithm in [
        QueryAlgorithm::Auto,
        QueryAlgorithm::JoinBased,
        QueryAlgorithm::StackBased,
        QueryAlgorithm::TopKJoin,
    ] {
        for semantics in [Semantics::Elca, Semantics::Slca] {
            for base in [QueryRequest::complete(semantics), QueryRequest::top_k(3, semantics)] {
                for req in [base, base.unranked()] {
                    let req = req.with_algorithm(algorithm);
                    for (target, executor) in targets {
                        let what = format!("{target:?} {req:?}");
                        let physical = explain(ix, &q, &req, target).physical;
                        match executor.execute(&q, &req) {
                            Ok(_) => {
                                served += 1;
                                assert!(physical.starts_with("ExecTopK:"), "{what}: {physical}");
                            }
                            Err(err) => {
                                refused += 1;
                                assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{what}");
                                let name = match target {
                                    ExplainTarget::Disk => "disk",
                                    _ => "sharded",
                                };
                                let line = format!("ExecRefused: target={name} reason=\"{err}\"\n");
                                assert_eq!(physical, line, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(refused > 0 && served > 0, "{refused} refused, {served} served");
}

/// On the memory target EXPLAIN shows the engine that answers: for every
/// algorithm, with and without `k`, ranked and unranked, the physical
/// plan's engine is the response's `ExecutedEngine` (the hybrid's pick
/// is made at run time, so `mode=hybrid` admits either of its routes).
#[test]
fn explain_shows_the_engine_that_answers_in_memory() {
    use xtk_core::plan::{explain, ExplainTarget};
    use xtk_core::request::ExecutedEngine;
    let engine = Engine::from_xml(&corpus()).unwrap();
    let ix = engine.index();
    for q_text in QUERIES {
        let q = engine.query(q_text).unwrap();
        for algorithm in [
            QueryAlgorithm::Auto,
            QueryAlgorithm::JoinBased,
            QueryAlgorithm::StackBased,
            QueryAlgorithm::TopKJoin,
        ] {
            for semantics in [Semantics::Elca, Semantics::Slca] {
                for base in [QueryRequest::complete(semantics), QueryRequest::top_k(3, semantics)] {
                    for req in [base, base.unranked()] {
                        let req = req.with_algorithm(algorithm);
                        let physical = explain(ix, &q, &req, ExplainTarget::Memory).physical;
                        let shown: &[ExecutedEngine] = if physical.starts_with("ExecStack:") {
                            &[ExecutedEngine::StackBased]
                        } else if physical.contains("mode=star-join") {
                            &[ExecutedEngine::TopKJoin]
                        } else if physical.contains("mode=hybrid") {
                            &[ExecutedEngine::TopKJoin, ExecutedEngine::JoinBased]
                        } else {
                            &[ExecutedEngine::JoinBased]
                        };
                        let ran = engine.run(&q, &req).engine;
                        assert!(shown.contains(&ran), "{q_text:?} {req:?} ran {ran:?}: {physical}");
                    }
                }
            }
        }
    }
}

/// The sharded target prices the levels it reads (`2..=l0`): wherever
/// the disk target's estimate of a complete request equals its cold
/// decodes, the sharded target's does too.
#[test]
fn sharded_estimates_price_the_levels_read() {
    use xtk_core::plan::{explain, ExplainTarget};
    let e = Engine::from_xml(&corpus()).unwrap();
    let ix = e.index();
    let image = image(ix);
    let dir = TempPath::new("xtk_plan_sharded_est");
    write_sharded(ix, &dir, 2).unwrap();
    let mut exact = 0;
    for q_text in QUERIES {
        let q = e.query(q_text).unwrap();
        let req = QueryRequest::complete(Semantics::Elca);
        let cache = Arc::new(ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(image.clone(), cache).unwrap();
        let disk = DiskEngine::new(ix, &store).execute(&q, &req).unwrap();
        let sharded = ShardedEngine::open(ix, &dir).unwrap().execute(&q, &req).unwrap();
        let est = |target| explain(ix, &q, &req, target).cost.est_blocks;
        let (disk_est, sharded_est) = (est(ExplainTarget::Disk), est(ExplainTarget::Sharded));
        assert!(sharded_est <= disk_est, "{q_text:?}: {sharded_est} > {disk_est}");
        if disk_est == disk.metrics.get("store.decodes") {
            exact += 1;
            assert_eq!(sharded_est, sharded.metrics.get("store.decodes"), "{q_text:?}");
        }
    }
    assert!(exact > 0, "no query's disk estimate was exact");
}
