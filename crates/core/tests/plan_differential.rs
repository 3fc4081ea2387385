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

/// What a physical plan says executes: the `ExecTopK` line's mode and
/// `k`, the `ExecJoin` (or `ExecStack`) line's knobs.
#[derive(Debug)]
struct Shown {
    mode: String,
    k: Option<usize>,
    semantics: Semantics,
    variant: ElcaVariant,
    scored: bool,
}

fn shown(physical: &str) -> Option<Shown> {
    let field = |line: &str, name: &str| {
        let at = line.find(&format!(" {name}="))? + name.len() + 2;
        line.get(at..)?.split([' ', '\n']).next().map(str::to_owned)
    };
    let first = physical.lines().next()?;
    let knobs = physical.lines().find(|l| l.contains("ExecJoin:") || l.contains("ExecStack:"))?;
    let mode = if first.starts_with("ExecStack:") {
        "stack".to_owned()
    } else {
        field(first, "mode")?
    };
    let k = field(first, "k").and_then(|k| k.parse().ok());
    let semantics = match field(knobs, "semantics")?.as_str() {
        "elca" => Semantics::Elca,
        _ => Semantics::Slca,
    };
    let variant = match field(knobs, "variant")?.as_str() {
        "formal" => ElcaVariant::Formal,
        _ => ElcaVariant::Operational,
    };
    let scored = field(knobs, "scored")?.as_str() == "yes";
    Some(Shown { mode, k, semantics, variant, scored })
}

/// A corpus on which the two ELCA variants answer differently: each `a`
/// holds a raw-full `b` that is no ELCA itself (its `x` and `y` meet in
/// the ELCA `c` below it), so the formal variant drops `a` and the
/// operational one keeps it through `d`'s `x` and `a`'s own `y`.
fn variant_corpus() -> String {
    let mut xml = String::from("<r>");
    for i in 0..40 {
        xml.push_str(&format!(
            "<a><b><c>x y pad{}</c><d>x</d></b>y</a><e><f>x y</f></e>",
            i % 3
        ));
    }
    xml.push_str("</r>");
    xml
}

/// Checks one request on one target: `None` when the target refuses it,
/// else whether the ELCA variant other than the rendered one would have
/// answered different nodes.
fn check_knobs(
    engine: &Engine,
    (target, executor): (xtk_core::plan::ExplainTarget, &dyn Executor),
    q: &Query,
    req: QueryRequest,
) -> Option<bool> {
    let got = executor.execute(q, &req).ok()?;
    let what = format!("{target:?} {req:?}");
    let physical = xtk_core::plan::explain(engine.index(), q, &req, target).physical;
    let s = shown(&physical).unwrap_or_else(|| panic!("{what}: {physical}"));
    let spelled = |algorithm, variant, scored: bool| {
        let r = match s.k {
            Some(k) => QueryRequest::top_k(k, s.semantics),
            None => QueryRequest::complete(s.semantics),
        };
        let r = r.with_algorithm(algorithm).with_variant(variant);
        if scored { r } else { r.unranked() }
    };
    if matches!(s.mode.as_str(), "hybrid" | "star-join") {
        let ranked = s.scored && s.variant == ElcaVariant::Operational;
        assert!(ranked, "{what}: {physical}");
        let join = QueryRequest::complete(s.semantics).with_algorithm(QueryAlgorithm::JoinBased);
        let mut all = engine.run(q, &join).results;
        assert_topk_valid(&got.results, &mut all, s.k.unwrap());
        return Some(false);
    }
    let algorithm = match s.mode.as_str() {
        "stack" => QueryAlgorithm::StackBased,
        _ => QueryAlgorithm::JoinBased,
    };
    let want = executor.execute(q, &spelled(algorithm, s.variant, s.scored));
    let want = want.unwrap_or_else(|e| panic!("{what}: spelled request refused: {e}"));
    assert_eq!(bits(&got.results), bits(&want.results), "{what}: {physical}");
    if s.semantics == Semantics::Slca || s.k.is_some() {
        return Some(false);
    }
    let other = match s.variant {
        ElcaVariant::Operational => ElcaVariant::Formal,
        ElcaVariant::Formal => ElcaVariant::Operational,
    };
    let flip = executor.execute(q, &spelled(algorithm, other, s.scored));
    Some(flip.is_ok_and(|f| nodes(f.results) != nodes(got.results)))
}

/// EXPLAIN's physical plan names what executes, on every target: for
/// every algorithm the target serves, both semantics and both variants,
/// with and without `k`, ranked and unranked, the request answers what the
/// join-based request spelled from the rendered `semantics=`, `variant=`,
/// `scored=` and `k=` answers on the same target, bit for bit.  The memory
/// hybrid and the star join rank by their own route, so a request shown
/// there must show `scored=yes variant=operational` and answer a valid
/// top-K of the ranked operational join.
#[test]
fn explain_shows_the_knobs_that_execute_on_every_target() {
    use xtk_core::plan::ExplainTarget;
    for xml in [corpus(), variant_corpus()] {
        let engine = Engine::from_xml(&xml).unwrap();
        let ix = engine.index();
        let cache = Arc::new(ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(image(ix), cache).unwrap();
        let disk = DiskEngine::new(ix, &store);
        let dir = TempPath::new("xtk_plan_knobs");
        write_sharded(ix, &dir, 2).unwrap();
        let sharded = ShardedEngine::open(ix, &dir).unwrap();
        let targets: [(ExplainTarget, &dyn Executor); 3] = [
            (ExplainTarget::Memory, &engine),
            (ExplainTarget::Disk, &disk),
            (ExplainTarget::Sharded, &sharded),
        ];
        let variant_corpus = xml.contains("<a>");
        let q = engine.query(if variant_corpus { "x y" } else { "xml search" }).unwrap();
        let mut variants_differ = false;
        for algorithm in [
            QueryAlgorithm::Auto,
            QueryAlgorithm::JoinBased,
            QueryAlgorithm::StackBased,
            QueryAlgorithm::TopKJoin,
        ] {
            for semantics in [Semantics::Elca, Semantics::Slca] {
                for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
                    let complete = QueryRequest::complete(semantics);
                    for base in [complete, QueryRequest::top_k(3, semantics)] {
                        for req in [base, base.unranked()] {
                            let req = req.with_algorithm(algorithm).with_variant(variant);
                            for target in targets {
                                let differ = check_knobs(&engine, target, &q, req);
                                variants_differ |= differ == Some(true);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(variants_differ, variant_corpus, "variants differ on the variant corpus only");
    }
}
