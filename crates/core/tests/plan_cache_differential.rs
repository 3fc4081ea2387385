//! Differential tests for the cross-query plan cache (PR 10): a plan
//! served from the cache must be **bit-identical** — same `ExecSpec`,
//! same results, same score bits — to one planned cold, on the
//! in-memory, on-disk and sharded executors, for every on-disk
//! format.  The cache is also exercised through its two
//! invalidation channels: a moved index generation (incremental
//! maintenance) and a changed topology salt must both force a cold
//! re-plan instead of serving a stale spec.

use std::sync::Arc;
use xtk_core::plan::{PlanSource, Planner};
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{Engine, ScoredResult, Semantics};
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::disk::{write_index, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::maintain::JDeweyMaintainer;
use xtk_xml::testutil::TempPath;

/// Same mixed-depth corpus as `plan_differential.rs`: shallow venue
/// names and deep titles give the rewriter real pruning decisions to
/// cache, not just trivial single-leaf plans.
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

const QUERIES: [&str; 3] = ["series xml", "xml search", "top join"];

fn requests() -> Vec<(&'static str, QueryRequest)> {
    vec![
        ("complete-elca", QueryRequest::complete(Semantics::Elca)),
        ("auto-k3", QueryRequest::top_k(3, Semantics::Slca)),
        (
            "star-k5",
            QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        ),
    ]
}

#[test]
fn cached_plans_are_result_identical_in_memory() {
    let e = Engine::from_xml(&corpus()).unwrap();
    for q_text in QUERIES {
        let q = e.query(q_text).unwrap();
        for (req_name, req) in requests() {
            let cold = e.run(&q, &req).results;
            let warm = e.run(&q, &req).results;
            assert_eq!(bits(&cold), bits(&warm), "{q_text:?} {req_name}");
        }
    }
    let stats = e.planner().cache().stats();
    assert!(stats.hits >= (QUERIES.len() * requests().len()) as u64, "{stats:?}");
    assert_eq!(stats.invalidations, 0, "{stats:?}");
}

#[test]
fn cached_plans_are_result_identical_on_disk() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let path = TempPath::new("xtk_plan_cache_diff");
    write_index(e.index(), &path, WriteIndexOptions { include_scores: true, ..Default::default() })
        .unwrap();
    let store = DiskColumnStore::open_with_cache(
        &path,
        Arc::new(ShardedLruCache::unbounded()) as Arc<dyn BlockCache>,
    )
    .unwrap();
    let disk = DiskEngine::new(e.index(), &store);
    // The disk executor implements the join-based route only, so
    // the star-join request stays on the in-memory grid.
    let disk_requests = [
        ("complete-elca", QueryRequest::complete(Semantics::Elca)),
        ("auto-k3", QueryRequest::top_k(3, Semantics::Slca)),
    ];
    for q_text in QUERIES {
        let q = e.query(q_text).unwrap();
        for (req_name, req) in disk_requests {
            let cold = disk.execute(&q, &req).unwrap().results;
            let warm = disk.execute(&q, &req).unwrap().results;
            assert_eq!(bits(&cold), bits(&warm), "{q_text:?} {req_name}");
            // The memory executor referees the cached disk plan.
            let mem = e.run(&q, &req).results;
            assert_eq!(bits(&warm), bits(&mem), "{q_text:?} {req_name} disk-vs-mem");
        }
    }
    let stats = disk.planner().cache().stats();
    assert!(stats.hits > 0, "warm pass must hit the plan cache: {stats:?}");
}

#[test]
fn cached_plans_are_result_identical_sharded() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let mut reference: Option<Vec<(u32, u16, u32)>> = None;
    for shards in [1usize, 3] {
        let dir = TempPath::new(&format!("xtk_plan_cache_diff_shards{shards}"));
        write_sharded(e.index(), &dir, shards).unwrap();
        let engine = ShardedEngine::open_with_cache(
            e.index(),
            &dir,
            Arc::new(ShardedLruCache::unbounded()) as Arc<dyn BlockCache>,
        )
        .unwrap();
        let q = e.query("series xml").unwrap();
        let req = QueryRequest::top_k(4, Semantics::Elca);
        let cold = engine.execute(&q, &req).unwrap().results;
        let warm = engine.execute(&q, &req).unwrap().results;
        assert_eq!(bits(&cold), bits(&warm), "shards={shards}");
        let stats = engine.planner().cache().stats();
        assert!(stats.hits > 0, "warm pass must hit the plan cache: {stats:?}");
        // The shard count must not leak into answers: every one returns
        // the same bits.
        match &reference {
            Some(want) => assert_eq!(want, &bits(&warm), "shards={shards} vs reference"),
            None => reference = Some(bits(&warm)),
        }
    }
}

/// The contract underneath the result tests: `Planner::spec_for` must
/// return the *same spec value* cold and cached, for both statistics
/// snapshots (in-memory estimated, on-disk exact).
#[test]
fn cached_spec_equals_cold_spec_for_both_snapshots() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let path = TempPath::new("xtk_plan_cache_spec");
    write_index(e.index(), &path, WriteIndexOptions { include_scores: true, ..Default::default() })
        .unwrap();
    let store = DiskColumnStore::open_with_cache(
        &path,
        Arc::new(ShardedLruCache::unbounded()) as Arc<dyn BlockCache>,
    )
    .unwrap();
    let planners = [
        ("index", Planner::from_index(e.index())),
        ("store", Planner::from_store(e.index(), &store)),
    ];
    let generation = e.index().generation();
    for (pname, planner) in planners {
        for q_text in QUERIES {
            let q = e.query(q_text).unwrap();
            for (req_name, req) in requests() {
                let (cold, src0) =
                    planner.spec_for(e.index(), &q, &req, generation, 0);
                let (cached, src1) =
                    planner.spec_for(e.index(), &q, &req, generation, 0);
                assert_eq!(src0, PlanSource::Cold, "{pname} {q_text:?} {req_name}");
                assert_eq!(src1, PlanSource::Cached, "{pname} {q_text:?} {req_name}");
                assert_eq!(cold, cached, "{pname} {q_text:?} {req_name}");
            }
        }
    }
}

/// Generation-stamp regression: a cached plan from generation `g` must
/// not be served at generation `g + 1` — the lookup drops it, counts an
/// invalidation, and re-plans cold.
#[test]
fn stale_generation_invalidates_cached_plans() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let planner = Planner::from_index(e.index());
    let q = e.query("series xml").unwrap();
    let req = QueryRequest::top_k(3, Semantics::Elca);
    let (spec, src) = planner.spec_for(e.index(), &q, &req, 1, 0);
    assert_eq!(src, PlanSource::Cold);
    assert_eq!(planner.spec_for(e.index(), &q, &req, 1, 0).1, PlanSource::Cached);
    assert_eq!(planner.peek(&q, &req, 1, 0), PlanSource::Cached);
    // The maintainer moved the generation: same fingerprint, stale slot.
    assert_eq!(planner.peek(&q, &req, 2, 0), PlanSource::Cold);
    let (respec, src) = planner.spec_for(e.index(), &q, &req, 2, 0);
    assert_eq!(src, PlanSource::Cold, "stale slot must not be served");
    assert_eq!(planner.cache().stats().invalidations, 1);
    // The index is unchanged here, so the re-plan lands on the same spec
    // — and is cached again under the new generation.
    assert_eq!(spec, respec);
    assert_eq!(planner.spec_for(e.index(), &q, &req, 2, 0).1, PlanSource::Cached);
}

/// End-to-end maintenance regression: after an incremental insert and
/// `Engine::replace_index`, a query whose plan was cached must return
/// the **updated** answer, not replay a plan over the old statistics.
#[test]
fn replace_index_refreshes_cached_plans_and_answers() {
    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title>\
                       <author>ann</author></paper><paper><title>top k ranking</title>\
                       <abs>keyword</abs></paper></conf></bib>";
    let mut maintainer = JDeweyMaintainer::new(xtk_xml::parse(DOC).unwrap(), 16);
    let mut engine = Engine::from_xml(DOC).unwrap();
    let q = engine.query("keyword ranking").unwrap();
    let req = QueryRequest::complete(Semantics::Elca);
    let baseline = engine.run(&q, &req).results.len();
    engine.run(&q, &req);
    assert!(engine.planner().cache().stats().hits > 0);

    // Insert a new paper matching the query, then swap the index in.
    let root = maintainer.tree().root();
    let conf = maintainer.tree().children(root)[0];
    let paper = maintainer.insert_child_auto(conf, "paper").unwrap();
    let title = maintainer.insert_child_auto(paper, "title").unwrap();
    maintainer.tree_mut().append_text(title, "fresh keyword ranking survey");
    let (tree, _) = maintainer.compact();
    let generation = engine.index().generation() + maintainer.generation();
    engine.replace_index(XmlIndex::build(tree).with_generation(generation));
    assert_eq!(engine.planner().cache().stats().entries, 0, "refresh drops plans");

    let q = engine.query("keyword ranking").unwrap();
    let after = engine.run(&q, &req).results.len();
    assert!(after > baseline, "inserted paper must appear: {after} vs {baseline}");
    // And the refreshed plan is itself cached again.
    engine.run(&q, &req);
    assert!(engine.planner().cache().stats().entries > 0);
}

/// Topology-salt regression: the same `(query, request, generation)`
/// under two different salts must occupy two distinct cache entries —
/// a plan fingerprinted under one salt is never served under another,
/// and neither lookup aliases the other.
#[test]
fn stale_topology_salt_misses_instead_of_aliasing() {
    let e = Engine::from_xml(&corpus()).unwrap();
    let planner = Planner::from_index(e.index());
    let q = e.query("series xml").unwrap();
    let req = QueryRequest::top_k(3, Semantics::Elca);
    let generation = e.index().generation();
    let salt_a = 0xA1u64;
    let salt_b = 0xB2u64;
    assert_eq!(planner.spec_for(e.index(), &q, &req, generation, salt_a).1, PlanSource::Cold);
    assert_eq!(
        planner.spec_for(e.index(), &q, &req, generation, salt_a).1,
        PlanSource::Cached
    );
    // A different topology salt is a *miss*, never a hit on A's entry.
    assert_eq!(planner.peek(&q, &req, generation, salt_b), PlanSource::Cold);
    assert_eq!(planner.spec_for(e.index(), &q, &req, generation, salt_b).1, PlanSource::Cold);
    // Both topologies now coexist: two entries, each warm for its salt.
    assert_eq!(planner.cache().len(), 2);
    assert_eq!(
        planner.spec_for(e.index(), &q, &req, generation, salt_a).1,
        PlanSource::Cached
    );
    assert_eq!(
        planner.spec_for(e.index(), &q, &req, generation, salt_b).1,
        PlanSource::Cached
    );
    assert_eq!(planner.cache().stats().invalidations, 0, "misses, not invalidations");
}
