//! Differential tests for the logical-plan rewrite rules: every rule —
//! alone and in combination — must be **result-preserving bit-for-bit**
//! (nodes, order, score bits) on the in-memory, on-disk and sharded
//! executors, for every block-cache configuration.
//! What the rules *are* allowed to change is I/O: the pruning rules must
//! strictly reduce decoded blocks on disk for mixed-depth workloads.

mod common;

use common::store_image as image;
use std::sync::Arc;
use xtk_core::plan::RuleSet;
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{Engine, Parallelism, ScoredResult, Semantics};
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::diskcol::DiskColumnStore;
use xtk_xml::testutil::TempPath;

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

/// Every rule alone, all, and none — the per-rule differential grid.
fn rule_sets() -> [(&'static str, RuleSet); 5] {
    [
        ("none", RuleSet::none()),
        ("prune", RuleSet { prune_columns: true, ..RuleSet::none() }),
        ("push", RuleSet { push_probes: true, ..RuleSet::none() }),
        ("elim", RuleSet { eliminate_noops: true, ..RuleSet::none() }),
        ("all", RuleSet::all()),
    ]
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
            let want = e.run(&q, &req.with_rules(RuleSet::all())).results;
            for (rule_name, rules) in rule_sets() {
                let got = e.run(&q, &req.with_rules(rules)).results;
                assert_eq!(bits(&want), bits(&got), "{q_text:?} {req_name} rules={rule_name}");
            }
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
                let want = disk.execute(&q, &req.with_rules(RuleSet::all())).unwrap().results;
                // The memory executor is the cross-engine referee.
                let mem = e.run(&q, &req.with_rules(RuleSet::all())).results;
                assert_eq!(bits(&want), bits(&mem), "{q_text:?} {req_name} disk-vs-mem");
                for (rule_name, rules) in rule_sets() {
                    let got = disk.execute(&q, &req.with_rules(rules)).unwrap().results;
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "{q_text:?} {req_name} rules={rule_name} {cname}"
                    );
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
            let engine = ShardedEngine::open_with_cache(e.index(), &dir, cache)
                .unwrap()
                .with_parallelism(Parallelism::Auto);
            for q_text in ["series xml", "top join"] {
                let q = e.query(q_text).unwrap();
                let req = QueryRequest::top_k(4, Semantics::Elca);
                let want = engine.execute(&q, &req.with_rules(RuleSet::all())).unwrap().results;
                for (rule_name, rules) in rule_sets() {
                    let got = engine.execute(&q, &req.with_rules(rules)).unwrap().results;
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "{q_text:?} rules={rule_name} shards={shards} {cname}"
                    );
                }
            }
        }
    }
}

/// What the rules are *for*: on a cold store, the unoptimized pipeline
/// (materialized whole-sequence reads) must decode strictly more blocks
/// than streamed pruned scans, which must decode strictly more than
/// footer-skipping probes.  Results stay identical the whole way down.
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
    let image = image(e.index());
    // The driver is the scarce clustered term; the frequent deep term is
    // the one pruned (levels above l0) and probed (footer block skipping).
    let q = e.query("xml anchor").unwrap();
    let req = QueryRequest::complete(Semantics::Elca);
    let decodes_of = |rules: RuleSet| {
        let store =
            DiskColumnStore::open_bytes(image.clone(), Arc::new(ShardedLruCache::unbounded()))
                .unwrap();
        let disk = DiskEngine::new(e.index(), &store);
        let resp = disk.execute(&q, &req.with_rules(rules)).unwrap();
        (resp.metrics.get("store.decodes"), bits(&resp.results))
    };
    let (strawman, r0) = decodes_of(RuleSet::none());
    let (pruned, r1) = decodes_of(RuleSet { prune_columns: true, ..RuleSet::none() });
    let (probed, r2) = decodes_of(RuleSet::all());
    assert_eq!(r0, r1);
    assert_eq!(r1, r2);
    assert!(
        strawman > pruned,
        "whole-sequence prescan ({strawman}) must decode more than pruned streams ({pruned})"
    );
    assert!(
        pruned > probed,
        "pruned streams ({pruned}) must decode more than footer-skipping probes ({probed})"
    );
}
