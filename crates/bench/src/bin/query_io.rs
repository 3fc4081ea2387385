//! Query-path I/O benchmark: block decodes, cache behaviour, and wall
//! time for the Fig. 9/10 workloads against the on-disk columnar index.
//!
//! ```text
//! query_io [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_query.json)
//!   --check FILE  compare cold decode counts against a committed
//!                 baseline; exit non-zero on a >20 % regression.
//!                 Does not write unless --update is also given.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run itself is also a correctness smoke test: the result
//! fingerprint must be identical across every cache capacity
//! (1 block / default / unbounded) and must match the in-memory engine.
//! Decode counts are exact
//! and deterministic (seeded corpus, serial execution), which is what
//! makes the baseline check meaningful; wall times are recorded for the
//! trajectory but never compared.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use xtk_bench::{
    cold_store, correlated_groups, equal_queries, extract_u64, gate_corpus, high_term,
    point_queries, store_image, Fingerprint, Scale,
};
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::plan::RuleSet;
use xtk_core::query::Query;
use xtk_core::request::{DiskEngine, Executor, QueryRequest};
use xtk_core::Semantics;
use xtk_index::cache::{BlockCache, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS};
use xtk_index::disk::WriteIndexOptions;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

struct Workload {
    name: &'static str,
    queries: Vec<Vec<String>>,
    /// Index-join heavy: probes a long list through a tiny intermediate —
    /// the workloads the rewrite-rule pruning section reuses.
    index_heavy: bool,
}

fn workloads(scale: Scale) -> Vec<Workload> {
    let correlated: Vec<Vec<String>> = correlated_groups()
        .into_iter()
        .map(|(terms, _, _)| terms.into_iter().map(str::to_string).collect())
        .collect();
    vec![
        Workload {
            name: "point_k2_f4",
            queries: point_queries(scale, 2, 4, 8),
            index_heavy: true,
        },
        Workload {
            name: "point_k2_f10",
            queries: point_queries(scale, 2, 10, 8),
            index_heavy: true,
        },
        Workload {
            name: "point_k3_f100",
            queries: point_queries(scale, 3, 100, 8),
            index_heavy: false,
        },
        Workload {
            name: "equal_k3_f1000",
            queries: equal_queries(3, 1_000, 8),
            index_heavy: false,
        },
        Workload { name: "correlated", queries: correlated, index_heavy: false },
    ]
}

struct ConfigRun {
    cold_decodes: u64,
    hot_decodes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    cold_wall_ns: u128,
    hot_wall_ns: u128,
}

/// Runs every query of a workload twice (cold, then hot) on one store.
fn run_config(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    queries: &[Query],
    opts: &JoinOptions,
) -> (ConfigRun, Fingerprint, u64) {
    let mut fp = Fingerprint::new();
    let mut results = 0u64;
    let cold_start = store.reads();
    let t = Instant::now();
    for q in queries {
        let (rs, _, _) = join_search_disk(ix, store, q, opts).expect("disk search");
        for r in &rs {
            fp.push(r.node.0);
            fp.push(r.level as u32);
            fp.push(r.score.to_bits());
        }
        results += rs.len() as u64;
    }
    let cold_wall_ns = t.elapsed().as_nanos();
    let cold_decodes = store.reads() - cold_start;
    let t = Instant::now();
    for q in queries {
        let (_, _, _) = join_search_disk(ix, store, q, opts).expect("disk search");
    }
    let hot_wall_ns = t.elapsed().as_nanos();
    let hot_decodes = store.reads() - cold_start - cold_decodes;
    let stats = store.cache_stats();
    (
        ConfigRun {
            cold_decodes,
            hot_decodes,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            cold_wall_ns,
            hot_wall_ns,
        },
        fp,
        results,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_query.json");
    let mut check: Option<String> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out FILE").clone(),
            "--check" => check = Some(it.next().expect("--check FILE").clone()),
            "--update" => update = true,
            other => panic!("unknown flag {other} (see --help in the module docs)"),
        }
    }

    eprintln!("query_io: building the DBLP benchmark corpus…");
    let ix = gate_corpus(50_000, 200, 10, 30, 10_000);
    let image = store_image(&ix, WriteIndexOptions { include_scores: true, ..Default::default() })
        .expect("write index");

    let opts = JoinOptions { with_scores: true, ..Default::default() };
    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let configs: [(&str, CacheCtor); 3] = [
        ("cap1", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("default", || {
            Arc::new(ShardedLruCache::with_block_capacity(DEFAULT_CAPACITY_BLOCKS))
        }),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];

    let mut json = String::from("{\n  \"schema\": 1,\n  \"corpus\": \"dblp-bench\",\n");
    let mut check_lines: Vec<(String, u64)> = Vec::new();
    json.push_str("  \"workloads\": [\n");

    let all = workloads(Scale::Small);
    for (wi, w) in all.iter().enumerate() {
        let queries: Vec<Query> = w
            .queries
            .iter()
            .map(|words| Query::from_words(&ix, words).expect("workload term resolves"))
            .collect();

        // In-memory reference fingerprint.
        let mut mem_fp = Fingerprint::new();
        for q in &queries {
            let (rs, _) = join_search(&ix, q, &opts);
            for r in &rs {
                mem_fp.push(r.node.0);
                mem_fp.push(r.level as u32);
                mem_fp.push(r.score.to_bits());
            }
        }

        let _ = write!(json, "    {{\"name\": \"{}\", \"queries\": {}", w.name, queries.len());
        let mut fingerprint: Option<u64> = None;
        let mut unbounded_cold = 0u64;
        for (cname, mk_cache) in &configs {
            let store =
                DiskColumnStore::open_bytes(image.clone(), mk_cache()).expect("open store");
            let (run, fp, results) = run_config(&ix, &store, &queries, &opts);
            assert_eq!(
                fp.0, mem_fp.0,
                "{}/{cname}: disk results diverge from the in-memory engine",
                w.name
            );
            match fingerprint {
                None => {
                    fingerprint = Some(fp.0);
                    let _ = write!(json, ", \"results\": {results}");
                    let _ = write!(json, ", \"fingerprint\": \"{:016x}\"", fp.0);
                    json.push_str(", \"configs\": {");
                }
                Some(prev) => assert_eq!(
                    prev, fp.0,
                    "{}/{cname}: results depend on cache capacity",
                    w.name
                ),
            }
            if *cname == "unbounded" {
                unbounded_cold = run.cold_decodes;
            }
            let _ = write!(
                json,
                "{}\"{cname}\": {{\"cold_decodes\": {}, \"hot_decodes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"cold_wall_ns\": {}, \"hot_wall_ns\": {}}}",
                if *cname == "cap1" { "" } else { ", " },
                run.cold_decodes,
                run.hot_decodes,
                run.hits,
                run.misses,
                run.evictions,
                run.cold_wall_ns,
                run.hot_wall_ns,
            );
        }
        json.push('}');

        check_lines.push((format!("chk_{}", w.name), unbounded_cold));
        json.push_str(if wi + 1 == all.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ],\n");

    // Rewrite-rule pruning effectiveness, through the request/plan path,
    // per rule tier on a fresh (empty) cache each query.  `rules=none`
    // lowers to the §III-B strawman (whole-sequence prescan), `prune`
    // narrows the scans to the shared join levels, `all` additionally
    // pushes footer-skipping probes — results must be bit-identical the
    // whole way down while the cold decode totals strictly shrink at
    // each tier.  The workload is the index-heavy point queries (all
    // title-depth — the probe-pushdown regime) plus mixed-depth pairs of
    // a conference name (level 3) with a high-frequency title term
    // (level 5), where column pruning cuts the deep term's levels 4..5
    // columns entirely.
    let req = QueryRequest::complete(Semantics::Elca);
    let tiers: [RuleSet; 3] = [
        RuleSet::none(),
        RuleSet { prune_columns: true, ..RuleSet::none() },
        RuleSet::all(),
    ];
    let mut pruning_queries: Vec<Vec<String>> =
        (0..4).map(|i| vec![format!("conf{}", 17 * i), high_term(i)]).collect();
    for w in all.iter().filter(|w| w.index_heavy) {
        pruning_queries.extend(w.queries.iter().cloned());
    }
    let mut tier_decodes = [0u64; 3];
    let mut tier_fps = [Fingerprint::new(), Fingerprint::new(), Fingerprint::new()];
    for words in &pruning_queries {
        let q = Query::from_words(&ix, words).expect("pruning term resolves");
        for (i, rules) in tiers.iter().enumerate() {
            let store = cold_store(&image).expect("open store");
            let disk = DiskEngine::new(&ix, &store);
            let resp = disk.execute(&q, &req.with_rules(*rules)).expect("disk execute");
            for r in &resp.results {
                tier_fps[i].push(r.node.0);
                tier_fps[i].push(r.level as u32);
                tier_fps[i].push(r.score.to_bits());
            }
            tier_decodes[i] += resp.metrics.get("store.decodes");
        }
    }
    let [strawman_total, pruned_total, probed_total] = tier_decodes;
    assert_eq!(
        tier_fps[0].0, tier_fps[1].0,
        "prune-columns changed results on the pruning workloads"
    );
    assert_eq!(
        tier_fps[1].0, tier_fps[2].0,
        "push-probes changed results on the pruning workloads"
    );
    assert!(
        strawman_total > pruned_total,
        "column pruning must strictly cut cold decodes: strawman {strawman_total}, pruned {pruned_total}"
    );
    assert!(
        pruned_total > probed_total,
        "probe pushdown must strictly cut cold decodes: pruned {pruned_total}, probed {probed_total}"
    );
    let prune_pct = 100.0 * (1.0 - pruned_total as f64 / strawman_total as f64);
    let probe_pct = 100.0 * (1.0 - probed_total as f64 / pruned_total as f64);
    eprintln!(
        "query_io: pruning cold decodes strawman {strawman_total} → pruned {pruned_total} ({prune_pct:.1}% fewer) → probed {probed_total} ({probe_pct:.1}% fewer)"
    );
    let _ = writeln!(
        json,
        "  \"pruning\": {{\"strawman_cold_decodes\": {strawman_total}, \"pruned_cold_decodes\": {pruned_total}, \"probed_cold_decodes\": {probed_total}, \"prune_reduction_pct\": {prune_pct:.1}, \"probe_reduction_pct\": {probe_pct:.1}}},"
    );
    check_lines.push(("chk_pruning_pruned".to_string(), pruned_total));
    check_lines.push(("chk_pruning_probed".to_string(), probed_total));

    check_lines.push(("chk_total".to_string(), check_lines.iter().map(|(_, v)| v).sum()));
    json.push_str("  \"check\": {\n");
    for (i, (key, value)) in check_lines.iter().enumerate() {
        let _ = write!(json, "    \"{key}\": {value}");
        json.push_str(if i + 1 == check_lines.len() { "\n" } else { ",\n" });
    }
    json.push_str("  }\n}\n");

    if let Some(baseline_path) = &check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("--check {baseline_path}: {e}"));
        let mut failed = false;
        for (key, value) in &check_lines {
            let Some(base) = extract_u64(&baseline, key) else {
                eprintln!("query_io: baseline lacks {key} — treating as new");
                continue;
            };
            // >20 % more cold decodes than the committed baseline fails.
            let limit = base + base.div_ceil(5);
            let status = if *value > limit { "REGRESSION" } else { "ok" };
            eprintln!("query_io: {key}: {value} vs baseline {base} (limit {limit}) {status}");
            if *value > limit {
                failed = true;
            }
        }
        // --update is the intentional-refresh escape hatch: it rewrites
        // the baseline even when the check fails (that is what it is
        // for); the CI gate runs without it.
        if failed && !update {
            eprintln!("query_io: cold decode regression against {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("query_io: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("query_io: wrote {out}");
    }
}
