//! Planning-path benchmark: the cross-query plan cache against planning
//! cold, on the `query_io` corpus.
//!
//! ```text
//! plan_bench [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_plan.json)
//!   --check FILE  compare the plan-cache counters against a committed
//!                 baseline; exit non-zero on any difference.
//!                 Does not write unless --update is also given.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run itself asserts the contract the planner ships under: a plan
//! served from the cache must be ≥ 3× faster than planning cold (parse →
//! canonicalize → bind → rewrite → lower; 6–8× as measured, and as low as
//! 5.1× on a noisy run since cold planning stopped costing rewrites, so
//! the bar keeps the margin the old ≥ 5× had).  The cache's hit and miss
//! counts are exact and deterministic and are compared with the baseline;
//! wall times are recorded in the trajectory but never compared.

use std::fmt::Write as _;
use std::time::Instant;
use xtk_bench::{
    cold_store, extract_u64, gate_corpus, high_term, point_queries, store_image, Scale,
};
use xtk_core::plan::Planner;
use xtk_core::query::Query;
use xtk_core::request::QueryRequest;
use xtk_core::Semantics;
use xtk_index::disk::WriteIndexOptions;

/// The `query_io` pruning workload: mixed-depth conference-name ×
/// high-frequency-title pairs plus the index-heavy point queries.
fn pruning_queries(scale: Scale) -> Vec<Vec<String>> {
    let mut queries: Vec<Vec<String>> =
        (0..4).map(|i| vec![format!("conf{}", 17 * i), high_term(i)]).collect();
    queries.extend(point_queries(scale, 2, 4, 8));
    queries.extend(point_queries(scale, 2, 10, 8));
    queries
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_plan.json");
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

    eprintln!("plan_bench: building the DBLP benchmark corpus…");
    // The `query_io` corpus.
    let ix = gate_corpus(50_000, 200, 10, 30, 10_000);
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(&ix, opts).expect("write index");
    let store = cold_store(&image).expect("open store");

    let words = pruning_queries(Scale::Small);
    let queries: Vec<Query> = words
        .iter()
        .map(|w| Query::from_words(&ix, w).expect("workload term resolves"))
        .collect();
    let req = QueryRequest::complete(Semantics::Elca);

    // -- planning latency: cold pipeline vs plan-cache hit ------------
    // Every rep plans the whole query mix; the cold loop drops the
    // cache first so each spec is parsed, bound, rewritten and lowered
    // from scratch, the cached loop replays warm fingerprints.
    let planner = Planner::from_store(&ix, &store);
    let generation = ix.generation();
    const REPS: u32 = 50;
    let t = Instant::now();
    for _ in 0..REPS {
        planner.cache().clear();
        for q in &queries {
            let (_, src) = planner.spec_for(&ix, q, &req, generation, 0);
            assert_eq!(src.as_str(), "cold");
        }
    }
    let cold_ns = t.elapsed().as_nanos();
    for q in &queries {
        planner.spec_for(&ix, q, &req, generation, 0);
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for q in &queries {
            let (_, src) = planner.spec_for(&ix, q, &req, generation, 0);
            assert_eq!(src.as_str(), "cached");
        }
    }
    let cached_ns = t.elapsed().as_nanos();
    let per_query = |total: u128| total / (REPS as u128 * queries.len() as u128);
    let (cold_nsq, cached_nsq) = (per_query(cold_ns), per_query(cached_ns));
    let speedup = cold_nsq as f64 / (cached_nsq.max(1)) as f64;
    let cache_stats = planner.cache().stats();
    eprintln!(
        "plan_bench: planning {cold_nsq} ns/query cold vs {cached_nsq} ns/query cached ({speedup:.1}x)"
    );
    assert!(
        speedup >= 3.0,
        "plan-cache hits must be >=3x faster than cold planning: \
         cold {cold_nsq} ns/query, cached {cached_nsq} ns/query ({speedup:.1}x)"
    );

    let mut json = String::from("{\n  \"schema\": 1,\n  \"corpus\": \"dblp-bench\",\n");
    let _ = writeln!(
        json,
        "  \"planning\": {{\"queries\": {}, \"reps\": {REPS}, \"cold_ns_per_query\": {cold_nsq}, \"cached_ns_per_query\": {cached_nsq}, \"speedup\": {speedup:.1}, \"cache_hits\": {}, \"cache_misses\": {}}}",
        queries.len(),
        cache_stats.hits,
        cache_stats.misses,
    );
    json.push_str("}\n");
    let check_lines =
        [("cache_hits", cache_stats.hits), ("cache_misses", cache_stats.misses)];

    if let Some(baseline_path) = &check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("--check {baseline_path}: {e}"));
        let mut failed = false;
        for (key, value) in &check_lines {
            let Some(base) = extract_u64(&baseline, key) else {
                eprintln!("plan_bench: baseline lacks {key} — treating as new");
                continue;
            };
            let status = if *value != base { "DIFFERS" } else { "ok" };
            eprintln!("plan_bench: {key}: {value} vs baseline {base} {status}");
            failed |= *value != base;
        }
        if failed && !update {
            eprintln!("plan_bench: plan-cache counters differ from {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("plan_bench: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("plan_bench: wrote {out}");
    }
}
