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
    band_term, cold_store, correlated_groups, high_term, point_queries, store_image, Scale,
    TERMS_PER_BAND,
};
use xtk_core::plan::Planner;
use xtk_core::query::Query;
use xtk_core::request::QueryRequest;
use xtk_core::Semantics;
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_index::disk::{FormatVersion, WriteIndexOptions};
use xtk_index::XmlIndex;

/// The `query_io` benchmark corpus, rebuilt verbatim.
fn build_corpus() -> XmlIndex {
    let mut planted = Vec::new();
    for i in 0..4 {
        planted.push(PlantedTerm::new(high_term(i), 50_000));
    }
    for &f in &[4, 10, 100, 1_000, 10_000] {
        for i in 0..TERMS_PER_BAND {
            planted.push(PlantedTerm::new(band_term(f, i), f));
        }
    }
    for (terms, freqs, rho) in correlated_groups() {
        for (j, (&t, &f)) in terms.iter().zip(&freqs).enumerate() {
            if j == 0 {
                planted.push(PlantedTerm::new(t, f / 2));
            } else {
                planted.push(PlantedTerm::correlated(t, f / 2, terms[0], rho));
            }
        }
    }
    let cfg = DblpConfig {
        conferences: 200,
        years_per_conf: 10,
        papers_per_year: 30,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 10_000,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

/// The `query_io` pruning workload: mixed-depth conference-name ×
/// high-frequency-title pairs plus the index-heavy point queries.
fn pruning_queries(scale: Scale) -> Vec<Vec<String>> {
    let mut queries: Vec<Vec<String>> =
        (0..4).map(|i| vec![format!("conf{}", 17 * i), high_term(i)]).collect();
    queries.extend(point_queries(scale, 2, 4, 8));
    queries.extend(point_queries(scale, 2, 10, 8));
    queries
}

/// `"key": number` extraction from the flat baseline JSON.
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json.get(at..)?.trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest.get(..end)?.parse().ok()
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
    let ix = build_corpus();
    let opts = WriteIndexOptions { include_scores: true, format: FormatVersion::V3 };
    let image = store_image(&ix, opts).expect("write v3 index");
    let store = cold_store(&image).expect("open v3 store");

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
