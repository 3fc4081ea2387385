//! Sharded scatter-gather benchmark: replays a mixed top-K/complete
//! keyword workload against the same corpus partitioned into 1, 2, 4 and
//! 8 document shards, and emits `BENCH_shard.json`.
//!
//! ```text
//! shard_bench [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_shard.json)
//!   --check FILE  compare the deterministic counters (result counts,
//!                 block decodes, shards executed) against a committed
//!                 baseline; exit non-zero on a >20 % regression.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run doubles as an acceptance test for the sharding layer:
//!
//! * every topology produces **byte-identical** results (same nodes,
//!   levels, score bits, same order) — and all of them equal the
//!   unsharded engine's filtered reference answer;
//! * disabling the TA early-stop at one topology changes nothing, bit
//!   for bit (the merge threshold is a true upper bound);
//! * the TA merge actually prunes: at 8 shards, strictly fewer shard
//!   executions than the naive full scatter would pay.
//!
//! Wall times are recorded for the trajectory but never gated — the
//! `--check` keys are the deterministic counters only.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use xtk_bench::{
    correlated_groups, equal_queries, extract_u64, gate_corpus, point_queries, Fingerprint, Scale,
};
use xtk_core::pool::Parallelism;
use xtk_core::query::{Query, Semantics};
use xtk_core::result::sort_ranked;
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{Engine, Executor, QueryAlgorithm, QueryRequest};
use xtk_index::cache::ShardedLruCache;
use xtk_index::XmlIndex;
use xtk_xml::testutil::TempPath;

const TOPOLOGIES: [usize; 4] = [1, 2, 4, 8];
/// Passes over the workload per topology: pass 0 fingerprints, the rest
/// exercise the warm path so wall times amortize the cold decodes.
const PASSES: usize = 3;

/// The serving corpus of `serve_bench`.
fn build_corpus() -> XmlIndex {
    gate_corpus(12_000, 120, 10, 25, 8_000)
}

/// The distinct request mix: point/equal/correlated queries across small
/// and large k, ELCA and SLCA, plus complete sets (which gather every
/// shard and keep the prune accounting honest).
fn workload(ix: &XmlIndex) -> Vec<(Query, QueryRequest)> {
    let mut words: Vec<Vec<String>> = Vec::new();
    words.extend(point_queries(Scale::Small, 2, 10, 6));
    words.extend(point_queries(Scale::Small, 3, 100, 6));
    words.extend(equal_queries(3, 1_000, 6));
    words.extend(
        correlated_groups()
            .into_iter()
            .map(|(terms, _, _)| terms.into_iter().map(str::to_string).collect::<Vec<_>>()),
    );
    let mut work = Vec::new();
    for (i, w) in words.iter().enumerate() {
        let q = Query::from_words(ix, w).expect("workload term resolves");
        let req = match i % 4 {
            0 => QueryRequest::top_k(5, Semantics::Elca),
            1 => QueryRequest::top_k(2, Semantics::Slca),
            2 => QueryRequest::top_k(10, Semantics::Elca),
            _ => QueryRequest::complete(Semantics::Elca),
        };
        work.push((q, req));
    }
    work
}

struct TopoLeg {
    shards: usize,
    wall_ns: u128,
    fp: Fingerprint,
    results: u64,
    decodes: u64,
    executed: u64,
    pruned: u64,
}

/// Replays the workload [`PASSES`] times through one sharded engine and
/// accumulates the deterministic counters from the merged per-query
/// metrics (`store.decodes`, `shard.executed`, `shard.pruned`).
fn run_topology(engine: &ShardedEngine<'_>, work: &[(Query, QueryRequest)], shards: usize) -> TopoLeg {
    let mut fp = Fingerprint::new();
    let (mut results, mut decodes, mut executed, mut pruned) = (0u64, 0u64, 0u64, 0u64);
    let t = Instant::now();
    for pass in 0..PASSES {
        for (q, req) in work {
            let resp = engine.execute(q, req).expect("sharded execute");
            decodes += resp.metrics.get("store.decodes");
            executed += resp.metrics.get("shard.executed");
            pruned += resp.metrics.get("shard.pruned");
            if pass == 0 {
                for r in &resp.results {
                    fp.push(r.node.0);
                    fp.push(r.level as u32);
                    fp.push(r.score.to_bits());
                }
                results += resp.results.len() as u64;
            }
        }
    }
    TopoLeg { shards, wall_ns: t.elapsed().as_nanos(), fp, results, decodes, executed, pruned }
}

/// The unsharded reference answer stream: complete join, level-1 results
/// (partition artifacts the sharded engine cannot produce) filtered out,
/// ranked, truncated — fingerprinted in workload order.
fn reference_fingerprint(engine: &Engine, work: &[(Query, QueryRequest)]) -> (Fingerprint, u64) {
    let mut fp = Fingerprint::new();
    let mut results = 0u64;
    for (q, req) in work {
        let complete = QueryRequest::complete(req.semantics)
            .with_variant(req.variant)
            .with_algorithm(QueryAlgorithm::JoinBased);
        let mut rs: Vec<_> =
            engine.run(q, &complete).results.into_iter().filter(|r| r.level > 1).collect();
        sort_ranked(&mut rs);
        if let Some(k) = req.k {
            rs.truncate(k);
        }
        for r in &rs {
            fp.push(r.node.0);
            fp.push(r.level as u32);
            fp.push(r.score.to_bits());
        }
        results += rs.len() as u64;
    }
    (fp, results)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_shard.json");
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

    eprintln!("shard_bench: building the serving corpus…");
    let ix = build_corpus();
    let work = workload(&ix);
    eprintln!("shard_bench: {} distinct requests × {PASSES} passes per topology", work.len());

    let mut legs: Vec<TopoLeg> = Vec::new();
    for shards in TOPOLOGIES {
        let dir = TempPath::new(&format!("xtk_shard_bench_{shards}"));
        write_sharded(&ix, &dir, shards).expect("write sharded corpus");
        let engine = ShardedEngine::open_with_cache(&ix, &dir, Arc::new(ShardedLruCache::unbounded()))
            .expect("open sharded corpus")
            .with_parallelism(Parallelism::Auto);
        let leg = run_topology(&engine, &work, shards);
        eprintln!(
            "shard_bench: {shards} shard(s): {} decodes, {} executed, {} pruned, {:.1} ms",
            leg.decodes,
            leg.executed,
            leg.pruned,
            leg.wall_ns as f64 / 1e6
        );

        // The TA theorem, at the widest interesting topology: disabling
        // the early stop must change nothing, bit for bit.
        if shards == 4 {
            let naive =
                ShardedEngine::open_with_cache(&ix, &dir, Arc::new(ShardedLruCache::unbounded()))
                    .expect("open sharded corpus")
                    .with_pruning(false)
                    .with_parallelism(Parallelism::Auto);
            let full = run_topology(&naive, &work, shards);
            assert_eq!(full.fp.0, leg.fp.0, "TA early stop altered the merged answers");
            assert_eq!(full.results, leg.results);
            assert_eq!(full.pruned, 0, "pruning disabled yet shards were pruned");
            assert!(
                leg.executed <= full.executed,
                "the TA merge must never execute more shards than the naive scatter"
            );
        }
        legs.push(leg);
    }

    // Shard invariance: every topology fingerprints identically, and all
    // of them equal the unsharded engine's filtered reference.
    let engine = Engine::from_index(build_corpus());
    let (want_fp, want_results) = reference_fingerprint(&engine, &work);
    for leg in &legs {
        assert_eq!(
            leg.fp.0, want_fp.0,
            "{} shard(s) diverge from the unsharded reference",
            leg.shards
        );
        assert_eq!(leg.results, want_results, "{} shard(s): result count", leg.shards);
    }
    let single = legs.first().expect("at least one topology");
    let widest = legs.last().expect("at least one topology");
    assert!(
        widest.pruned > 0,
        "the TA merge never pruned a shard at {} shards — threshold too loose",
        widest.shards
    );

    let find = |n: usize| legs.iter().find(|l| l.shards == n).expect("topology ran");
    let check_lines: Vec<(&str, u64)> = vec![
        ("chk_results", want_results),
        ("chk_decodes_n4", find(4).decodes),
        ("chk_exec_shards_n4", find(4).executed),
        ("chk_exec_shards_n8", find(8).executed),
    ];

    let mut json = String::from("{\n  \"schema\": 1,\n  \"corpus\": \"dblp-serve\",\n");
    let _ = writeln!(json, "  \"queries\": {}, \"passes\": {PASSES},", work.len());
    json.push_str("  \"topologies\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        let qps = (work.len() * PASSES) as f64 / (leg.wall_ns.max(1) as f64 / 1e9);
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"wall_ns\": {}, \"qps\": {qps:.0}, \"decodes\": {}, \
             \"executed\": {}, \"pruned\": {}}}",
            leg.shards, leg.wall_ns, leg.decodes, leg.executed, leg.pruned
        );
        json.push_str(if i + 1 == legs.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"single_shard_wall_ns\": {}, \"widest_wall_ns\": {},",
        single.wall_ns, widest.wall_ns
    );
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
                eprintln!("shard_bench: baseline lacks {key} — treating as new");
                continue;
            };
            // >20 % above the committed baseline fails (decode and shard
            // execution counts are exact, so any drift is a real change).
            let limit = base + base.div_ceil(5);
            let status = if *value > limit { "REGRESSION" } else { "ok" };
            eprintln!("shard_bench: {key}: {value} vs baseline {base} (limit {limit}) {status}");
            if *value > limit {
                failed = true;
            }
        }
        if failed {
            eprintln!("shard_bench: counter regression against {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("shard_bench: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("shard_bench: wrote {out}");
    }
}
