//! Batched-serving benchmark: replays a mixed keyword workload with
//! realistic repeat skew against the on-disk engine, sequentially (one
//! [`Executor::execute`] per arrival) and batched
//! ([`BatchExecutor::run`]: dedup + generation-stamped result cache +
//! cross-query prefetch + parallel execution), and emits
//! `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_serve.json)
//!   --check FILE  compare the deterministic counters (decodes, result
//!                 cache misses, result counts) against a committed
//!                 baseline; exit non-zero on a >20 % regression.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run doubles as an acceptance test for the serving layer:
//!
//! * batched responses are **byte-identical** to the sequential replay
//!   (same nodes, levels, score bits, in arrival order);
//! * a second batched replay on a fresh store reproduces the decode and
//!   hit counters exactly (replay-stable scheduling);
//! * a warm replay through the same executor is served entirely from the
//!   result cache with **zero** further block decodes.
//!
//! Wall times (and the batched ÷ sequential speedup) are printed and
//! recorded for the trajectory but never gated — the `--check` keys are
//! the deterministic counters only; `perfbench/` is the timing authority.

use std::fmt::Write as _;
use std::time::Instant;
use xtk_bench::{
    cold_store, correlated_groups, equal_queries, extract_u64, gate_corpus, point_queries,
    skewed_schedule, store_image, Fingerprint, Scale,
};
use xtk_core::query::{Query, Semantics};
use xtk_core::{BatchExecutor, BatchItem, BatchOptions, DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::pool::Parallelism;
use xtk_index::bytes::ColumnBytes;
use xtk_index::disk::{FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

const TOTAL_ARRIVALS: usize = 240;
const BATCH_SIZE: usize = 48;
const SCHEDULE_SEED: u64 = 0xC0FFEE;

/// The distinct request mix: point/equal/correlated queries, complete-set
/// ELCA and top-5 SLCA, all through the disk-supported join engine.
fn distinct_items(ix: &XmlIndex) -> Vec<BatchItem> {
    let mut words: Vec<Vec<String>> = Vec::new();
    words.extend(point_queries(Scale::Small, 2, 10, 6));
    words.extend(point_queries(Scale::Small, 3, 100, 6));
    words.extend(equal_queries(3, 1_000, 6));
    words.extend(
        correlated_groups()
            .into_iter()
            .map(|(terms, _, _)| terms.into_iter().map(str::to_string).collect::<Vec<_>>()),
    );
    let complete = QueryRequest::complete(Semantics::Elca);
    let top5 = QueryRequest::top_k(5, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased);
    let mut items = Vec::new();
    for (i, w) in words.iter().enumerate() {
        let q = Query::from_words(ix, w).expect("workload term resolves");
        items.push(BatchItem::new(q, if i % 3 == 0 { top5 } else { complete }));
    }
    items
}

struct Leg {
    wall_ns: u128,
    decodes: u64,
    fp: Fingerprint,
    results: u64,
}

/// One request per arrival, in order — the baseline a server without a
/// batch layer pays.
fn run_sequential(ix: &XmlIndex, image: &ColumnBytes, items: &[BatchItem], schedule: &[usize]) -> Leg {
    let store = cold_store(image).expect("open store");
    let engine = DiskEngine::new(ix, &store);
    let mut fp = Fingerprint::new();
    let mut results = 0u64;
    let t = Instant::now();
    for &i in schedule {
        let item = &items[i];
        let resp = engine.execute(&item.query, &item.request).expect("disk execute");
        for r in &resp.results {
            fp.push(r.node.0);
            fp.push(r.level as u32);
            fp.push(r.score.to_bits());
        }
        results += resp.results.len() as u64;
    }
    Leg { wall_ns: t.elapsed().as_nanos(), decodes: store.reads(), fp, results }
}

struct BatchedLeg {
    leg: Leg,
    result_hits: u64,
    result_misses: u64,
    dedup_hits: u64,
    prefetch_pinned: u64,
}

/// The same arrival stream in batches of [`BATCH_SIZE`] through one
/// persistent [`BatchExecutor`].  Returns the executor too so the caller
/// can replay warm.
fn run_batched<'a>(
    ix: &'a XmlIndex,
    store: &'a DiskColumnStore,
    items: &[BatchItem],
    schedule: &[usize],
) -> (BatchedLeg, BatchExecutor<DiskEngine<'a>>) {
    let opts = BatchOptions { parallelism: Parallelism::Auto, ..Default::default() };
    let exec = BatchExecutor::with_options(DiskEngine::new(ix, store), opts);
    let mut fp = Fingerprint::new();
    let mut results = 0u64;
    let (mut hits, mut misses, mut dedups, mut pinned) = (0u64, 0u64, 0u64, 0u64);
    let t = Instant::now();
    for chunk in schedule.chunks(BATCH_SIZE) {
        let batch: Vec<BatchItem> = chunk.iter().map(|&i| items[i].clone()).collect();
        let report = exec.run(&batch).expect("batched execute");
        for resp in &report.responses {
            for r in &resp.results {
                fp.push(r.node.0);
                fp.push(r.level as u32);
                fp.push(r.score.to_bits());
            }
            results += resp.results.len() as u64;
        }
        hits += report.metrics.get("batch.result_hits");
        misses += report.metrics.get("batch.result_misses");
        dedups += report.metrics.get("batch.dedup_hits");
        pinned += report.metrics.get("batch.prefetch_pinned");
    }
    let leg = Leg { wall_ns: t.elapsed().as_nanos(), decodes: store.reads(), fp, results };
    (
        BatchedLeg { leg, result_hits: hits, result_misses: misses, dedup_hits: dedups, prefetch_pinned: pinned },
        exec,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_serve.json");
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

    eprintln!("serve_bench: building the serving corpus…");
    // Smaller than `query_io`'s (the interesting regime here is cross-query
    // reuse, not block-directory pressure), with the same planted bands so
    // the standard workload helpers resolve.
    let ix = gate_corpus(12_000, 120, 10, 25, 8_000);
    let image =
        store_image(&ix, WriteIndexOptions { include_scores: true, format: FormatVersion::V2 })
            .expect("write index image");

    let items = distinct_items(&ix);
    let schedule = skewed_schedule(items.len(), TOTAL_ARRIVALS, SCHEDULE_SEED);
    eprintln!(
        "serve_bench: {} arrivals over {} distinct requests",
        schedule.len(),
        items.len()
    );

    let seq = run_sequential(&ix, &image, &items, &schedule);

    let store = cold_store(&image).expect("open store");
    let (batched, exec) = run_batched(&ix, &store, &items, &schedule);

    // Correctness: batched output is byte-identical to the sequential
    // replay, arrival for arrival.
    assert_eq!(
        batched.leg.fp.0, seq.fp.0,
        "batched results diverge from sequential execution"
    );
    assert_eq!(batched.leg.results, seq.results);
    // Every distinct request the schedule actually touches executes
    // exactly once across the whole run (queries are pairwise distinct,
    // so no two items share a canonical class).
    let mut scheduled: Vec<usize> = schedule.clone();
    scheduled.sort_unstable();
    scheduled.dedup();
    assert_eq!(
        batched.result_misses,
        scheduled.len() as u64,
        "every scheduled distinct request should execute exactly once"
    );

    // Determinism: a second batched replay on a fresh store reproduces
    // the scheduling counters bit for bit.
    let store2 = cold_store(&image).expect("open store");
    let (replay, _) = run_batched(&ix, &store2, &items, &schedule);
    assert_eq!(replay.leg.fp.0, batched.leg.fp.0, "replay results diverge");
    assert_eq!(replay.leg.decodes, batched.leg.decodes, "replay decodes diverge");
    assert_eq!(replay.result_hits, batched.result_hits, "replay hit counts diverge");
    assert_eq!(replay.result_misses, batched.result_misses);
    assert_eq!(replay.prefetch_pinned, batched.prefetch_pinned);

    // Zero-decode hits: a warm replay of the whole schedule through the
    // same executor must be served from the result cache alone.
    let decodes_before = store.reads();
    let mut warm_hits = 0u64;
    for chunk in schedule.chunks(BATCH_SIZE) {
        let batch: Vec<BatchItem> = chunk.iter().map(|&i| items[i].clone()).collect();
        let report = exec.run(&batch).expect("warm replay");
        warm_hits += report.metrics.get("batch.result_hits");
    }
    assert_eq!(store.reads(), decodes_before, "warm result-cache hits must decode zero blocks");
    assert_eq!(warm_hits, schedule.len() as u64, "warm replay must be all result-cache hits");

    let speedup = seq.wall_ns as f64 / batched.leg.wall_ns.max(1) as f64;
    let seq_qps = schedule.len() as f64 / (seq.wall_ns.max(1) as f64 / 1e9);
    let batched_qps = schedule.len() as f64 / (batched.leg.wall_ns.max(1) as f64 / 1e9);
    let hit_rate = batched.result_hits as f64
        / (batched.result_hits + batched.dedup_hits + batched.result_misses).max(1) as f64;
    eprintln!(
        "serve_bench: sequential {seq_qps:.0} q/s, batched {batched_qps:.0} q/s ({speedup:.1}×), \
         decodes {} → {}, result-cache hit rate {:.0}%",
        seq.decodes,
        batched.leg.decodes,
        100.0 * hit_rate
    );

    let check_lines: Vec<(&str, u64)> = vec![
        ("chk_seq_decodes", seq.decodes),
        ("chk_batched_decodes", batched.leg.decodes),
        ("chk_result_misses", batched.result_misses),
        ("chk_results", seq.results),
    ];

    let mut json = String::from("{\n  \"schema\": 1,\n  \"corpus\": \"dblp-serve\",\n");
    let _ = writeln!(
        json,
        "  \"arrivals\": {}, \"distinct\": {},",
        schedule.len(),
        items.len()
    );
    let _ = writeln!(
        json,
        "  \"sequential\": {{\"wall_ns\": {}, \"decodes\": {}, \"qps\": {seq_qps:.0}}},",
        seq.wall_ns, seq.decodes
    );
    let _ = writeln!(
        json,
        "  \"batched\": {{\"wall_ns\": {}, \"decodes\": {}, \"qps\": {batched_qps:.0}, \
         \"result_hits\": {}, \"result_misses\": {}, \"dedup_hits\": {}, \
         \"prefetch_pinned\": {}, \"hit_rate\": {hit_rate:.3}}},",
        batched.leg.wall_ns,
        batched.leg.decodes,
        batched.result_hits,
        batched.result_misses,
        batched.dedup_hits,
        batched.prefetch_pinned
    );
    let _ = writeln!(json, "  \"speedup\": {speedup:.2},");
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
                eprintln!("serve_bench: baseline lacks {key} — treating as new");
                continue;
            };
            // >20 % above the committed baseline fails (decode and miss
            // counts are exact, so any drift is a real change).
            let limit = base + base.div_ceil(5);
            let status = if *value > limit { "REGRESSION" } else { "ok" };
            eprintln!("serve_bench: {key}: {value} vs baseline {base} (limit {limit}) {status}");
            if *value > limit {
                failed = true;
            }
        }
        if failed {
            eprintln!("serve_bench: counter regression against {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("serve_bench: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("serve_bench: wrote {out}");
    }
}
