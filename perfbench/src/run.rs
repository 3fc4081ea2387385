//! One run of one workload: generate → set up → warm → time → verify →
//! report.
//!
//! Time-based end-to-end metrics are reported at reference machine speed:
//! every set-up and every pass is rescaled by the yardstick readings taken
//! just before and just after it (see `speed`).  The times as measured
//! are printed beside them.
//!
//! Verification comes after the timed passes, and the peak-memory reading
//! between the two, so `peak_rss_mb` is the memory of the engine under
//! test and not of the reference engine that checks it.

use crate::corpus::{generate_corpus, Scale};
use crate::layers::{decode_probe, spec_cold_us, DecodeProbe};
use crate::measure::{
    cv, execute_text, median, percentile, run_pass, run_traced_pass, Counters, Pass,
};
use crate::ops::{op_list, OpList, Sizes};
use crate::scratch::{out_dir, Scratch};
use crate::setup::{
    threads, with_setup, Backend, Loaded, SetupConfig, StageTimes, RESULT_CACHE_ENTRIES, SHARDS,
};
use crate::spans::Recorder;
use crate::speed::{slowdown, slowdown_between, Yardstick};
use crate::verify::{check, fingerprint, Fingerprint, Mode};
use crate::{Args, Workload, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};
use xtk_core::Engine;
use xtk_index::cache::CacheStats;

/// Set-ups per untraced run; `setup_s` is their median.  Three where one
/// set-up already takes seconds (four shards are built and reopened).
fn setup_reps(w: Workload) -> usize {
    if w == Workload::ServeShard4 {
        3
    } else {
        5
    }
}

/// Untraced and traced passes of a traced run (alternating).
const TRACED_PASSES: usize = 3;
/// The cliff guards are enforced on runs with at least this many passes
/// (a full-scale run makes twenty or more) ...
const JUDGE_MIN_PASSES: usize = 15;
/// ... whose times as measured vary by less than this (a quiet run
/// reads 0.02–0.10, a run in a steal storm 0.2 and more).
const JUDGE_MAX_PASS_CV: f64 = 0.15;
/// `disk_cold`'s block cache holds this fraction of what an unbounded
/// cache would keep resident for the op list.
const DISK_CACHE_DIVISOR: u64 = 8;

/// Everything a run knows before it touches the engine.
struct Inputs<'a> {
    args: &'a Args,
    xml: &'a str,
    nodes: usize,
    ops: &'a OpList,
    datagen_s: f64,
    yard: &'a Yardstick,
}

/// The stages a set-up can have, in the order they run.
const STAGES: [&str; 6] = [
    "xml.parse",
    "index.build",
    "index.write",
    "index.open",
    "shard.write",
    "shard.open",
];

/// Seconds of one set-up: per stage (in `STAGES` order), then the whole.
#[derive(Clone, Copy)]
struct SetupSample {
    stage: [f64; STAGES.len()],
    total: f64,
}

impl SetupSample {
    fn of(t: &StageTimes) -> Self {
        SetupSample {
            stage: STAGES.map(|name| t.secs(name)),
            total: t.total_secs(),
        }
    }

    /// Field-wise median of the repetitions.
    fn median_of(samples: &[SetupSample]) -> Self {
        let mut stage = [0.0; STAGES.len()];
        for (i, s) in stage.iter_mut().enumerate() {
            *s = median(&samples.iter().map(|x| x.stage[i]).collect::<Vec<_>>());
        }
        SetupSample {
            stage,
            total: median(&samples.iter().map(|x| x.total).collect::<Vec<_>>()),
        }
    }

    /// This set-up as it would have run `slow` times faster.
    fn rescaled(&self, slow: f64) -> Self {
        SetupSample {
            stage: self.stage.map(|s| s / slow),
            total: self.total / slow,
        }
    }

    /// Seconds in the stage called `name`.
    fn secs(&self, name: &str) -> f64 {
        STAGES
            .iter()
            .position(|s| *s == name)
            .map_or(0.0, |i| self.stage[i])
    }

    /// `parse 0.04 build 0.52 …`, for the report.
    fn describe(&self) -> String {
        let parts: Vec<String> = STAGES
            .iter()
            .zip(self.stage)
            .map(|(n, s)| format!("{n} {s:.3}"))
            .collect();
        parts.join(" ")
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Latency statistics of the ops that did not fail.
struct Latency {
    p50_us: f64,
    p99_us: f64,
    p50_cliff: f64,
    p99_cliff: f64,
    samples: usize,
}

/// Per-op latency = median over passes, each pass divided by its entry
/// in `slow`; percentiles over the ops.
fn latency(passes: &[Pass], slow: &[f64], failed: &[bool]) -> Latency {
    let mut per_op: Vec<f64> = (0..failed.len())
        .filter(|&slot| !failed[slot])
        .map(|slot| {
            median(
                &passes
                    .iter()
                    .zip(slow)
                    .map(|(p, s)| p.op_ns[slot] as f64 / 1e3 / s)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    let ratio = |hi: f64, lo: f64| {
        let lo = percentile(&per_op, lo);
        if lo > 0.0 {
            percentile(&per_op, hi) / lo
        } else {
            0.0
        }
    };
    Latency {
        p50_us: percentile(&per_op, 50.0),
        p99_us: percentile(&per_op, 99.0),
        p50_cliff: ratio(55.0, 45.0),
        p99_cliff: ratio(99.5, 98.5),
        samples: per_op.len(),
    }
}

fn pass_secs(passes: &[Pass], slow: &[f64]) -> Vec<f64> {
    passes
        .iter()
        .zip(slow)
        .map(|(p, s)| p.wall_ns as f64 / 1e9 / s)
        .collect()
}

/// State shared by the warm pass, the timed passes and verification.
struct Checker {
    /// Fingerprint of each distinct request's answer, from the warm pass.
    warm: Vec<Option<Fingerprint>>,
    /// Schedule slots whose op failed at any point.
    failed: Vec<bool>,
    first_error: Option<String>,
    route_topk: u64,
    route_complete: u64,
}

impl Checker {
    fn new(ops: &OpList) -> Self {
        Checker {
            warm: vec![None; ops.texts.len()],
            failed: vec![false; ops.schedule.len()],
            first_error: None,
            route_topk: 0,
            route_complete: 0,
        }
    }

    fn fail(&mut self, slot: usize, why: &str) {
        self.failed[slot] = true;
        self.first_error
            .get_or_insert_with(|| format!("op {slot}: {why}"));
    }

    /// The warm pass doubles as the fingerprint pass: every answer to a
    /// request must be the same answer.
    fn warm_pass(&mut self, loaded: &Loaded<'_>, ops: &OpList) -> Pass {
        run_pass(loaded, ops, |slot, outcome| match outcome {
            Ok(response) => {
                let fp = fingerprint(&response.results);
                let text = ops.schedule[slot];
                self.route_topk += response.metrics.get("hybrid.route_topk");
                self.route_complete += response.metrics.get("hybrid.route_complete");
                match &self.warm[text] {
                    None => self.warm[text] = Some(fp),
                    Some(first) if *first != fp => {
                        self.fail(slot, "answer differs from an earlier one")
                    }
                    Some(_) => {}
                }
            }
            Err(e) => self.fail(slot, e),
        })
    }

    /// A timed pass checks only what is free to check: that the answer
    /// still has as many results as in the warm pass.
    fn timed_pass(&mut self, loaded: &Loaded<'_>, ops: &OpList) -> Pass {
        run_pass(loaded, ops, |slot, outcome| match outcome {
            Ok(response) => {
                let expected = self.warm[ops.schedule[slot]].as_ref().map(|f| f.len);
                if expected != Some(response.results.len()) {
                    self.fail(slot, "result count changed between passes");
                }
            }
            Err(e) => self.fail(slot, e),
        })
    }

    /// Executes every distinct request once more and checks it against
    /// the reference (see `verify`).
    fn verify(&mut self, inputs: &Inputs<'_>, loaded: &Loaded<'_>) -> Result<(), String> {
        let own;
        let (reference, mode): (&Engine, Mode) = match &loaded.backend {
            Backend::Memory(engine) => (engine, Mode::Memory),
            other => {
                own = Engine::from_xml(inputs.xml).map_err(|e| e.to_string())?;
                (
                    &own,
                    if matches!(other, Backend::Disk { .. }) {
                        Mode::Disk
                    } else {
                        Mode::Sharded
                    },
                )
            }
        };
        let mut bad = vec![false; inputs.ops.texts.len()];
        for (i, text) in inputs.ops.texts.iter().enumerate() {
            // The unpopular tail of a Zipf population may never arrive.
            if self.warm[i].is_none() {
                continue;
            }
            let outcome = execute_text(loaded, text).and_then(|response| {
                if Some(fingerprint(&response.results)) != self.warm[i] {
                    return Err("answer differs from the warm pass's".to_string());
                }
                check(reference, mode, text, &response.results)
            });
            if let Err(e) = outcome {
                bad[i] = true;
                self.first_error
                    .get_or_insert_with(|| format!("`{text}`: {e}"));
            }
        }
        for (slot, &text) in inputs.ops.schedule.iter().enumerate() {
            self.failed[slot] |= bad[text];
        }
        Ok(())
    }

    fn failed_count(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }
}

/// Conditions a workload must meet to be the workload its name promises;
/// what is collected here are the violated ones, and any fails the run.
#[derive(Default)]
struct Guards(Vec<String>);

impl Guards {
    fn require(&mut self, ok: bool, what: String) {
        if !ok {
            self.0.push(what);
        }
    }
}

/// The counter-derived shape of a workload, as both kinds of run see it.
struct Shape {
    route_topk_share: f64,
    cache_hit_rate: f64,
    evictions_per_op: f64,
    decodes_per_op: f64,
    result_hit_rate: f64,
}

fn cache_delta(before: Option<CacheStats>, after: Option<CacheStats>) -> CacheStats {
    match (before, after) {
        (Some(b), Some(a)) => CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            resident_blocks: a.resident_blocks,
            resident_bytes: a.resident_bytes,
        },
        _ => CacheStats::default(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The counted guards, which both kinds of run check.
fn shape_guards(g: &mut Guards, w: Workload, s: &Shape) {
    match w {
        Workload::MemTopk => g.require(
            s.route_topk_share >= 0.7,
            format!("hybrid.route_topk_share {:.3} < 0.7", s.route_topk_share),
        ),
        Workload::DiskCold => {
            g.require(
                (0.2..=0.7).contains(&s.cache_hit_rate),
                format!(
                    "store.cache_hit_rate {:.3} outside [0.2, 0.7]",
                    s.cache_hit_rate
                ),
            );
            g.require(
                s.evictions_per_op > 0.0,
                "cache.evictions_per_op is 0".into(),
            );
        }
        Workload::ServeShard4 => {
            g.require(
                s.decodes_per_op < 0.01,
                format!(
                    "store.decodes_per_op {:.4} after warm-up: the working set does not fit",
                    s.decodes_per_op
                ),
            );
            g.require(
                (0.3..=0.7).contains(&s.result_hit_rate),
                format!(
                    "batch.result_hit_rate {:.3} outside [0.3, 0.7]",
                    s.result_hit_rate
                ),
            );
        }
        Workload::MemComplete => {}
    }
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Pairs every declared metric with its value; a metric the run did not
/// compute is a bug in this file, not a zero.
fn tabulate<'a>(
    declared: &'a [(&'a str, &'a str)],
    values: &[(&str, f64)],
) -> Result<Vec<(&'a str, &'a str, f64)>, String> {
    declared
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not computed"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            Ok((name, unit, v))
        })
        .collect()
}

fn print_table(title: &str, rows: &[(&str, &str, f64)]) {
    eprintln!("{title}");
    for (name, unit, value) in rows {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
}

fn finish(
    inputs: &Inputs<'_>,
    checker: &Checker,
    guards: &Guards,
    rows: &[(&str, &str, f64)],
) -> Result<String, String> {
    if let Some(e) = &checker.first_error {
        eprintln!("FAILED OP: {e}");
    }
    if !inputs.args.smoke && !guards.0.is_empty() {
        // Not reshaped silently and not reported as a result: the
        // workload is no longer the one its name promises.
        return Err(format!(
            "workload-shape guard failed: {}",
            guards.0.join("; ")
        ));
    }
    let failed = checker.failed_count();
    Ok(json_line(
        failed == 0,
        inputs.ops.schedule.len(),
        failed,
        rows,
    ))
}

fn untraced(
    inputs: &Inputs<'_>,
    loaded: &Loaded<'_>,
    setups: &[SetupSample],
    setup_speed: &[f64],
) -> Result<String, String> {
    let (args, ops) = (inputs.args, inputs.ops);
    let stored = loaded.stored_bytes().map_err(|e| e.to_string())?;
    let mut checker = Checker::new(ops);
    let warm_s = checker.warm_pass(loaded, ops).wall_ns as f64 / 1e9;

    let cache_before = loaded.cache_stats();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    // One yardstick reading before the first pass and one after each.
    let mut speed = vec![inputs.yard.measure()];
    loop {
        passes.push(checker.timed_pass(loaded, ops));
        speed.push(inputs.yard.measure());
        if args.smoke || start.elapsed() >= budget {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let cache = cache_delta(cache_before, loaded.cache_stats());
    let rss = peak_rss_mb()?;

    let t = Instant::now();
    checker.verify(inputs, loaded)?;
    eprintln!(
        "  phases: datagen {:.2} s, warm pass {warm_s:.2} s, timed {timed_s:.2} s, verify {:.2} s",
        inputs.datagen_s,
        t.elapsed().as_secs_f64()
    );

    let unscaled = vec![1.0; passes.len()];
    let pass_slow = slowdown_between(&speed);
    let (lat, raw_lat) = (
        latency(&passes, &pass_slow, &checker.failed),
        latency(&passes, &unscaled, &checker.failed),
    );
    let (secs, raw_secs) = (
        pass_secs(&passes, &pass_slow),
        pass_secs(&passes, &unscaled),
    );
    let total_ops = (passes.len() * ops.schedule.len()) as f64;
    let raw_setup = SetupSample::median_of(setups);
    let setup = SetupSample::median_of(
        &setups
            .iter()
            .zip(slowdown_between(setup_speed))
            .map(|(s, slow)| s.rescaled(slow))
            .collect::<Vec<_>>(),
    );
    let mut batch = xtk_core::MetricsSnapshot::default();
    passes.iter().for_each(|p| batch.merge(&p.batch_metrics));
    let shape = Shape {
        route_topk_share: ratio(
            checker.route_topk as f64,
            (checker.route_topk + checker.route_complete) as f64,
        ),
        cache_hit_rate: ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        evictions_per_op: cache.evictions as f64 / total_ops,
        decodes_per_op: cache.misses as f64 / total_ops,
        result_hit_rate: ratio(
            batch.get("batch.result_hits") as f64,
            batch.get("batch.queries") as f64,
        ),
    };
    let mut guards = Guards::default();
    shape_guards(&mut guards, args.workload, &shape);
    // The timed guards are checked here only (a traced run's three passes
    // report the cliffs but are too few to refuse on), and only when the
    // run can judge them: a steal storm on the host stretches a few ops
    // of a few passes and would fail a well-shaped op list.
    if passes.len() >= JUDGE_MIN_PASSES && cv(&raw_secs) < JUDGE_MAX_PASS_CV {
        guards.require(
            lat.p50_cliff <= 1.25,
            format!(
                "bench.p50_cliff {:.3} > 1.25: p50 sits on a class boundary",
                lat.p50_cliff
            ),
        );
        guards.require(
            lat.p99_cliff <= 1.35,
            format!(
                "bench.p99_cliff {:.3} > 1.35: p99 sits on a class boundary",
                lat.p99_cliff
            ),
        );
    } else if !args.smoke {
        eprintln!(
            "GUARD not judged: {} passes with cv {:.3} are too few or too unsteady for \
             bench.p50_cliff {:.3} (≤ 1.25) and bench.p99_cliff {:.3} (≤ 1.35)",
            passes.len(),
            cv(&raw_secs),
            lat.p50_cliff,
            lat.p99_cliff,
        );
    }
    // On the time as measured: the guard is about the clock's resolution,
    // and a slow machine only lengthens it.
    guards.require(
        raw_setup.total >= 0.5,
        format!("setup_s {:.3} < 0.5 s as measured", raw_setup.total),
    );

    let values = [
        ("setup_s", setup.total),
        ("ops_per_s", ops.schedule.len() as f64 / median(&secs)),
        ("lat_p50_us", lat.p50_us),
        ("lat_p99_us", lat.p99_us),
        ("peak_rss_mb", rss),
        (
            "stored_bytes_per_xml_byte",
            stored as f64 / inputs.xml.len() as f64,
        ),
    ];
    let rows = tabulate(END_TO_END, &values)?;
    print_table("end-to-end (times at reference machine speed):", &rows);
    let (early, late) = speed.split_at(speed.len() / 2);
    eprintln!(
        "  raw: setup_s {:.4} ops_per_s {:.4} lat_p50_us {:.4} lat_p99_us {:.4}; machine slowdown \
         {:.4} during set-up ({} readings), {:.4} during the passes ({} readings, second half ÷ \
         first half {:.4})",
        raw_setup.total,
        ops.schedule.len() as f64 / median(&raw_secs),
        raw_lat.p50_us,
        raw_lat.p99_us,
        slowdown(setup_speed),
        setup_speed.len(),
        slowdown(&speed),
        speed.len(),
        ratio(slowdown(late), slowdown(early)),
    );
    eprintln!(
        "  passes {} (median {:.4} s, cv {:.4}; as measured {:.4} s, cv {:.4}); latency samples {}; \
         set-ups {} ({})",
        passes.len(),
        median(&secs),
        cv(&secs),
        median(&raw_secs),
        cv(&raw_secs),
        lat.samples,
        setups.len(),
        setup.describe(),
    );
    eprintln!(
        "  pass seconds as measured: {}",
        raw_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "  shape: route_topk_share {:.3} cache_hit_rate {:.3} evictions/op {:.3} decodes/op {:.4} \
         result_hit_rate {:.3} p50_cliff {:.3} p99_cliff {:.3} stored {stored} B",
        shape.route_topk_share,
        shape.cache_hit_rate,
        shape.evictions_per_op,
        shape.decodes_per_op,
        shape.result_hit_rate,
        lat.p50_cliff,
        lat.p99_cliff,
    );
    finish(inputs, &checker, &guards, &rows)
}

fn traced(
    inputs: &Inputs<'_>,
    loaded: &Loaded<'_>,
    times: &StageTimes,
    scratch: &Scratch,
) -> Result<String, String> {
    let (args, ops) = (inputs.args, inputs.ops);
    let mut rec = Recorder::starting_at(times.stages.first().map_or_else(Instant::now, |s| s.1));
    let setup_span = rec.open(0, 0, "setup", 0);
    for &(name, from, to) in &times.stages {
        let (from, to) = (rec.at(from), rec.at(to));
        rec.push(setup_span, 0, name, from, to);
        rec.close(setup_span, to);
    }
    let setup = SetupSample::of(times);
    let stored = loaded.stored_bytes().map_err(|e| e.to_string())?;

    let mut checker = Checker::new(ops);
    checker.warm_pass(loaded, ops);

    let mut speed = vec![inputs.yard.measure()];
    let plan_before = loaded.planner().cache().stats();
    let mut counters = Counters::default();
    let mut evictions = 0u64;
    let (mut plain, mut traced_secs) = (Vec::new(), Vec::new());
    let mut next_request = 0u32;
    for _ in 0..if args.smoke { 1 } else { TRACED_PASSES } {
        plain.push(checker.timed_pass(loaded, ops));
        let before = loaded.cache_stats();
        let ns = run_traced_pass(loaded, ops, &mut rec, &mut counters, &mut next_request)?;
        traced_secs.push(ns as f64 / 1e9);
        speed.push(inputs.yard.measure());
        evictions += cache_delta(before, loaded.cache_stats()).evictions;
    }
    let resident_bytes = loaded.cache_stats().map_or(0, |c| c.resident_bytes);
    let plan_after = loaded.planner().cache().stats();

    let probe = match loaded.backend {
        Backend::Memory(_) => DecodeProbe::default(),
        _ => decode_probe(loaded, ops).map_err(|e| e.to_string())?,
    };
    let spec_cold = spec_cold_us(loaded, ops)?;
    checker.verify(inputs, loaded)?;

    let n = counters.ops as f64;
    let e = |name: &str| counters.exec.get(name) as f64;
    let b = |name: &str| counters.batch.get(name) as f64;
    let span_us = |name: &str| {
        median(
            &rec.durations(name)
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let exec_ns: f64 = rec.durations("exec").iter().map(|&ns| ns as f64).sum();
    let serving = args.workload == Workload::ServeShard4;
    let spec_hit = span_us("plan.spec");
    // One execution is not visible from outside the batch layer: there,
    // batch wall time per executed request.
    let run_us = if serving {
        ratio(exec_ns / 1e3, b("batch.executed"))
    } else {
        span_us("exec")
    };
    let pool_tasks = e("pool.join_tasks")
        + e("pool.probe_tasks")
        + e("pool.match_items")
        + e("pool.refill_tasks")
        + if serving && threads() > 1 {
            b("batch.result_misses")
        } else {
            0.0
        };
    // Ratios and shares only: the traced run's times are as measured.
    let unscaled = vec![1.0; plain.len()];
    let lat = latency(&plain, &unscaled, &checker.failed);
    let plain_secs = pass_secs(&plain, &unscaled);
    let shape = Shape {
        route_topk_share: ratio(
            e("hybrid.route_topk"),
            e("hybrid.route_topk") + e("hybrid.route_complete"),
        ),
        cache_hit_rate: ratio(
            e("store.cache_hits"),
            e("store.cache_hits") + e("store.cache_misses"),
        ),
        evictions_per_op: ratio(evictions as f64, n),
        decodes_per_op: ratio(e("store.decodes"), n),
        result_hit_rate: ratio(b("batch.result_hits"), b("batch.queries")),
    };
    let plan_lookups =
        (plan_after.hits - plan_before.hits) + (plan_after.misses - plan_before.misses);

    let values = [
        ("xml.parse_s", setup.secs("xml.parse")),
        ("index.build_s", setup.secs("index.build")),
        ("index.write_s", setup.secs("index.write")),
        ("index.open_s", setup.secs("index.open")),
        ("index.file_bytes", stored as f64),
        ("index.bytes_per_node", stored as f64 / inputs.nodes as f64),
        ("index.decode_ns_per_row", probe.ns_per_row),
        ("index.decode_rows_per_block", probe.rows_per_block),
        ("index.find_us", probe.find_us),
        ("store.decodes_per_op", shape.decodes_per_op),
        ("store.cache_hit_rate", shape.cache_hit_rate),
        ("cache.evictions_per_op", shape.evictions_per_op),
        (
            "cache.resident_mb",
            resident_bytes as f64 / (1 << 20) as f64,
        ),
        ("plan.parse_us", span_us("plan.parse")),
        ("plan.bind_us", span_us("plan.bind")),
        ("plan.spec_cold_us", spec_cold),
        ("plan.spec_hit_us", spec_hit),
        (
            "plan.cache_hit_rate",
            ratio(
                (plan_after.hits - plan_before.hits) as f64,
                plan_lookups as f64,
            ),
        ),
        ("exec.run_us", run_us),
        ("exec.self_us", (run_us - spec_hit).max(0.0)),
        ("join.levels_per_op", ratio(e("join.levels"), n)),
        ("join.merge_joins_per_op", ratio(e("join.merge_joins"), n)),
        ("join.index_joins_per_op", ratio(e("join.index_joins"), n)),
        ("join.matches_per_op", ratio(e("join.matches"), n)),
        ("join.results_per_op", ratio(e("join.results"), n)),
        ("exec.ns_per_join_match", ratio(exec_ns, e("join.matches"))),
        (
            "topk.rows_retrieved_per_op",
            ratio(e("topk.rows_retrieved"), n),
        ),
        ("topk.candidates_per_op", ratio(e("topk.candidates"), n)),
        (
            "topk.rows_per_result",
            ratio(e("topk.rows_retrieved"), counters.topk_results as f64),
        ),
        (
            "topk.emitted_early_share",
            ratio(e("topk.emitted_early"), counters.topk_results as f64),
        ),
        ("starjoin.inserts_per_op", ratio(e("starjoin.inserts"), n)),
        (
            "starjoin.completions_per_op",
            ratio(e("starjoin.completions"), n),
        ),
        ("hybrid.route_topk_share", shape.route_topk_share),
        (
            "batch.dedup_share",
            ratio(b("batch.dedup_hits"), b("batch.queries")),
        ),
        ("batch.result_hit_rate", shape.result_hit_rate),
        (
            "batch.executed_per_arrival",
            ratio(b("batch.executed"), b("batch.queries")),
        ),
        (
            "batch.prefetch_pinned_per_batch",
            ratio(b("batch.prefetch_pinned"), counters.batches as f64),
        ),
        ("batch.wall_us", if serving { span_us("exec") } else { 0.0 }),
        ("shard.executed_per_op", ratio(e("shard.executed"), n)),
        ("shard.pruned_per_op", ratio(e("shard.pruned"), n)),
        ("shard.waves_per_op", ratio(e("shard.waves"), n)),
        (
            "shard.decodes_per_op",
            if serving { shape.decodes_per_op } else { 0.0 },
        ),
        ("shard.write_s", setup.secs("shard.write")),
        ("shard.open_s", setup.secs("shard.open")),
        ("pool.tasks_per_op", ratio(pool_tasks, n)),
        (
            "obs.trace_overhead",
            ratio(median(&traced_secs), median(&plain_secs)),
        ),
        ("bench.machine_slowdown", slowdown(&speed)),
        ("bench.datagen_s", inputs.datagen_s),
        ("bench.passes", plain.len() as f64),
        ("bench.pass_cv", cv(&plain_secs)),
        ("bench.p50_cliff", lat.p50_cliff),
        ("bench.p99_cliff", lat.p99_cliff),
    ];
    let rows = tabulate(PER_LAYER, &values)?;
    print_table(
        "per-layer (traced run; times as measured, not rescaled):",
        &rows,
    );

    let mut guards = Guards::default();
    shape_guards(&mut guards, args.workload, &shape);
    let coverage = rec.min_coverage()?;
    guards.require(
        coverage >= 0.95,
        format!("children cover only {coverage:.3} of a request/setup span"),
    );

    let name = if args.smoke { "-smoke" } else { "" };
    let published = out_dir().join(format!("trace-{}{name}.jsonl", args.workload.name()));
    let staged = scratch.path("trace.jsonl");
    // Written whole, then renamed: a reader never sees half a trace.
    rec.write_jsonl(&staged)
        .and_then(|()| std::fs::rename(&staged, &published))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "  {} spans (coverage ≥ {coverage:.3}) -> {}",
        rec.spans.len(),
        published.display()
    );
    finish(inputs, &checker, &guards, &rows)
}

pub fn run(args: &Args) -> Result<String, String> {
    let (scale, sizes) = if args.smoke {
        (Scale::Smoke, Sizes::SMOKE)
    } else {
        (Scale::Full, Sizes::FULL)
    };
    let t = Instant::now();
    let corpus = generate_corpus(scale, args.seed);
    let ops = op_list(args.workload, sizes, args.seed);
    let datagen_s = t.elapsed().as_secs_f64();
    eprintln!(
        "workload {} seed {} seconds {} trace {}: {} nodes, {} XML bytes, {} ops/pass ({} distinct, \
         batches of {}), op-list hash {:016x}, {} thread(s), one closed-loop client",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        corpus.nodes,
        corpus.xml.len(),
        ops.schedule.len(),
        ops.texts.len(),
        ops.batch,
        ops.hash(),
        if args.workload == Workload::ServeShard4 { threads() } else { 1 },
    );

    let scratch = Scratch::create().map_err(|e| e.to_string())?;
    let yard = Yardstick::new();
    let inputs = Inputs {
        args,
        xml: &corpus.xml,
        nodes: corpus.nodes,
        ops: &ops,
        datagen_s,
        yard: &yard,
    };
    let io = |e: std::io::Error| e.to_string();
    let mut cfg = SetupConfig {
        workload: args.workload,
        disk_cache_bytes: None,
        batch_trace: args.trace,
    };
    let mut setups = Vec::new();
    // One yardstick reading before the first set-up and one after each.
    let mut setup_speed = vec![yard.measure()];
    match args.workload {
        Workload::DiskCold => {
            // The first set-up opens the store under an unbounded cache
            // and serves every request once: what stays resident sizes
            // the cache of the set-ups that follow.
            let (sample, resident) = with_setup(&cfg, &corpus.xml, &scratch, |loaded, t| {
                for text in &ops.texts {
                    execute_text(loaded, text)?;
                }
                Ok::<_, String>((SetupSample::of(t), loaded.cache_stats().unwrap_or_default()))
            })
            .map_err(io)??;
            setups.push(sample);
            setup_speed.push(yard.measure());
            let bytes = (resident.resident_bytes / DISK_CACHE_DIVISOR).max(1);
            cfg.disk_cache_bytes = Some(bytes as usize);
            eprintln!(
                "  block cache: {bytes} B = 1/{DISK_CACHE_DIVISOR} of the {} B ({} blocks) an unbounded cache keeps resident",
                resident.resident_bytes, resident.resident_blocks
            );
        }
        Workload::ServeShard4 => eprintln!(
            "  {SHARDS} shards, one shared block cache of {} blocks, result cache of {RESULT_CACHE_ENTRIES} entries",
            xtk_index::cache::DEFAULT_CAPACITY_BLOCKS
        ),
        _ => {}
    }
    if !args.trace {
        while setups.len() + 1 < setup_reps(args.workload) {
            setups.push(
                with_setup(&cfg, &corpus.xml, &scratch, |_, t| SetupSample::of(t)).map_err(io)?,
            );
            setup_speed.push(yard.measure());
        }
    }
    with_setup(&cfg, &corpus.xml, &scratch, |loaded, times| {
        if args.trace {
            traced(&inputs, loaded, times, &scratch)
        } else {
            setups.push(SetupSample::of(times));
            setup_speed.push(yard.measure());
            untraced(&inputs, loaded, &setups, &setup_speed)
        }
    })
    .map_err(io)?
}
