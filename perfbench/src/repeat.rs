//! `--repeat N`: the noise report.  Runs N complete sets of the four
//! workloads on one seed, each run a child process of its own (so
//! `peak_rss_mb` is that run's), alternating the workload order between
//! sets, and prints a markdown table per workload: every set's value, the
//! median, the quartiles, and the spreads next to the metric's regression
//! bound (read from `BENCHMARK.json`).

use crate::contract::Contract;
use crate::measure::median;
use crate::{Workload, END_TO_END, PER_LAYER};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method) — the rule the benchmark is accepted by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// One child run: its end-to-end values in `END_TO_END` order, plus the
/// pass count it printed.
struct RunResult {
    values: Vec<f64>,
    /// The time-based metrics as measured, before rescaling to reference
    /// machine speed (absent for the metrics that are not times).
    raw: Vec<Option<f64>>,
    passes: String,
}

fn metric_value(json: &str, name: &str) -> Option<f64> {
    let rest = &json[json.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Runs one workload in a child process; returns its result line and
/// what it wrote to standard error.
fn spawn(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(format!("{} seed {seed} failed:\n{stderr}", workload.name()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.lines().last().unwrap_or("").to_string();
    if !json.contains("\"correct\": true") {
        return Err(format!(
            "{} seed {seed} was not correct: {json}",
            workload.name()
        ));
    }
    Ok((json, stderr))
}

fn run_child(workload: Workload, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let (json, stderr) = spawn(workload, seed, seconds, false)?;
    let json = json.as_str();
    let values = END_TO_END
        .iter()
        .map(|(name, _)| metric_value(json, name).ok_or_else(|| format!("no {name} in {json}")))
        .collect::<Result<_, _>>()?;
    let raw_line = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("raw: "))
        .unwrap_or("");
    let raw = END_TO_END
        .iter()
        .map(|(name, _)| {
            let mut words = raw_line.split_whitespace().skip_while(|w| w != name);
            words
                .nth(1)
                .and_then(|v| v.trim_end_matches(';').parse().ok())
        })
        .collect();
    let passes = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("passes "))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("?")
        .to_string();
    Ok(RunResult {
        values,
        raw,
        passes,
    })
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

pub struct RepeatArgs {
    pub sets: usize,
    pub seconds: u64,
    /// Every set replays the same inputs, so only the machine varies.
    pub seed: u64,
    /// Spin one core for the whole report.
    pub busy: bool,
}

pub fn repeat(args: &RepeatArgs) -> Result<(), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if args.busy {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let report = report(args);
        stop.store(true, Ordering::Relaxed);
        report
    })
}

/// `(q3 − q1) ÷ median`, and how far the medians of the first and the
/// second half of the sets lie apart: do two sets of runs of the same
/// code agree?
fn spreads(values: &[f64]) -> (f64, f64) {
    let (q1, _, q3) = quartiles(values);
    let (a, b) = values.split_at(values.len() / 2);
    let halves = if a.is_empty() {
        0.0
    } else {
        (median(a) - median(b)).abs() / median(a)
    };
    ((q3 - q1) / median(values), halves)
}

fn report(args: &RepeatArgs) -> Result<(), String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let contract = Contract::read()?;
    println!(
        "## {} sets x {} s, seed {}, {}",
        args.sets,
        args.seconds,
        args.seed,
        if args.busy {
            "a busy loop on one core beside"
        } else {
            "nothing else running"
        },
    );
    println!();
    println!("nproc {nproc}, load average at start: {}", loadavg());
    let mut runs: Vec<Vec<RunResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for set in 0..args.sets {
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!(
                "set {} of {}: {}",
                set + 1,
                args.sets,
                Workload::ALL[w].name()
            );
            runs[w].push(run_child(Workload::ALL[w], args.seed, args.seconds)?);
        }
    }
    println!("load average at end: {}", loadavg());
    for (w, results) in Workload::ALL.iter().zip(&runs) {
        println!();
        println!(
            "### {} (passes per set: {})",
            w.name(),
            results
                .iter()
                .map(|r| r.passes.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!();
        let sets: Vec<String> = (1..=args.sets).map(|i| format!("set {i}")).collect();
        println!(
            "| metric | {} | median | q1 | q3 | (q3-q1)/median | (max-min)/min | halves | bound | spread/bound | as measured: (q3-q1)/median, halves |",
            sets.join(" | ")
        );
        println!(
            "|---|{}---|---|---|---|---|---|---|---|---|",
            "---|".repeat(args.sets)
        );
        for (m, (name, _)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = results.iter().map(|r| r.values[m]).collect();
            let (q1, _, q3) = quartiles(&values);
            let med = median(&values);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let (iqr, halves) = spreads(&values);
            let raw: Vec<f64> = results.iter().filter_map(|r| r.raw[m]).collect();
            let as_measured = if raw.len() == values.len() {
                let (iqr, halves) = spreads(&raw);
                format!("{:.2} %, {:.2} %", iqr * 100.0, halves * 100.0)
            } else {
                "same".to_string()
            };
            let bound = contract
                .bound(name)
                .ok_or_else(|| format!("BENCHMARK.json gives {name} no bound"))?;
            println!(
                "| {name} | {} | {med:.4} | {q1:.4} | {q3:.4} | {:.2} % | {:.2} % | {:.2} % | {:.1} % | {:.2} | {as_measured} |",
                values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" | "),
                iqr * 100.0,
                (max - min) / min * 100.0,
                halves * 100.0,
                bound * 100.0,
                iqr / bound,
            );
        }
    }
    per_layer_table(args)
}

/// One traced run of every workload: every per-layer metric by name.
fn per_layer_table(args: &RepeatArgs) -> Result<(), String> {
    let mut columns = Vec::new();
    for w in Workload::ALL {
        eprintln!("traced run: {} seed {}", w.name(), args.seed);
        columns.push(spawn(w, args.seed, args.seconds, true)?.0);
    }
    println!();
    println!(
        "### per-layer metrics (one traced run each, seed {}; times as measured)",
        args.seed
    );
    println!();
    println!(
        "| metric | unit | {} |",
        Workload::ALL.map(Workload::name).join(" | ")
    );
    println!("|---|---|{}", "---|".repeat(columns.len()));
    for (name, unit) in PER_LAYER {
        let cells: Vec<String> = columns
            .iter()
            .map(|json| metric_value(json, name).map_or("?".to_string(), |v| format!("{v:.4}")))
            .collect();
        println!("| {name} | {unit} | {} |", cells.join(" | "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]), (1.0, 3.5, 6.0));
    }

    #[test]
    fn metric_values_parse_from_the_result_line() {
        let json = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 1239.25, "unit": "op/s"}}}"#;
        assert_eq!(metric_value(json, "setup_s"), Some(0.5));
        assert_eq!(metric_value(json, "ops_per_s"), Some(1239.25));
        assert_eq!(metric_value(json, "lat_p50_us"), None);
    }
}
