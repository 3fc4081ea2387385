//! `xtk-perfbench` — the timing authority for xtk.
//!
//! ```text
//! xtk-perfbench --workload W [--seed N=1] [--seconds S] [--trace 0|1] [--smoke]
//! xtk-perfbench --repeat N [--seed N=1] [--seconds S] [--busy]
//! ```
//!
//! `S` defaults to `run_seconds` of `BENCHMARK.json`.
//!
//! One invocation runs one workload once: it generates the inputs from
//! the seed, sets the engine up, replays the op list for `S` seconds of
//! whole passes, checks every answer, and prints one JSON object as the
//! last line of standard output (everything else goes to standard
//! error).  `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics and writes `perfbench-out/trace-<workload>.jsonl`.
//! See `README.md` for what every name means.

mod contract;
mod corpus;
mod layers;
mod measure;
mod ops;
mod repeat;
mod run;
mod scratch;
mod setup;
mod spans;
mod speed;
mod verify;

use std::process::ExitCode;

/// The four workloads.  The names are permanent: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemTopk,
    MemComplete,
    DiskCold,
    ServeShard4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MemTopk,
        Workload::MemComplete,
        Workload::DiskCold,
        Workload::ServeShard4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemTopk => "mem_topk",
            Workload::MemComplete => "mem_complete",
            Workload::DiskCold => "disk_cold",
            Workload::ServeShard4 => "serve_shard4",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics `(name, unit)` — the same six on every workload,
/// reported by `--trace 0`.  Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_xml_byte", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_s", "s"),
    ("index.build_s", "s"),
    ("index.write_s", "s"),
    ("index.open_s", "s"),
    ("index.file_bytes", "B"),
    ("index.bytes_per_node", "B"),
    ("index.decode_ns_per_row", "ns"),
    ("index.decode_rows_per_block", "count"),
    ("index.find_us", "us"),
    ("store.decodes_per_op", "count"),
    ("store.cache_hit_rate", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("cache.resident_mb", "MB"),
    ("plan.parse_us", "us"),
    ("plan.bind_us", "us"),
    ("plan.spec_cold_us", "us"),
    ("plan.spec_hit_us", "us"),
    ("plan.cache_hit_rate", "ratio"),
    ("exec.run_us", "us"),
    ("exec.self_us", "us"),
    ("join.levels_per_op", "count"),
    ("join.merge_joins_per_op", "count"),
    ("join.index_joins_per_op", "count"),
    ("join.matches_per_op", "count"),
    ("join.results_per_op", "count"),
    ("exec.ns_per_join_match", "ns"),
    ("topk.rows_retrieved_per_op", "count"),
    ("topk.candidates_per_op", "count"),
    ("topk.rows_per_result", "ratio"),
    ("topk.emitted_early_share", "ratio"),
    ("starjoin.inserts_per_op", "count"),
    ("starjoin.completions_per_op", "count"),
    ("hybrid.route_topk_share", "ratio"),
    ("batch.dedup_share", "ratio"),
    ("batch.result_hit_rate", "ratio"),
    ("batch.executed_per_arrival", "ratio"),
    ("batch.prefetch_pinned_per_batch", "count"),
    ("batch.wall_us", "us"),
    ("shard.executed_per_op", "count"),
    ("shard.pruned_per_op", "count"),
    ("shard.waves_per_op", "count"),
    ("shard.decodes_per_op", "count"),
    ("shard.write_s", "s"),
    ("shard.open_s", "s"),
    ("pool.tasks_per_op", "count"),
    ("obs.trace_overhead", "ratio"),
    ("bench.machine_slowdown", "ratio"),
    ("bench.datagen_s", "s"),
    ("bench.passes", "count"),
    ("bench.pass_cv", "ratio"),
    ("bench.p50_cliff", "ratio"),
    ("bench.p99_cliff", "ratio"),
];

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

enum Command {
    Run(Args),
    Repeat(repeat::RepeatArgs),
}

const USAGE: &str = "usage: xtk-perfbench --workload mem_topk|mem_complete|disk_cold|serve_shard4 \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       xtk-perfbench --repeat N [--seed N] [--seconds S] [--busy]";

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds) = (None, 1u64, None);
    let (mut trace, mut smoke, mut repeat, mut busy) = (false, false, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seconds takes a whole number")?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            "--repeat" => repeat = Some(value()?.parse().map_err(|_| "--repeat takes a count")?),
            "--busy" => busy = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = match seconds {
        Some(s) => s,
        None => contract::Contract::read()?.run_seconds()?,
    };
    match (repeat, workload) {
        (Some(sets), None) if sets > 0 => Ok(Command::Repeat(repeat::RepeatArgs {
            sets,
            seconds,
            seed,
            busy,
        })),
        (None, Some(workload)) => Ok(Command::Run(Args {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        })),
        _ => Err("give either --workload or --repeat".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Run(args)) => run::run(&args).map(|json| println!("{json}")),
        Ok(Command::Repeat(args)) => repeat::repeat(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtk-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
