//! Smoke and determinism tests: every workload at `--smoke` scale (a tiny
//! corpus, one pass), checked against the contract in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["mem_topk", "mem_complete", "disk_cold", "serve_shard4"];
const SERIAL: [&str; 3] = ["mem_topk", "mem_complete", "disk_cold"];

/// One finished run of the benchmark binary.
struct Run {
    /// Metric name → (value, unit), from the result line.
    metrics: BTreeMap<String, (f64, String)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    stderr: String,
    pid: u32,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .0
    }

    fn op_list_hash(&self) -> String {
        let at = self
            .stderr
            .find("op-list hash ")
            .expect("header names the op-list hash");
        self.stderr[at + 13..at + 29].to_string()
    }
}

/// The text between `open` and its matching `close`, starting at `from`.
fn balanced(s: &str, from: usize, open: char, close: char) -> &str {
    let start = from + s[from..].find(open).expect("opening bracket");
    let mut depth = 0usize;
    for (i, c) in s[start..].char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return &s[start + 1..start + i];
            }
        }
    }
    panic!("unbalanced {open}{close}");
}

fn string_field(object: &str, key: &str) -> String {
    let at = object
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = &object[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
}

fn number_field(object: &str, key: &str) -> f64 {
    let at = object
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = object[at + key.len() + 2..].trim_start_matches([':', ' ']);
    let end = rest.find([',', '}', ' ']).unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number in {object}"))
}

fn parse_result_line(line: &str) -> (bool, u64, u64, BTreeMap<String, (f64, String)>) {
    let mut metrics = BTreeMap::new();
    let body = balanced(
        line,
        line.find("\"metrics\"").expect("metrics key"),
        '{',
        '}',
    );
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let name_end = q + 1 + rest[q + 1..].find('"').expect("closing quote");
        let name = rest[q + 1..name_end].to_string();
        let object = balanced(rest, name_end, '{', '}');
        metrics.insert(
            name,
            (number_field(object, "value"), string_field(object, "unit")),
        );
        let consumed = rest[name_end..].find('}').expect("object end") + name_end + 1;
        rest = &rest[consumed..];
    }
    (
        line.contains("\"correct\": true"),
        number_field(line, "attempted") as u64,
        number_field(line, "failed") as u64,
        metrics,
    )
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let child = Command::new(env!("CARGO_BIN_EXE_xtk-perfbench"))
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the benchmark binary starts");
    let pid = child.id();
    let out = child.wait_with_output().expect("the benchmark binary ends");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let (correct, attempted, failed, metrics) = parse_result_line(line);
    Run {
        metrics,
        correct,
        attempted,
        failed,
        stderr,
        pid,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let at = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section}"));
    let list = balanced(&json, at, '[', ']');
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(open) = list[from..].find('{') {
        let object = balanced(list, from + open, '{', '}');
        out.push((string_field(object, "name"), string_field(object, "unit")));
        from += open + object.len() + 2;
    }
    out
}

fn assert_reports(run: &Run, section: &str, what: &str) {
    let declared = declared(section);
    assert!(!declared.is_empty());
    for (name, unit) in &declared {
        let (value, got_unit) = run
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} is missing"));
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert_eq!(got_unit, unit, "{what}: unit of {name}");
    }
    assert_eq!(
        run.metrics.len(),
        declared.len(),
        "{what}: reports exactly the declared metrics"
    );
    assert!(run.correct, "{what}: correct");
    assert_eq!(run.failed, 0, "{what}: failed ops");
    assert!(run.attempted >= 1, "{what}: attempted");
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for w in WORKLOADS {
        let untraced = run(w, 1, 0);
        assert_reports(&untraced, "end_to_end", w);
        for (name, _) in declared("end_to_end") {
            assert!(
                untraced.value(&name) > 0.0,
                "{w}: end-to-end metric {name} must never be 0"
            );
        }
        assert_reports(&run(w, 1, 1), "per_layer", w);
    }
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let list = balanced(
        &json,
        json.find("\"workloads\"").expect("workloads"),
        '[',
        ']',
    );
    for w in WORKLOADS {
        assert!(
            list.contains(&format!("\"name\": \"{w}\"")),
            "{w} is not declared"
        );
    }
    assert_eq!(list.matches("\"name\"").count(), WORKLOADS.len());
}

#[test]
fn same_seed_same_inputs_and_same_counts() {
    for w in SERIAL {
        let (a, b) = (run(w, 7, 1), run(w, 7, 1));
        assert_eq!(a.op_list_hash(), b.op_list_hash(), "{w}: op list");
        for name in [
            "index.file_bytes",
            "store.decodes_per_op",
            "join.matches_per_op",
            "topk.rows_retrieved_per_op",
        ] {
            assert_eq!(
                a.value(name),
                b.value(name),
                "{w}: {name} must repeat exactly"
            );
        }
        assert_eq!(
            a.value("pool.tasks_per_op"),
            0.0,
            "{w} is serial: no pool tasks"
        );
    }
    for w in WORKLOADS {
        let (a, b) = (run(w, 7, 0), run(w, 7, 0));
        assert_eq!(a.op_list_hash(), b.op_list_hash(), "{w}: op list");
        assert_eq!(
            a.value("stored_bytes_per_xml_byte"),
            b.value("stored_bytes_per_xml_byte"),
            "{w}: stored bytes must repeat bit for bit"
        );
    }
}

#[test]
fn another_seed_gives_another_op_list() {
    for w in WORKLOADS {
        assert_ne!(
            run(w, 1, 0).op_list_hash(),
            run(w, 2, 0).op_list_hash(),
            "{w}"
        );
    }
}

#[test]
fn disk_cold_replays_mem_completes_op_list() {
    assert_eq!(
        run("disk_cold", 3, 0).op_list_hash(),
        run("mem_complete", 3, 0).op_list_hash()
    );
}

#[test]
fn layers_a_workload_bypasses_read_zero() {
    for w in ["mem_topk", "mem_complete"] {
        let r = run(w, 1, 1);
        for name in [
            "store.decodes_per_op",
            "batch.wall_us",
            "shard.executed_per_op",
            "index.write_s",
        ] {
            assert_eq!(r.value(name), 0.0, "{w}: {name}");
        }
    }
    for w in ["mem_complete", "disk_cold"] {
        let r = run(w, 1, 1);
        for name in ["topk.rows_retrieved_per_op", "starjoin.inserts_per_op"] {
            assert_eq!(r.value(name), 0.0, "{w}: {name}");
        }
    }
    assert!(run("disk_cold", 1, 1).value("store.decodes_per_op") > 0.0);
    assert!(run("serve_shard4", 1, 1).value("batch.wall_us") > 0.0);
}

#[test]
fn traced_run_writes_a_well_formed_span_file() {
    for w in WORKLOADS {
        run(w, 1, 1);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("perfbench-out")
            .join(format!("trace-{w}-smoke.jsonl"));
        let text = std::fs::read_to_string(&path).expect("the traced run published its spans");
        // (start, end) by id; ids are 1, 2, 3, … in file order.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut names = std::collections::BTreeSet::new();
        for line in text.lines() {
            let id = number_field(line, "id") as usize;
            assert_eq!(id, spans.len() + 1, "{w}: ids count up");
            let parent = number_field(line, "parent") as usize;
            let (start, end) = (
                number_field(line, "start_ns") as u64,
                number_field(line, "end_ns") as u64,
            );
            assert!(start <= end, "{w}: span {id}");
            if parent != 0 {
                let (ps, pe) = *spans
                    .get(parent - 1)
                    .unwrap_or_else(|| panic!("{w}: parent of {id}"));
                assert!(ps <= start && end <= pe, "{w}: span {id} leaves its parent");
            }
            names.insert(string_field(line, "name"));
            spans.push((start, end));
        }
        for expected in [
            "setup",
            "xml.parse",
            "index.build",
            "request",
            "plan.parse",
            "plan.bind",
            "exec",
        ] {
            assert!(names.contains(expected), "{w}: no {expected} span");
        }
    }
}

#[test]
fn scratch_directory_is_gone_after_the_run() {
    let r = run("disk_cold", 1, 0);
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("perfbench-out");
    let mine = format!("run-{}-", r.pid);
    for entry in std::fs::read_dir(out).expect("perfbench-out exists after a run") {
        let name = entry
            .expect("directory entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(!name.starts_with(&mine), "{name} was left behind");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtk-perfbench"))
        .args(["--workload", "ingest"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
