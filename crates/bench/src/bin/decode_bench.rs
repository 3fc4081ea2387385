//! Block-decode benchmark, in the one on-disk format: per compression
//! regime, the payload bytes, the blocks one cold scan decodes and the
//! decode time per row; then the cold decode count and file size of a
//! full index's store.
//!
//! ```text
//! decode_bench [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the trajectory JSON (default BENCH_decode.json)
//!   --check FILE  compare the deterministic counters (payload bytes,
//!                 cold decode counts, file sizes) against a committed
//!                 baseline; exit non-zero on a >20 % regression.
//!                 Does not write unless --update is also given.
//!   --update      with --check: rewrite the baseline after checking
//! ```
//!
//! The run is also a correctness smoke test: every workload must decode
//! back to its in-memory runs bit for bit, and the store's answers must
//! equal the in-memory engine's.  Timings are recorded for the trajectory
//! but never compared against the baseline; the ratchet keys are exact,
//! deterministic counters.

use std::fmt::Write as _;
use std::time::Instant;
use xtk_bench::{
    band_term, cold_store, equal_queries, extract_u64, high_term, point_queries, store_image,
    Fingerprint, Scale, TERMS_PER_BAND,
};
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::Query;
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_index::codec::{
    choose_scheme, decode_column_into, encode_column, CompressedColumn, DecodeScratch, Scheme,
};
use xtk_index::columnar::{Column, Run};
use xtk_index::disk::WriteIndexOptions;
use xtk_index::XmlIndex;

/// Rows decoded per workload timing leg; iterations repeat the
/// column until roughly this many rows have gone through the decoder.
const TARGET_ROWS: u64 = 8_000_000;

/// Fingerprint of a run stream (value, start, len per run).
fn runs_fingerprint(runs: &[Run]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in runs {
        fp.push(r.value);
        fp.push(r.start);
        fp.push(r.len);
    }
    fp.0
}

/// Deterministic splitmix-style generator for the synthetic columns.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `1..=bound`.
    fn range(&mut self, bound: u64) -> u32 {
        (self.next() % bound) as u32 + 1
    }
}

struct Workload {
    name: &'static str,
    expect: Scheme,
    col: Column,
}

/// The three decode regimes: dense small-delta lanes (1–3 bit widths),
/// wide-delta lanes (~12 bit), and run-length blocks.
fn workloads() -> Vec<Workload> {
    let delta = |name: &'static str, seed: u64, gap: u64| {
        let mut rng = Lcg(seed);
        let mut runs = Vec::new();
        let (mut value, mut row) = (0u32, 0u32);
        for i in 0..120_000u32 {
            value += rng.range(gap);
            // Occasional row gaps so the present-row mapping is exercised.
            row += if i % 13 == 0 { 3 } else { 1 };
            runs.push(Run { value, start: row, len: 1 });
        }
        Workload { name, expect: Scheme::Delta, col: Column { runs } }
    };
    let mut rng = Lcg(0xdec0de03);
    let mut runs = Vec::new();
    let (mut value, mut row) = (0u32, 0u32);
    while runs.len() < 24_000 {
        value += rng.range(7);
        let len = rng.range(32);
        runs.push(Run { value, start: row, len });
        row += len + u32::from(runs.len() % 11 == 0);
    }
    vec![
        delta("delta_dense", 0xdec0de01, 4),
        delta("delta_wide", 0xdec0de02, 4_096),
        Workload { name: "rle_runs", expect: Scheme::Rle, col: Column { runs } },
    ]
}

/// Decodes `cc` repeatedly through one reused scratch arena and returns
/// (ns per row, fingerprint of the last decode).
fn time_decode(cc: &CompressedColumn, present: &[u32]) -> (f64, u64) {
    let iters = (TARGET_ROWS / present.len().max(1) as u64).max(4);
    let mut scratch = DecodeScratch::default();
    // Warm the arena (and take the fingerprint outside the timed loop, so
    // the measurement is the decode itself, not the checksum).
    scratch.runs.clear();
    decode_column_into(cc, present, &mut scratch).expect("bench column decodes");
    let fp = runs_fingerprint(&scratch.runs);
    let t = Instant::now();
    for _ in 0..iters {
        scratch.runs.clear();
        decode_column_into(cc, present, &mut scratch).expect("bench column decodes");
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert!(!scratch.runs.is_empty(), "timed decodes must not be optimized away");
    (ns / (iters as f64 * present.len() as f64), fp)
}

/// The store-level corpus: small enough for CI, large enough that the
/// planted lists span several blocks.
fn build_corpus() -> XmlIndex {
    let mut planted = Vec::new();
    for i in 0..4 {
        planted.push(PlantedTerm::new(high_term(i), 8_000));
    }
    for &f in &[10, 1_000] {
        for i in 0..TERMS_PER_BAND {
            planted.push(PlantedTerm::new(band_term(f, i), f));
        }
    }
    let cfg = DblpConfig {
        conferences: 100,
        years_per_conf: 10,
        papers_per_year: 15,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 5_000,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_decode.json");
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

    let mut json = String::from("{\n  \"schema\": 2,\n  \"workloads\": [\n");
    let mut check_lines: Vec<(String, u64)> = Vec::new();

    let all = workloads();
    for (wi, w) in all.iter().enumerate() {
        let scheme = choose_scheme(&w.col);
        assert_eq!(scheme, w.expect, "{}: workload drifted off its scheme", w.name);
        let present: Vec<u32> = w.col.runs.iter().flat_map(|r| r.rows()).collect();
        let cc = encode_column(&w.col, scheme);
        let (ns, fp) = time_decode(&cc, &present);
        let want = runs_fingerprint(&w.col.runs);
        assert_eq!(fp, want, "{}: decode diverges from the in-memory runs", w.name);
        // One cold scan decodes every block once.
        let (bytes, cold_decodes) = (cc.bytes.len(), cc.block_count());
        eprintln!(
            "decode_bench: {:<12} {scheme:?} rows {} bytes {bytes} cold decodes {cold_decodes} {ns:.2} ns/row",
            w.name,
            present.len(),
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"scheme\": \"{scheme:?}\", \"rows\": {}, \"bytes\": {bytes}, \"cold_decodes\": {cold_decodes}, \"ns_per_row\": {ns:.2}, \"fingerprint\": \"{want:016x}\"}}",
            w.name,
            present.len(),
        );
        json.push_str(if wi + 1 == all.len() { "\n" } else { ",\n" });
        check_lines.push((format!("chk_bytes_{}", w.name), bytes as u64));
        check_lines.push((format!("chk_cold_decodes_{}", w.name), cold_decodes as u64));
    }
    json.push_str("  ],\n");

    // Store-level leg: the index written once, the queries answered off
    // a cold store, fingerprints pinned to the in-memory engine; cold
    // decode counts and file bytes are the deterministic ratchet.
    eprintln!("decode_bench: building the store-level corpus…");
    let ix = build_corpus();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let words: Vec<Vec<String>> = point_queries(Scale::Small, 2, 10, 6)
        .into_iter()
        .chain(equal_queries(2, 1_000, 6))
        .collect();
    let queries: Vec<Query> = words
        .iter()
        .map(|ws| Query::from_words(&ix, ws).expect("workload term resolves"))
        .collect();
    let mut mem_fp = Fingerprint::new();
    for q in &queries {
        let (rs, _) = join_search(&ix, q, &opts);
        for r in &rs {
            mem_fp.push(r.node.0);
            mem_fp.push(r.level as u32);
            mem_fp.push(r.score.to_bits());
        }
    }
    let image = store_image(&ix, WriteIndexOptions { include_scores: true, ..Default::default() })
        .expect("write index");
    let file_bytes = image.len() as u64;
    let store = cold_store(&image).expect("open store");
    let mut fp = Fingerprint::new();
    let t = Instant::now();
    for q in &queries {
        let (rs, _, _) = join_search_disk(&ix, &store, q, &opts).expect("disk search");
        for r in &rs {
            fp.push(r.node.0);
            fp.push(r.level as u32);
            fp.push(r.score.to_bits());
        }
    }
    let cold_wall_ns = t.elapsed().as_nanos();
    let cold_decodes = store.reads();
    assert_eq!(fp.0, mem_fp.0, "disk results diverge from the in-memory engine");
    let _ = writeln!(
        json,
        "  \"store\": {{\"queries\": {}, \"cold_decodes\": {cold_decodes}, \"file_bytes\": {file_bytes}, \"cold_wall_ns\": {cold_wall_ns}, \"fingerprint\": \"{:016x}\"}},",
        queries.len(),
        mem_fp.0,
    );
    eprintln!("decode_bench: store: {cold_decodes} cold decodes, {file_bytes} file bytes");
    check_lines.push(("chk_cold_decodes_store".to_string(), cold_decodes));
    check_lines.push(("chk_file_bytes_store".to_string(), file_bytes));

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
                eprintln!("decode_bench: baseline lacks {key} — treating as new");
                continue;
            };
            // >20 % above the committed baseline fails.
            let limit = base + base.div_ceil(5);
            let status = if *value > limit { "REGRESSION" } else { "ok" };
            eprintln!("decode_bench: {key}: {value} vs baseline {base} (limit {limit}) {status}");
            if *value > limit {
                failed = true;
            }
        }
        if failed {
            eprintln!("decode_bench: regression against {baseline_path}");
            std::process::exit(1);
        }
        if update {
            std::fs::write(baseline_path, &json).expect("rewrite baseline");
            eprintln!("decode_bench: baseline {baseline_path} updated");
        }
    } else {
        std::fs::write(&out, &json).expect("write trajectory");
        eprintln!("decode_bench: wrote {out}");
    }
}
