//! Deterministic metrics-snapshot gate: runs a fixed query matrix through
//! the unified `QueryRequest` API (in-memory and on-disk) on a seeded
//! corpus, merges every execution's metrics into one canonical snapshot,
//! and compares it byte-for-byte against the committed golden file.
//!
//! ```text
//! metrics_snapshot [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the snapshot JSON (default BENCH_metrics.json)
//!   --check FILE  compare against a committed golden snapshot;
//!                 exit non-zero on ANY difference (exact match).
//!   --update      with --check: rewrite the golden after reporting
//! ```
//!
//! Everything in the snapshot is a logical count — join cardinalities,
//! top-K retrieval work, star-join bucket traffic, cache hit/miss/decode
//! splits, planner routing — never wall-clock, so the file is exact and
//! machine-independent.  The matrix runs serially; under `Serial` the
//! `pool.*` counters stay zero and every other counter is the same for
//! any `Parallelism`, which is what makes an exact-match gate viable.
//! The run also asserts the per-store cache invariants the double-count
//! fix established: `store.decodes == store.cache_misses` and no metric
//! drift between two identical cold runs.

use xtk_core::query::Query;
use xtk_core::request::{DiskEngine, Executor, QueryAlgorithm, QueryRequest};
use xtk_core::{Engine, Semantics};
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_bench::{cold_store, store_image};
use xtk_index::disk::WriteIndexOptions;
use xtk_index::XmlIndex;
use xtk_core::MetricsSnapshot;

/// Small seeded corpus: a few hundred papers with planted bands so every
/// engine (complete join, top-K early exit, RDIL) gets real
/// work, but the whole matrix stays sub-second in CI.
fn build_corpus() -> XmlIndex {
    let planted = vec![
        PlantedTerm::new("hi0", 2_000),
        PlantedTerm::new("hi1", 2_000),
        PlantedTerm::new("mid0", 200),
        PlantedTerm::new("mid1", 200),
        PlantedTerm::new("low0", 20),
        PlantedTerm::correlated("pair1", 150, "hi0", 0.9),
    ];
    let cfg = DblpConfig {
        conferences: 40,
        years_per_conf: 5,
        papers_per_year: 10,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 2_000,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

/// The fixed request matrix: every algorithm family, both semantics,
/// complete and top-K shapes.
fn requests() -> Vec<(&'static str, QueryRequest)> {
    vec![
        ("complete_elca", QueryRequest::complete(Semantics::Elca)),
        ("complete_slca_unranked", QueryRequest::complete(Semantics::Slca).unranked()),
        (
            "join_top5",
            QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased),
        ),
        (
            "topk_join_top5",
            QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        ),
        ("auto_top10", QueryRequest::top_k(10, Semantics::Elca)),
        (
            "stack_complete",
            QueryRequest::complete(Semantics::Slca)
                .unranked()
                .with_algorithm(QueryAlgorithm::StackBased),
        ),
        (
            "indexed_complete",
            QueryRequest::complete(Semantics::Slca)
                .unranked()
                .with_algorithm(QueryAlgorithm::IndexBased),
        ),
        (
            "rdil_top5",
            QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::Rdil),
        ),
    ]
}

fn queries(ix: &XmlIndex) -> Vec<Query> {
    [
        vec!["hi0", "low0"],
        vec!["hi0", "pair1"],
        vec!["mid0", "mid1"],
        vec!["hi0", "hi1", "mid0"],
    ]
    .iter()
    .map(|words| Query::from_words(ix, words).expect("planted term resolves"))
    .collect()
}

/// One full pass of the matrix; returns the merged snapshot.
fn run_matrix(engine: &Engine, disk: &DiskEngine, queries: &[Query]) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for q in queries {
        for (_, req) in requests() {
            let resp = engine.run(q, &req);
            total.merge(&resp.metrics);
        }
        // Disk parity leg: the join-based algorithm through the Executor
        // trait, complete and top-K.
        for req in [
            QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased),
            QueryRequest::top_k(5, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased),
        ] {
            let resp = disk.execute(q, &req).expect("disk execute");
            assert_eq!(
                resp.metrics.get("store.decodes"),
                resp.metrics.get("store.cache_misses"),
                "per-store decode/miss invariant"
            );
            total.merge(&resp.metrics);
        }
    }
    total
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_metrics.json");
    let mut check: Option<String> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out FILE").clone(),
            "--check" => check = Some(it.next().expect("--check FILE").clone()),
            "--update" => update = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }

    eprintln!("metrics_snapshot: building the seeded corpus…");
    let ix = build_corpus();
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(&ix, opts).expect("write disk index");

    let engine = Engine::from_index(ix);
    let qs = queries(engine.index());

    // Two cold passes over fresh stores must produce identical metrics —
    // the reproducibility the exact-match gate relies on.
    let run = |_: usize| {
        let store = cold_store(&image).expect("open store");
        let disk = DiskEngine::new(engine.index(), &store);
        run_matrix(&engine, &disk, &qs)
    };
    let total = run(0);
    let again = run(1);
    assert_eq!(
        total, again,
        "metrics must be identical across two cold runs of the same matrix"
    );

    let json = total.to_json();
    if let Some(golden_path) = &check {
        let golden = std::fs::read_to_string(golden_path)
            .unwrap_or_else(|e| panic!("--check {golden_path}: {e}"));
        if golden == json {
            eprintln!("metrics_snapshot: exact match with {golden_path} ({} metrics)", total.len());
        } else {
            let committed = MetricsSnapshot::from_json(&golden)
                .unwrap_or_else(|| panic!("--check {golden_path}: not a snapshot JSON"));
            eprintln!("metrics_snapshot: MISMATCH against {golden_path}:");
            for (name, old, new) in committed.diff(&total) {
                eprintln!("  {name}: {old} -> {new}");
            }
            if update {
                std::fs::write(golden_path, &json).expect("rewrite golden");
                eprintln!("metrics_snapshot: golden {golden_path} updated");
            } else {
                eprintln!(
                    "metrics_snapshot: refresh intentionally with --check {golden_path} --update"
                );
                std::process::exit(1);
            }
        }
    } else {
        std::fs::write(&out, &json).expect("write snapshot");
        eprintln!("metrics_snapshot: wrote {out} ({} metrics)", total.len());
    }
}
