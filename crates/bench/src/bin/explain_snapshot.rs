//! Golden EXPLAIN snapshot gate: compiles a fixed grid of query-language
//! strings against a deterministic corpus and renders the full
//! [`PlanExplain`] report — logical plan, rewrite log, rewritten plan,
//! physical plan — for every execution target, then compares the
//! concatenated text byte-for-byte against the committed golden file.
//!
//! ```text
//! explain_snapshot [--out FILE] [--check FILE] [--update]
//!
//!   --out FILE    write the snapshot text (default BENCH_explain.snap)
//!   --check FILE  compare against the committed golden snapshot;
//!                 exit non-zero on ANY difference (exact match).
//!   --update      with --check: rewrite the golden after reporting
//! ```
//!
//! EXPLAIN renders nothing machine-dependent — postings counts, level
//! ranges, rule applications and physical operators, never floats, hash
//! order or wall clock — so an exact-match gate is viable: any diff in
//! this file is a real change to what the planner does, and must be
//! reviewed (and refreshed with `--update`) rather than absorbed.

use std::fmt::Write as _;
use xtk_core::plan::{annotate_executed, compile, explain, ExplainTarget};
use xtk_core::request::{DiskEngine, Executor};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{Engine, QueryRequest};
use xtk_bench::{cold_store, store_image};
use xtk_index::disk::WriteIndexOptions;
use xtk_xml::testutil::TempPath;

/// Small deterministic mixed-depth corpus: conference names at level 3,
/// titles and authors at level 5, so the rewrite rules have real level
/// ranges to prune and scarce/frequent asymmetry to push probes into.
fn corpus() -> String {
    let mut xml = String::from("<dblp>");
    for i in 0..60 {
        xml.push_str(&format!(
            "<conf><name>venue{} series</name><session><paper>\
             <title>xml keyword topic{} search</title><author>author{}</author>\
             </paper><paper><title>top k join rare{}</title></paper>\
             </session></conf>",
            i % 5,
            i % 7,
            i % 13,
            i % 29
        ));
    }
    xml.push_str("</dblp>");
    xml
}

/// The snapshot grid: every stage of the rule pipeline (strawman, pruned,
/// full), both top-K strategies, noop elimination, and a knob-heavy line
/// exercising the parsed front-end end to end.
const QUERIES: [&str; 7] = [
    "series xml",
    "series xml rules=none",
    "series xml rules=prune",
    "xml search k=3",
    "xml search k=3 alg=topk sem=slca",
    "xml search k=100000",
    "top join k=2 threshold=classic scores=unranked",
];

fn targets() -> [(&'static str, ExplainTarget); 3] {
    [
        ("memory", ExplainTarget::Memory),
        ("disk", ExplainTarget::Disk),
        ("sharded", ExplainTarget::Sharded { shards: 4, ta_prune: true }),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_explain.snap");
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

    let engine = Engine::from_xml(&corpus()).expect("corpus parses");
    let base = QueryRequest::default();
    let mut snap = String::from("EXPLAIN snapshot v2 (explain_snapshot --check --update)\n");
    for (tname, target) in targets() {
        for text in QUERIES {
            let (q, req) = compile(engine.index(), text, &base)
                .unwrap_or_else(|e| panic!("{}", e.render(text)));
            let report = explain(engine.index(), &q, &req, target);
            let _ = write!(snap, "\n#### target={tname} query={text:?}\n{report}");
        }
    }

    // Executed-plan annotations: run each query for real with event
    // tracing on, then render the *one* explain tree with per-node
    // actuals (decodes, join steps, driven levels) and per-store delta
    // lines.  Every count is a logical counter — serial execution on a
    // fresh store — so the annotated tree is byte-stable too.  The
    // sharded section is the regression gate for the one-tree contract:
    // shard fan-out may only add `io: shard=N` delta lines, never
    // duplicate the tree.
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(engine.index(), opts).expect("write index");
    let shard_dir = TempPath::new("xtk_explain_snap_shards");
    write_sharded(engine.index(), &shard_dir, 4).expect("write sharded corpus");
    for text in ["series xml", "xml search k=3"] {
        let (q, req) = compile(engine.index(), text, &base)
            .unwrap_or_else(|e| panic!("{}", e.render(text)));
        let req = req.with_trace(xtk_core::TraceLevel::Events);
        for tname in ["memory", "disk", "sharded"] {
            let (report, resp) = match tname {
                "memory" => (
                    explain(engine.index(), &q, &req, ExplainTarget::Memory),
                    engine.run(&q, &req),
                ),
                "disk" => {
                    let store = cold_store(&image).expect("open store");
                    let disk = DiskEngine::new(engine.index(), &store);
                    (
                        explain(engine.index(), &q, &req, ExplainTarget::Disk),
                        disk.execute(&q, &req).expect("disk execute"),
                    )
                }
                _ => {
                    let sharded = ShardedEngine::open(engine.index(), &shard_dir)
                        .expect("open sharded corpus");
                    (
                        sharded.explain_plan(&q, &req),
                        sharded.execute(&q, &req).expect("sharded execute"),
                    )
                }
            };
            let trace = resp.trace.expect("trace requested");
            let annotated = annotate_executed(engine.index(), &report, &trace);
            let _ = write!(snap, "\n#### executed target={tname} query={text:?}\n{annotated}");
        }
    }
    // Before a failed --check leaves through `exit`, which runs no drops.
    drop(shard_dir);

    // Plan-cache provenance: the same request explained before and after
    // its first execution — the report must flip from cold to cached.
    {
        let text = "series xml";
        let (q, req) = compile(engine.index(), text, &base)
            .unwrap_or_else(|e| panic!("{}", e.render(text)));
        let provenance_line = |report: String| {
            report
                .lines()
                .find(|l| l.starts_with("source: "))
                .expect("explain_plan reports provenance")
                .to_string()
        };
        let _ = write!(snap, "\n#### plan-cache provenance query={text:?}\n");
        let before = provenance_line(engine.explain_plan(&q, &req).to_string());
        let _ = writeln!(snap, "before first run: {before}");
        engine.run(&q, &req);
        let after = provenance_line(engine.explain_plan(&q, &req).to_string());
        let _ = writeln!(snap, "after first run: {after}");
    }

    if let Some(golden_path) = &check {
        let golden = std::fs::read_to_string(golden_path)
            .unwrap_or_else(|e| panic!("--check {golden_path}: {e}"));
        if golden == snap {
            eprintln!("explain_snapshot: exact match with {golden_path}");
        } else {
            eprintln!("explain_snapshot: MISMATCH against {golden_path}:");
            for (i, (old, new)) in golden.lines().zip(snap.lines()).enumerate() {
                if old != new {
                    eprintln!("  line {}: {old:?} -> {new:?}", i + 1);
                }
            }
            let (go, sn) = (golden.lines().count(), snap.lines().count());
            if go != sn {
                eprintln!("  line count: {go} -> {sn}");
            }
            if update {
                std::fs::write(golden_path, &snap).expect("rewrite golden");
                eprintln!("explain_snapshot: golden {golden_path} updated");
            } else {
                eprintln!(
                    "explain_snapshot: refresh intentionally with --check {golden_path} --update"
                );
                std::process::exit(1);
            }
        }
    } else {
        std::fs::write(&out, &snap).expect("write snapshot");
        eprintln!("explain_snapshot: wrote {out}");
    }
}
