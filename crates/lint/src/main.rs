#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing
)]
//! The `xtk-lint` binary: parses the workspace, runs the passes that
//! need its function table (L6 panic reachability, L7 lock order, L8
//! hot-loop allocation, L9 discarded Results), enforces the L6 ratchet of
//! `lint-baseline.json`, and writes `lint-report.json`.  L1–L5 are
//! rustc/clippy lints (DESIGN.md §7).
//! Exit codes: 0 clean, 1 violations or ratchet regression, 2 usage/IO
//! error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use xtk_lint::baseline::Baseline;
use xtk_lint::graph::Workspace;
use xtk_lint::rules::l9;
use xtk_lint::{hotloop, locks, parser, reach, report, walk};

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xtk-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "xtk-lint — in-tree static analysis for the xtk workspace\n\n\
         USAGE: cargo run -q -p xtk-lint [-- OPTIONS]\n\n\
         OPTIONS:\n\
           --update-baseline   rewrite lint-baseline.json with the current L6 counts\n\
           --root PATH         workspace root (default: found from the current directory)\n\
           --report PATH       where to write lint-report.json (default: <root>/lint-report.json)\n\
           --explain CODE      print the rationale and fix guidance for a rule (L1..L9)\n\
           -h, --help          this message\n\n\
         Passes: L6 panic reachability per query entry point (ratcheted),\n\
         L7 lock-order cycles / lock held across the pool (hard), L8 allocation\n\
         in hot loops (suppress with lint:allow(L8, reason)), L9 discarded\n\
         Results in core/index.  L1-L5 are rustc/clippy lints: `--explain L1`.\n\
         See DESIGN.md \u{a7}7 and \u{a7}12, or `--explain L6`."
    );
}

struct Args {
    update: bool,
    root: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut out = Args { update: false, root: None, report: None };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--update-baseline" => out.update = true,
            "--root" => {
                out.root = Some(PathBuf::from(
                    argv.next().ok_or("--root requires a path argument")?,
                ))
            }
            "--report" => {
                out.report = Some(PathBuf::from(
                    argv.next().ok_or("--report requires a path argument")?,
                ))
            }
            "--explain" => {
                let code = argv.next().ok_or("--explain requires a rule code (L1..L9)")?;
                match report::explain(&code) {
                    Some(text) => {
                        println!("{text}");
                        return Ok(None);
                    }
                    None => return Err(format!("unknown rule code `{code}` (known: L1..L9)")),
                }
            }
            "-h" | "--help" => {
                print_help();
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(out))
}

fn run() -> Result<bool, String> {
    let Some(args) = parse_args()? else { return Ok(true) };
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            walk::find_root(&cwd)
                .ok_or("no workspace root found (Cargo.toml with [workspace]); use --root")?
        }
    };

    // ---- Parse every file for the workspace model.
    let files = walk::collect_rs(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    for (rel, path) in &files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
        parsed.push(parser::parse(rel, src));
    }

    // ---- Workspace model and interprocedural passes.
    let result_fns: BTreeSet<String> = parsed
        .iter()
        .filter(|pf| pf.krate.is_some())
        .flat_map(|pf| pf.fns.iter())
        .filter(|f| !f.in_test && f.ret.iter().any(|t| t == "Result"))
        .map(|f| f.name.clone())
        .collect();
    let ws = Workspace::build(parsed);

    let l6 = reach::analyze(&ws);
    let l7 = locks::analyze(&ws);
    let l8 = hotloop::analyze(&ws);
    let mut l9_findings: Vec<(String, u32, String)> = Vec::new();
    for pf in &ws.files {
        for f in l9(pf, &result_fns) {
            l9_findings.push((pf.rel.clone(), f.line, f.what));
        }
    }
    l9_findings.sort();

    // ---- lint-report.json is written unconditionally, pass or fail.
    let report_path = args.report.unwrap_or_else(|| root.join("lint-report.json"));
    let json = report::RunReport {
        l6: &l6,
        l7: &l7,
        l8: &l8,
        l9: &l9_findings,
    }
    .to_json();
    std::fs::write(&report_path, &json)
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;

    let mut ok = true;

    // L7 is never ratcheted: any cycle or held-across-pool fails, always.
    for c in &l7.cycles {
        eprintln!("xtk-lint: [L7] lock-order cycle: {}", c.join(" -> "));
        for e in &l7.edges {
            if c.contains(&e.held) && c.contains(&e.acquired) {
                eprintln!("  {} acquires {} while holding {} ({})", e.in_fn, e.acquired, e.held, e.site);
            }
        }
        ok = false;
    }
    for h in &l7.held_across_pool {
        eprintln!(
            "xtk-lint: [L7] {} submits to the thread pool while holding `{}` ({}); drop the guard first",
            h.in_fn, h.lock, h.site
        );
        ok = false;
    }

    // L8 findings are hard; suppressed sites carry their reasons in the report.
    for f in &l8.findings {
        if f.missing_reason {
            eprintln!(
                "{}:{}: [L8] `lint:allow(L8)` needs a reason — write `// lint:allow(L8, why)` for the `{}` here",
                f.file, f.line, f.what
            );
        } else {
            eprintln!(
                "{}:{}: [L8] `{}` allocates inside a hot loop (depth {}) in {}; hoist it out or annotate `// lint:allow(L8, reason)`",
                f.file, f.line, f.what, f.depth, f.in_fn
            );
        }
        ok = false;
    }

    for (file, line, what) in &l9_findings {
        eprintln!("{file}:{line}: [L9] {what}");
        ok = false;
    }

    // ---- Baseline: write (update mode) or enforce (normal mode).
    let bpath = root.join("lint-baseline.json");
    if args.update {
        let b = Baseline { entry_points: l6.iter().map(|r| (r.qual.clone(), r.count)).collect() };
        std::fs::write(&bpath, b.to_json())
            .map_err(|e| format!("writing {}: {e}", bpath.display()))?;
        println!(
            "xtk-lint: baseline updated — {} entry points ratcheted (L6 total {})",
            b.entry_points.len(),
            b.entry_points.values().sum::<u32>()
        );
        return Ok(ok);
    }

    let btext = std::fs::read_to_string(&bpath).map_err(|e| {
        format!(
            "reading {}: {e} (create it with `cargo run -p xtk-lint -- --update-baseline`)",
            bpath.display()
        )
    })?;
    let base = Baseline::parse(&btext)?;

    let l6_regress = reach::regressions(&l6, &base.entry_points);
    if !l6_regress.is_empty() {
        ok = false;
        for msg in &l6_regress {
            eprintln!("{msg}");
        }
        for r in &l6 {
            let budget = base.entry_points.get(&r.qual).copied().unwrap_or(0);
            if r.count > budget {
                for p in &r.paths {
                    eprintln!("  {}:{} via {}", p.file, p.line, p.chain.join(" -> "));
                }
            }
        }
        eprintln!(
            "xtk-lint: L6 ratchet regression — a query entry point now reaches more \
             panic sites than the committed budget; see `--explain L6`"
        );
    }
    println!("xtk-lint: {}", reach::delta_line(&l6, &base.entry_points));

    let l6_total: u32 = l6.iter().map(|r| r.count).sum();
    let l6_budget: u32 = l6
        .iter()
        .map(|r| base.entry_points.get(&r.qual).copied().unwrap_or(0))
        .sum();
    if ok && l6_total < l6_budget {
        println!(
            "xtk-lint: note — tree is below baseline ({l6_total} vs {l6_budget} panic sites \
             reachable by entry); tighten the ratchet with \
             `cargo run -p xtk-lint -- --update-baseline`"
        );
    }
    if ok {
        println!(
            "xtk-lint: OK — {} files parsed; L6 {} entry points; L7 {} locks, {} edges, \
             0 cycles; L8 {} suppressed with reasons; L9 clean; report at {}",
            files.len(),
            l6.len(),
            l7.locks.len(),
            l7.edges.len(),
            l8.suppressed.len(),
            report_path.display()
        );
    }
    Ok(ok)
}
