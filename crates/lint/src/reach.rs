//! L6 — panic-reachability for public query-path entry points.
//!
//! For each entry point on the `Executor`/`Engine`/`ShardedEngine` query
//! path we BFS the call graph and sum the *direct* panic sites (slice
//! indexing, `unwrap`/`expect`, panic macros, unchecked division in hot
//! modules) of every reachable function.  The per-entry-point totals are
//! ratcheted in `lint-baseline.json`: a count may go down (tighten the
//! baseline with `--update-baseline`) but never up.

use crate::graph::{FnId, Workspace};
use crate::parser::PanicKind;
use std::collections::BTreeMap;

/// The public entry points of the query path, as `(owner, fn)` pairs.
/// These are the API surfaces ISSUE/DESIGN designate: the in-memory
/// engine, the disk executor, the sharded scatter-gather engine and the
/// batch executor.  All of them end in `joinbased::algorithm1`, which
/// reaches its storage through a generic `S: ColumnSource` bound — the
/// call graph resolves such calls to every impl (see the
/// `interprocedural_passes_follow_calls_through_a_generic_bound` fixture).
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("Engine", "run"),
    ("Engine", "run_batch"),
    ("Engine", "run_batch_report"),
    ("Engine", "query"),
    ("Engine", "execute"),
    ("DiskEngine", "execute"),
    ("ShardedEngine", "execute"),
    ("BatchExecutor", "run"),
];

/// One reachable panic site, with the chain that proves reachability.
pub struct PanicPath {
    /// File of the function containing the panic site.
    pub file: String,
    pub line: u32,
    pub kind: PanicKind,
    /// Qualified call chain `entry → … → containing fn`.
    pub chain: Vec<String>,
}

/// The L6 result for one entry point.
pub struct EntryReport {
    /// Qualified entry name, the ratchet key (e.g. `xtk_core::Engine::run`).
    pub qual: String,
    /// Total reachable direct panic sites.
    pub count: u32,
    /// Number of distinct reachable workspace functions.
    pub fn_count: u32,
    /// Every reachable site with one example chain each, sorted by
    /// `(file, line)` for stable reports.
    pub paths: Vec<PanicPath>,
}

/// Runs L6 over every entry point present in the workspace.  Entry
/// points whose owner/fn pair does not resolve are skipped (e.g. a
/// fixture workspace without a `ShardedEngine`).
pub fn analyze(ws: &Workspace) -> Vec<EntryReport> {
    let mut out = Vec::new();
    for &(owner, name) in ENTRY_POINTS {
        for &entry in ws.lookup_method(owner, name) {
            if !ws.fn_def(entry).is_some_and(|f| f.is_pub) {
                continue;
            }
            out.push(analyze_entry(ws, entry));
        }
    }
    out.sort_by(|a, b| a.qual.cmp(&b.qual));
    out.dedup_by(|a, b| a.qual == b.qual);
    out
}

fn analyze_entry(ws: &Workspace, entry: FnId) -> EntryReport {
    let (order, pred) = ws.reachable(entry);
    let mut paths: Vec<PanicPath> = Vec::new();
    for &id in &order {
        let Some(info) = ws.fns.get(id) else { continue };
        for &(kind, line) in &info.panics {
            paths.push(PanicPath {
                file: ws.file_of(id).to_string(),
                line,
                kind,
                chain: ws.chain(&pred, entry, id),
            });
        }
    }
    paths.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    let qual = ws
        .fns
        .get(entry)
        .map(|i| i.qual.clone())
        .unwrap_or_default();
    EntryReport {
        qual,
        count: paths.len() as u32,
        fn_count: order.len() as u32,
        paths,
    }
}

/// Compares entry-point counts against the baseline ratchet.  Returns
/// human-readable regression lines; empty means the ratchet holds.
pub fn regressions(
    reports: &[EntryReport],
    baseline: &BTreeMap<String, u32>,
) -> Vec<String> {
    let mut out = Vec::new();
    for r in reports {
        match baseline.get(&r.qual) {
            Some(&base) if r.count > base => out.push(format!(
                "L6 regression: {} reaches {} panic sites (baseline {})",
                r.qual, r.count, base
            )),
            None if r.count > 0 => out.push(format!(
                "L6 regression: new entry point {} reaches {} panic sites (no baseline; run --update-baseline after review)",
                r.qual, r.count
            )),
            _ => {}
        }
    }
    out
}

/// One-line ratchet delta summary for CI logs.
pub fn delta_line(reports: &[EntryReport], baseline: &BTreeMap<String, u32>) -> String {
    let cur: u32 = reports.iter().map(|r| r.count).sum();
    let base: u32 = reports
        .iter()
        .map(|r| baseline.get(&r.qual).copied().unwrap_or(0))
        .sum();
    let sign = match cur.cmp(&base) {
        std::cmp::Ordering::Less => "improved",
        std::cmp::Ordering::Equal => "held",
        std::cmp::Ordering::Greater => "REGRESSED",
    };
    format!(
        "L6 ratchet {sign}: {cur} reachable panic sites across {} entry points (baseline {base})",
        reports.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;
    use crate::parser;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files.iter().map(|(rel, src)| parser::parse(rel, src.to_string())).collect(),
        )
    }

    #[test]
    fn entry_point_reaches_transitive_panics() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            r#"
            pub struct Engine;
            impl Engine {
                pub fn run(&self, q: &str) -> u32 { helper(q) }
            }
            fn helper(q: &str) -> u32 { inner(q) }
            fn inner(q: &str) -> u32 { q.len() as u32; q.parse().unwrap() }
            "#,
        )]);
        let reports = analyze(&w);
        assert_eq!(reports.len(), 1);
        let r = reports.first().expect("one entry");
        assert_eq!(r.qual, "xtk_core::Engine::run");
        assert_eq!(r.count, 1);
        assert!(r.fn_count >= 3);
        let p = r.paths.first().expect("one path");
        assert_eq!(
            p.chain,
            vec![
                "xtk_core::Engine::run",
                "xtk_core::engine::helper",
                "xtk_core::engine::inner"
            ]
        );
    }

    #[test]
    fn clean_entry_reports_zero() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            r#"
            pub struct Engine;
            impl Engine {
                pub fn run(&self, q: &str) -> usize { q.len() }
            }
            "#,
        )]);
        let reports = analyze(&w);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports.first().map(|r| r.count), Some(0));
    }

    #[test]
    fn ratchet_regression_and_improvement() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            r#"
            pub struct Engine;
            impl Engine {
                pub fn run(&self, o: Option<u32>) -> u32 { o.unwrap() }
            }
            "#,
        )]);
        let reports = analyze(&w);
        // Baseline says 0 -> regression.
        let mut base = BTreeMap::new();
        base.insert("xtk_core::Engine::run".to_string(), 0u32);
        assert_eq!(regressions(&reports, &base).len(), 1);
        assert!(delta_line(&reports, &base).contains("REGRESSED"));
        // Baseline says 1 -> holds.
        base.insert("xtk_core::Engine::run".to_string(), 1u32);
        assert!(regressions(&reports, &base).is_empty());
        assert!(delta_line(&reports, &base).contains("held"));
        // Baseline says 2 -> improvement allowed.
        base.insert("xtk_core::Engine::run".to_string(), 2u32);
        assert!(regressions(&reports, &base).is_empty());
        assert!(delta_line(&reports, &base).contains("improved"));
    }

    #[test]
    fn new_entry_point_with_panics_is_flagged() {
        let w = ws(&[(
            "crates/core/src/shard.rs",
            r#"
            pub struct ShardedEngine;
            impl ShardedEngine {
                pub fn execute(&self, o: Option<u32>) -> u32 { o.unwrap() }
            }
            "#,
        )]);
        let reports = analyze(&w);
        let base = BTreeMap::new();
        let regs = regressions(&reports, &base);
        assert_eq!(regs.len(), 1);
        assert!(regs.first().is_some_and(|m| m.contains("new entry point")));
    }

    #[test]
    fn non_pub_entry_is_skipped() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            r#"
            pub struct Engine;
            impl Engine {
                fn run(&self, o: Option<u32>) -> u32 { o.unwrap() }
            }
            "#,
        )]);
        assert!(analyze(&w).is_empty());
    }
}
