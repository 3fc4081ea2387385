//! Positive/negative fixture tests: the lint must fire on the bad
//! fixtures and stay silent on the good ones.  Fixture sources live in
//! `fixtures/` (outside `src/`, so the workspace scan ignores them and
//! cargo never compiles them).

use std::path::Path;
use xtk_lint::rules::{analyze, classify, FileClass, FileReport};

const LIB: FileClass =
    FileClass { lib_code: true, exec_scope: false, crate_root: false, obs_scope: false };
const EXEC: FileClass =
    FileClass { lib_code: true, exec_scope: true, crate_root: false, obs_scope: false };
const ROOT: FileClass =
    FileClass { lib_code: true, exec_scope: false, crate_root: true, obs_scope: false };
const OBS: FileClass =
    FileClass { lib_code: true, exec_scope: false, crate_root: false, obs_scope: true };

fn fixture(name: &str, class: &FileClass) -> FileReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    analyze(&src, class)
}

fn hard_rules(rep: &FileReport) -> Vec<&'static str> {
    rep.hard.iter().map(|f| f.rule).collect()
}

#[test]
fn injected_unwraps_are_counted() {
    let rep = fixture("bad_panics.rs", &LIB);
    assert_eq!(
        rep.l1_counts(),
        (4, 1),
        "panic sites: {:?}, index sites: {:?}",
        rep.panic_sites,
        rep.index_sites
    );
}

#[test]
fn clean_library_code_is_silent() {
    let rep = fixture("ok_clean.rs", &LIB);
    assert_eq!(rep.l1_counts(), (0, 0), "{:?} {:?}", rep.panic_sites, rep.index_sites);
    assert!(rep.hard.is_empty());
}

#[test]
fn hash_order_leakage_fails() {
    let rep = fixture("bad_hash_iter.rs", &EXEC);
    assert_eq!(hard_rules(&rep), vec!["hash-iter"], "{:?}", rep.hard);
}

#[test]
fn sorted_or_aggregated_hash_iteration_passes() {
    let rep = fixture("ok_hash_sorted.rs", &EXEC);
    assert!(rep.hard.is_empty(), "{:?}", rep.hard);
}

#[test]
fn wall_clock_time_fails_in_exec_scope() {
    let rep = fixture("bad_time.rs", &EXEC);
    assert!(hard_rules(&rep).contains(&"time"), "{:?}", rep.hard);
    // The same file is fine outside the query-execution crates (the bench
    // crate measures time for a living).
    assert!(fixture("bad_time.rs", &LIB).hard.is_empty());
}

#[test]
fn wall_clock_time_fails_in_obs_scope() {
    // L5 reuses the bad_time fixture: anything that trips the exec-scope
    // time rule must also trip (without an allow escape) inside xtk-obs.
    let rep = fixture("bad_time.rs", &OBS);
    assert!(hard_rules(&rep).contains(&"obs-time"), "{:?}", rep.hard);
}

#[test]
fn float_equality_fails_in_exec_scope() {
    let rep = fixture("bad_float_eq.rs", &EXEC);
    assert!(hard_rules(&rep).contains(&"float-eq"), "{:?}", rep.hard);
}

#[test]
fn removed_forbid_unsafe_fails() {
    let rep = fixture("root_missing_forbid.rs", &ROOT);
    assert!(hard_rules(&rep).contains(&"forbid-unsafe"), "{:?}", rep.hard);
    assert!(fixture("root_ok.rs", &ROOT).hard.is_empty());
}

/// End-to-end over the real tree: every crate root in this workspace must
/// carry `#![forbid(unsafe_code)]`, and the shipped tree must have no
/// hard violations — the same invariant `ci.sh` enforces via the binary.
#[test]
fn shipped_tree_has_no_hard_violations() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = xtk_lint::walk::find_root(here).expect("workspace root");
    let files = xtk_lint::walk::collect_rs(&root).expect("scan workspace");
    assert!(files.len() > 20, "expected a real workspace, found {} files", files.len());
    let mut crate_roots = 0;
    for (rel, path) in &files {
        let class = classify(rel);
        if class.crate_root {
            crate_roots += 1;
        }
        let src = std::fs::read_to_string(path).expect("read source");
        let rep = analyze(&src, &class);
        assert!(rep.hard.is_empty(), "{rel}: {:?}", rep.hard);
    }
    assert!(crate_roots >= 6, "expected >= 6 crate roots, found {crate_roots}");
}

/// The one Algorithm-1 driver reaches its storage through a generic
/// bound (`S: ColumnSource`): both call spellings — `S::method(src, …)`
/// and `src.method(…)` on the generic binding — must resolve to *every*
/// impl, so the disk source stays inside L6 panic reachability from the
/// in-memory entry point, L8 still sees allocations inside the generic
/// driver's loops, and L9 still catches a `Result` discarded through the
/// bound.
#[test]
fn interprocedural_passes_follow_calls_through_a_generic_bound() {
    use std::collections::BTreeSet;
    use xtk_lint::graph::Workspace;
    use xtk_lint::{hotloop, parser, reach, rules};

    let driver = r#"
        pub trait ColumnSource {
            type Error;
            fn enter(&mut self, level: u16) -> Result<(), Self::Error>;
            fn runs(&self, kw: usize) -> Result<Vec<u32>, Self::Error>;
        }
        pub struct MemSource;
        impl ColumnSource for MemSource {
            type Error = std::convert::Infallible;
            fn enter(&mut self, _level: u16) -> Result<(), Self::Error> { Ok(()) }
            fn runs(&self, _kw: usize) -> Result<Vec<u32>, Self::Error> { Ok(Vec::new()) }
        }
        pub fn algorithm1<S: ColumnSource>(src: &mut S, kws: &[usize]) -> Result<u32, S::Error> {
            S::enter(src, 2)?;
            let mut n = 0;
            for &kw in kws {
                let copy = src.runs(kw)?.to_vec();
                n += copy.len() as u32;
            }
            let _ = src.enter(1);
            Ok(n)
        }
    "#;
    let disk = r#"
        pub struct DiskSource { cols: Vec<Vec<u32>> }
        impl ColumnSource for DiskSource {
            type Error = std::io::Error;
            fn enter(&mut self, level: u16) -> std::io::Result<()> {
                let _rows = self.cols[level as usize].len();
                Ok(())
            }
            fn runs(&self, kw: usize) -> std::io::Result<Vec<u32>> {
                Ok(self.cols[kw].clone())
            }
        }
    "#;
    let engine = r#"
        pub struct Engine;
        impl Engine {
            pub fn run(&self, kws: &[usize]) -> u32 {
                algorithm1(&mut MemSource, kws).unwrap_or(0)
            }
        }
    "#;
    let files = vec![
        parser::parse("crates/core/src/joinbased.rs", driver.to_string()),
        parser::parse("crates/core/src/diskexec.rs", disk.to_string()),
        parser::parse("crates/core/src/engine.rs", engine.to_string()),
    ];
    let result_fns: BTreeSet<String> = files
        .iter()
        .flat_map(|pf| pf.fns.iter())
        .filter(|f| f.ret.iter().any(|t| t == "Result"))
        .map(|f| f.name.clone())
        .collect();
    let l9: Vec<u32> = files
        .iter()
        .filter(|pf| pf.rel.ends_with("joinbased.rs"))
        .flat_map(|pf| rules::l9(pf, &result_fns))
        .map(|f| f.line)
        .collect();
    assert_eq!(l9.len(), 1, "`let _ = src.enter(1)` discards a Result: {l9:?}");

    let ws = Workspace::build(files);
    // L6: Engine::run only names MemSource, yet both of DiskSource's
    // indexing sites are reachable — one through `S::enter`, one through
    // `src.runs`.
    let l6 = reach::analyze(&ws);
    let run = l6.iter().find(|e| e.qual == "xtk_core::Engine::run").expect("entry point");
    let disk_sites: Vec<&reach::PanicPath> =
        run.paths.iter().filter(|p| p.file.ends_with("diskexec.rs")).collect();
    assert_eq!(disk_sites.len(), 2, "{:?}", run.paths.iter().map(|p| &p.chain).collect::<Vec<_>>());
    for site in &disk_sites {
        assert!(
            site.chain.iter().any(|f| f.ends_with("algorithm1")),
            "reached through the generic driver: {:?}",
            site.chain
        );
    }
    // L8: the allocation inside the generic driver's loop is flagged.
    let l8 = hotloop::analyze(&ws);
    assert!(
        l8.findings.iter().any(|f| f.what.contains("to_vec") && f.in_fn.ends_with("algorithm1")),
        "{:?}",
        l8.findings
    );
}
