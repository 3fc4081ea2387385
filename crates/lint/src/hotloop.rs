//! L8 — allocation inside hot loops.
//!
//! The Algorithm-1 driver (`joinbased`), its on-disk column source
//! (`diskexec`), the top-K star join (`topk`) and the shard merge
//! (`shard`) are the per-query inner loops of the engine; an allocation there multiplies with
//! result-set size.  L8 flags `Vec::new`, `vec![…]`, `.to_vec()`,
//! `.collect()` and `format!` at loop depth ≥ 1 in those modules.
//!
//! Suppression requires a reason: `// lint:allow(L8, hoisted — bounded
//! by k)` on the site's own line or the line above.  A bare
//! `lint:allow(L8)` is itself a finding (missing reason).

use crate::graph::{Workspace, L8_MODULES};
use crate::parser::Event;

/// One L8 finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HotAlloc {
    pub file: String,
    pub line: u32,
    /// `Vec::new` / `vec!` / `to_vec` / `collect` / `format!`.
    pub what: String,
    /// Loop nesting depth at the site (≥ 1).
    pub depth: u32,
    pub in_fn: String,
    /// True when a `lint:allow(L8)` was present but carried no reason —
    /// the finding then reports the missing reason instead of the alloc.
    pub missing_reason: bool,
}

/// One accepted suppression (reported for the JSON audit trail).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    pub file: String,
    pub line: u32,
    pub what: String,
    pub reason: String,
}

pub struct HotLoopReport {
    pub findings: Vec<HotAlloc>,
    pub suppressed: Vec<Suppressed>,
}

/// Runs L8 over the workspace's hot modules.
pub fn analyze(ws: &Workspace) -> HotLoopReport {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for info in &ws.fns {
        let Some(pf) = ws.files.get(info.file) else { continue };
        if !L8_MODULES.contains(&pf.rel.as_str()) {
            continue;
        }
        for ev in &info.events {
            let Event::Alloc { what, line, depth, allowed, reason } = ev else { continue };
            if *depth == 0 {
                continue;
            }
            if *allowed {
                match reason {
                    Some(r) => suppressed.push(Suppressed {
                        file: pf.rel.clone(),
                        line: *line,
                        what: (*what).to_string(),
                        reason: r.clone(),
                    }),
                    None => findings.push(HotAlloc {
                        file: pf.rel.clone(),
                        line: *line,
                        what: (*what).to_string(),
                        depth: *depth,
                        in_fn: info.qual.clone(),
                        missing_reason: true,
                    }),
                }
            } else {
                findings.push(HotAlloc {
                    file: pf.rel.clone(),
                    line: *line,
                    what: (*what).to_string(),
                    depth: *depth,
                    in_fn: info.qual.clone(),
                    missing_reason: false,
                });
            }
        }
    }
    findings.sort();
    findings.dedup();
    suppressed.sort();
    suppressed.dedup();
    HotLoopReport { findings, suppressed }
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
    fn alloc_in_loop_in_hot_module_is_flagged() {
        let w = ws(&[(
            "crates/core/src/topk.rs",
            r#"
            pub fn scan(xs: &[u32]) -> u32 {
                let mut total = 0;
                for x in xs {
                    let buf = Vec::new();
                    total += buf.len() as u32 + x;
                }
                total
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = r.findings.first().expect("finding");
        assert_eq!(f.what, "Vec::new()");
        assert_eq!(f.depth, 1);
        assert!(!f.missing_reason);
    }

    #[test]
    fn alloc_outside_loop_or_outside_hot_modules_is_fine() {
        let w = ws(&[
            (
                "crates/core/src/topk.rs",
                "pub fn setup(k: usize) -> u32 { let buf = Vec::new(); buf.len() as u32 }\n",
            ),
            (
                "crates/core/src/hybrid.rs",
                r#"
                pub fn render(xs: &[u32]) -> u32 {
                    let mut n = 0;
                    for x in xs { let s = format!("{x}"); n += s.len() as u32; }
                    n
                }
                "#,
            ),
        ]);
        assert!(analyze(&w).findings.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_recorded() {
        let w = ws(&[(
            "crates/core/src/shard.rs",
            r#"
            pub fn merge(xs: &[u32]) -> u32 {
                let mut n = 0;
                for x in xs {
                    // lint:allow(L8, per-shard buffer bounded by k)
                    let buf = Vec::new();
                    n += buf.len() as u32 + x;
                }
                n
            }
            "#,
        )]);
        let r = analyze(&w);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(
            r.suppressed.first().map(|s| s.reason.as_str()),
            Some("per-shard buffer bounded by k")
        );
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let w = ws(&[(
            "crates/core/src/diskexec.rs",
            r#"
            pub fn run(xs: &[u32]) -> u32 {
                let mut n = 0;
                for x in xs {
                    // lint:allow(L8)
                    let buf = Vec::new();
                    n += buf.len() as u32 + x;
                }
                n
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings.first().is_some_and(|f| f.missing_reason));
    }

    #[test]
    fn nested_depth_is_reported() {
        let w = ws(&[(
            "crates/core/src/joinbased.rs",
            r#"
            pub fn join(xs: &[u32], ys: &[u32]) -> u32 {
                let mut n = 0;
                for x in xs {
                    while n < 10 {
                        let s = ys.to_vec();
                        n += s.len() as u32 + x;
                    }
                }
                n
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.findings.first().map(|f| f.depth), Some(2), "{:?}", r.findings);
    }
}
