//! `lint-report.json` — the machine-readable output of a lint run —
//! plus the `--explain CODE` rule catalogue.
//!
//! The report schema is stable: keys are emitted in a fixed order,
//! collections are sorted, and the writer is hand-rolled (like
//! [`crate::baseline`]) so the byte output is deterministic across runs.
//! CI commits the report and validates it on every run.

use crate::hotloop::HotLoopReport;
use crate::locks::LockReport;
use crate::parser::PanicKind;
use crate::reach::EntryReport;
use crate::rules::Finding;
use std::collections::BTreeMap;

/// Everything a run produces, ready for serialization.
pub struct RunReport<'a> {
    /// Per-file L1 counts `(panic_sites, index_sites)`.
    pub l1: &'a BTreeMap<String, (u32, u32)>,
    /// Hard L2–L5 findings as `(file, finding)`.
    pub hard: &'a [(String, Finding)],
    pub l6: &'a [EntryReport],
    pub l7: &'a LockReport,
    pub l8: &'a HotLoopReport,
    /// L9 error-discard findings as `(file, line, what)`.
    pub l9: &'a [(String, u32, String)],
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn kind_name(k: PanicKind) -> &'static str {
    match k {
        PanicKind::Macro => "panic_macro",
        PanicKind::Unwrap => "unwrap",
        PanicKind::Index => "index",
        PanicKind::Div => "div",
    }
}

impl<'a> RunReport<'a> {
    /// Serializes the full report with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"version\": 1,\n");

        // L1 totals.
        let (tp, tx) = self
            .l1
            .values()
            .fold((0u32, 0u32), |(p, x), &(fp, fx)| (p + fp, x + fx));
        s.push_str(&format!(
            "  \"l1\": {{ \"panic_sites\": {tp}, \"index_sites\": {tx}, \"files\": {} }},\n",
            self.l1.len()
        ));

        // Hard findings (L2–L5).
        s.push_str("  \"hard\": [");
        for (i, (file, f)) in self.hard.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    { \"file\": ");
            esc(file, &mut s);
            s.push_str(&format!(", \"line\": {}, \"rule\": ", f.line));
            esc(f.rule, &mut s);
            s.push_str(", \"what\": ");
            esc(&f.what, &mut s);
            s.push_str(" }");
        }
        if !self.hard.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");

        // L6: per-entry reachability.
        s.push_str("  \"l6\": {");
        for (i, r) in self.l6.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    ");
            esc(&r.qual, &mut s);
            s.push_str(&format!(
                ": {{ \"reachable_fns\": {}, \"panic_sites\": {}, \"paths\": [",
                r.fn_count, r.count
            ));
            for (j, p) in r.paths.iter().enumerate() {
                s.push_str(if j == 0 { "\n" } else { ",\n" });
                s.push_str("      { \"file\": ");
                esc(&p.file, &mut s);
                s.push_str(&format!(", \"line\": {}, \"kind\": \"{}\", \"chain\": [", p.line, kind_name(p.kind)));
                for (k, link) in p.chain.iter().enumerate() {
                    if k > 0 {
                        s.push_str(", ");
                    }
                    esc(link, &mut s);
                }
                s.push_str("] }");
            }
            if !r.paths.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str("] }");
        }
        if !self.l6.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");

        // L7: lock order.
        s.push_str("  \"l7\": {\n    \"locks\": [");
        for (i, l) in self.l7.locks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            esc(l, &mut s);
        }
        s.push_str("],\n    \"edges\": [");
        for (i, e) in self.l7.edges.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("      { \"held\": ");
            esc(&e.held, &mut s);
            s.push_str(", \"acquired\": ");
            esc(&e.acquired, &mut s);
            s.push_str(", \"site\": ");
            esc(&e.site, &mut s);
            s.push_str(", \"in_fn\": ");
            esc(&e.in_fn, &mut s);
            s.push_str(" }");
        }
        if !self.l7.edges.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("],\n    \"cycles\": [");
        for (i, c) in self.l7.cycles.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('[');
            for (j, l) in c.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                esc(l, &mut s);
            }
            s.push(']');
        }
        s.push_str("],\n    \"held_across_pool\": [");
        for (i, h) in self.l7.held_across_pool.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("      { \"lock\": ");
            esc(&h.lock, &mut s);
            s.push_str(", \"site\": ");
            esc(&h.site, &mut s);
            s.push_str(", \"in_fn\": ");
            esc(&h.in_fn, &mut s);
            s.push_str(" }");
        }
        if !self.l7.held_across_pool.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("]\n  },\n");

        // L8: hot-loop allocation.
        s.push_str("  \"l8\": {\n    \"findings\": [");
        for (i, f) in self.l8.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("      { \"file\": ");
            esc(&f.file, &mut s);
            s.push_str(&format!(", \"line\": {}, \"what\": ", f.line));
            esc(&f.what, &mut s);
            s.push_str(&format!(
                ", \"depth\": {}, \"missing_reason\": {}, \"in_fn\": ",
                f.depth, f.missing_reason
            ));
            esc(&f.in_fn, &mut s);
            s.push_str(" }");
        }
        if !self.l8.findings.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("],\n    \"suppressed\": [");
        for (i, sp) in self.l8.suppressed.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("      { \"file\": ");
            esc(&sp.file, &mut s);
            s.push_str(&format!(", \"line\": {}, \"what\": ", sp.line));
            esc(&sp.what, &mut s);
            s.push_str(", \"reason\": ");
            esc(&sp.reason, &mut s);
            s.push_str(" }");
        }
        if !self.l8.suppressed.is_empty() {
            s.push_str("\n    ");
        }
        s.push_str("]\n  },\n");

        // L9: discarded Results.
        s.push_str("  \"l9\": [");
        for (i, (file, line, what)) in self.l9.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    { \"file\": ");
            esc(file, &mut s);
            s.push_str(&format!(", \"line\": {line}, \"what\": "));
            esc(what, &mut s);
            s.push_str(" }");
        }
        if !self.l9.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// The `--explain CODE` catalogue.  Returns `None` for unknown codes.
pub fn explain(code: &str) -> Option<&'static str> {
    let text = match code.to_ascii_uppercase().as_str() {
        "L1" => {
            "L1 — ratcheted panic freedom (per file)\n\n\
             Counts direct panic sites (`unwrap`/`expect`/`panic!`-family macros)\n\
             and slice-indexing sites (`a[i]`) per library file and compares them\n\
             against `lint-baseline.json`.  A file may never exceed its budget;\n\
             tighten with `--update-baseline` after reducing counts.\n\
             Suppress a genuinely safe site with `// lint:allow(panic)` or\n\
             `// lint:allow(index)` on the site's line or the line above."
        }
        "L2" => {
            "L2 — hash-iteration order\n\n\
             Iterating a `HashMap`/`HashSet` leaks nondeterministic ordering into\n\
             results, which breaks PR 1's serial/parallel bit-identity invariant.\n\
             Use `BTreeMap`/`BTreeSet` or sort before iterating."
        }
        "L3" => {
            "L3 — determinism hazards\n\n\
             Wall-clock reads (`std::time`) and float equality (`==` on f32/f64)\n\
             make runs non-reproducible.  Thread time in explicitly, and compare\n\
             floats with an epsilon or total ordering."
        }
        "L4" => {
            "L4 — forbid unsafe\n\n\
             Every crate root must carry `#![forbid(unsafe_code)]`.  The whole\n\
             workspace is safe Rust; this keeps it that way at compile time."
        }
        "L5" => {
            "L5 — no wall clock in obs\n\n\
             The observability crate must be deterministic: metrics and traces\n\
             derive from logical counters, never from `Instant::now()` or\n\
             `SystemTime`, so test runs and shard replicas agree byte-for-byte."
        }
        "L6" => {
            "L6 — interprocedural panic reachability (ratcheted per entry point)\n\n\
             For every public query-path entry point (`Engine::run`,\n\
             `DiskEngine::execute`, `ShardedEngine::execute`, `BatchExecutor::run`,\n\
             ...), xtk-lint builds the workspace call graph and sums the panic\n\
             sites (unwrap/expect, panic macros, slice indexing, and unchecked\n\
             `/`/`%` in hot modules) transitively reachable from it.  Each\n\
             entry's count is ratcheted in `lint-baseline.json` under\n\
             `entry_points` — it may fall, never rise.  The report lists one\n\
             example call chain per site; resolution is conservative, so treat\n\
             a chain as \"possibly reachable\", then either make the callee\n\
             infallible or return the error through the chain."
        }
        "L7" => {
            "L7 — lock-order cycles and locks held across the pool (hard fail)\n\n\
             xtk-lint harvests every Mutex/RwLock/Sharded acquisition (the block,\n\
             plan and result caches, guard-returning helpers), tracks how long each guard\n\
             lives, and builds the lock-order graph: held A, then acquired B\n\
             (directly or through any call) adds the edge A → B.  Any cycle —\n\
             including re-acquiring a lock already held, which deadlocks std's\n\
             Mutex immediately — fails the build.  So does submitting to the\n\
             thread pool (`parallel_map`) while holding any lock: workers that\n\
             need the lock deadlock against the submitter.  There is no ratchet\n\
             and no suppression for L7: restructure so guards drop first."
        }
        "L8" => {
            "L8 — allocation in hot loops\n\n\
             Flags `Vec::new`, `vec![...]`, `.to_vec()`, `.collect()` and\n\
             `format!` inside any loop in the per-query hot modules (joinbased,\n\
             diskexec, topk, shard merge).  Such allocations multiply with the\n\
             result-set size; hoist the buffer out of the loop and reuse it.\n\
             When an in-loop allocation is genuinely required, suppress with a\n\
             reason: `// lint:allow(L8, bounded by k — runs once per shard)`.\n\
             A reasonless `lint:allow(L8)` is itself a finding."
        }
        "L9" => {
            "L9 — discarded Results\n\n\
             In crates/core and crates/index, `let _ = fallible();` and bare\n\
             `.ok();` silently swallow errors that the query path must surface.\n\
             Handle the error, propagate with `?`, or destructure the success\n\
             value.  (Applies when the callee is a workspace function whose\n\
             return type mentions `Result`.)"
        }
        _ => return None,
    };
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotloop::{HotAlloc, HotLoopReport, Suppressed};
    use crate::locks::{HeldAcrossPool, LockEdge, LockReport};
    use crate::reach::{EntryReport, PanicPath};

    fn sample<'a>(
        l1: &'a BTreeMap<String, (u32, u32)>,
        hard: &'a [(String, Finding)],
        l6: &'a [EntryReport],
        l7: &'a LockReport,
        l8: &'a HotLoopReport,
        l9: &'a [(String, u32, String)],
    ) -> String {
        RunReport { l1, hard, l6, l7, l8, l9 }.to_json()
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let l1 = BTreeMap::new();
        let l7 = LockReport {
            locks: vec![],
            edges: vec![],
            cycles: vec![],
            held_across_pool: vec![],
        };
        let l8 = HotLoopReport { findings: vec![], suppressed: vec![] };
        let a = sample(&l1, &[], &[], &l7, &l8, &[]);
        let b = sample(&l1, &[], &[], &l7, &l8, &[]);
        assert_eq!(a, b, "writer must be deterministic");
        assert!(a.contains("\"version\": 1"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn full_report_includes_all_sections() {
        let mut l1 = BTreeMap::new();
        l1.insert("crates/core/src/topk.rs".to_string(), (1u32, 2u32));
        let hard = vec![(
            "crates/obs/src/lib.rs".to_string(),
            Finding { rule: "L5", line: 3, what: "Instant::now".to_string() },
        )];
        let l6 = vec![EntryReport {
            qual: "xtk_core::Engine::run".to_string(),
            count: 1,
            fn_count: 4,
            paths: vec![PanicPath {
                file: "crates/core/src/topk.rs".to_string(),
                line: 10,
                kind: PanicKind::Unwrap,
                chain: vec![
                    "xtk_core::Engine::run".to_string(),
                    "xtk_core::topk::score".to_string(),
                ],
            }],
        }];
        let l7 = LockReport {
            locks: vec!["CacheInner".to_string(), "Shard".to_string()],
            edges: vec![LockEdge {
                held: "Shard".to_string(),
                acquired: "CacheInner".to_string(),
                site: "crates/index/src/cache.rs:42".to_string(),
                in_fn: "xtk_index::ShardedLruCache::get".to_string(),
            }],
            cycles: vec![],
            held_across_pool: vec![HeldAcrossPool {
                lock: "Shard".to_string(),
                site: "crates/core/src/shard.rs:7".to_string(),
                in_fn: "xtk_core::ShardedEngine::execute".to_string(),
            }],
        };
        let l8 = HotLoopReport {
            findings: vec![HotAlloc {
                file: "crates/core/src/topk.rs".to_string(),
                line: 12,
                what: "vec!".to_string(),
                depth: 1,
                in_fn: "xtk_core::topk::score".to_string(),
                missing_reason: false,
            }],
            suppressed: vec![Suppressed {
                file: "crates/core/src/shard.rs".to_string(),
                line: 5,
                what: "collect".to_string(),
                reason: "bounded by k".to_string(),
            }],
        };
        let l9 = vec![(
            "crates/core/src/batch.rs".to_string(),
            9u32,
            "let _ = flush()".to_string(),
        )];
        let json = sample(&l1, &hard, &l6, &l7, &l8, &l9);
        for needle in [
            "\"l1\"", "\"hard\"", "\"l6\"", "\"l7\"", "\"l8\"", "\"l9\"",
            "xtk_core::Engine::run", "\"kind\": \"unwrap\"", "\"held\": \"Shard\"",
            "\"held_across_pool\"", "bounded by k", "\"missing_reason\": false",
            "let _ = flush()",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let l1 = BTreeMap::new();
        let hard = vec![(
            "a\"b.rs".to_string(),
            Finding { rule: "L2", line: 1, what: "tab\there".to_string() },
        )];
        let l7 = LockReport {
            locks: vec![],
            edges: vec![],
            cycles: vec![],
            held_across_pool: vec![],
        };
        let l8 = HotLoopReport { findings: vec![], suppressed: vec![] };
        let json = sample(&l1, &hard, &[], &l7, &l8, &[]);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
    }

    #[test]
    fn explain_covers_all_rules_and_rejects_unknown() {
        for code in ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "l6"] {
            assert!(explain(code).is_some(), "missing explain for {code}");
        }
        assert!(explain("L10").is_none());
        assert!(explain("").is_none());
        assert!(explain("panic").is_none());
    }
}
