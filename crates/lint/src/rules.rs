//! L9 (discarded `Result`s) and the test-item mask the parser shares.
//!
//! L1–L5 are rustc/clippy lints now (DESIGN.md §7); what stays here needs
//! the workspace function table or the token stream.  Code inside
//! `#[cfg(test)]` / `#[test]` items is exempt, and `// lint:allow(L9)` on
//! the same or previous line suppresses a finding.

use crate::lexer::{Lexed, TokKind};
use std::collections::BTreeSet;

/// One L9 finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the site.
    pub what: String,
}

/// L9 — discarded `Result`s in the execution crates (`crates/core`,
/// `crates/index`):
///
/// * `let _ = fallible(...);` where the callee is a workspace function
///   whose return type mentions `Result` (param discards like
///   `let _ = unused_param;` don't flag — there is no call), and
/// * bare `.ok();` — converting a `Result` to an `Option` and
///   immediately dropping it is the token-level signature of a swallowed
///   error.
///
/// Suppress with `// lint:allow(L9)` only where the discard is the
/// documented contract.
pub fn l9(
    pf: &crate::parser::ParsedFile,
    result_fns: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if !(pf.rel.starts_with("crates/core/src/") || pf.rel.starts_with("crates/index/src/")) {
        return out;
    }
    let n = pf.lx.tokens.len();
    for i in 0..n {
        if pf.is_masked(i) {
            continue;
        }
        // `let _ = <expr>;` with a Result-returning call in the expr.
        if pf.ident(i) == Some("let")
            && pf.ident(i + 1) == Some("_")
            && pf.kind(i + 2) == Some(TokKind::Punct(b'='))
        {
            let line = pf.line(i);
            if pf.lx.allowed(line, "L9") {
                continue;
            }
            let mut depth = 0i32;
            let mut j = i + 3;
            let mut callee: Option<String> = None;
            while j < n {
                match pf.kind(j) {
                    Some(TokKind::Delim(b'(' | b'[' | b'{')) => depth += 1,
                    Some(TokKind::Delim(b')' | b']' | b'}')) => depth -= 1,
                    Some(TokKind::Punct(b';')) if depth <= 0 => break,
                    Some(TokKind::Ident) if depth == 0 => {
                        let t = pf.text(j);
                        if pf.kind(j + 1) == Some(TokKind::Delim(b'(')) && result_fns.contains(t) {
                            callee = Some(t.to_string());
                        }
                    }
                    None => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(name) = callee {
                out.push(Finding {
                    line,
                    what: format!(
                        "`let _ = {name}(...)` discards a Result; handle the error, \
                         propagate with `?`, or annotate `// lint:allow(L9)`"
                    ),
                });
            }
        }
        // Bare `.ok();`
        if pf.kind(i) == Some(TokKind::Punct(b'.'))
            && pf.ident(i + 1) == Some("ok")
            && pf.kind(i + 2) == Some(TokKind::Delim(b'('))
            && pf.kind(i + 3) == Some(TokKind::Delim(b')'))
            && pf.kind(i + 4) == Some(TokKind::Punct(b';'))
        {
            let line = pf.line(i + 1);
            if pf.lx.allowed(line, "L9") {
                continue;
            }
            out.push(Finding {
                line,
                what: "bare `.ok();` swallows a Result error; handle it, propagate \
                       with `?`, or annotate `// lint:allow(L9)`"
                    .to_string(),
            });
        }
    }
    out
}

/// Returns a per-token mask covering items under `#[cfg(test)]` /
/// `#[test]` attributes (the whole item: to the matching `}` or the
/// terminating `;`).  Shared with [`crate::parser`], which applies the
/// same exemption to the interprocedural passes.
pub fn test_mask(src: &str, lx: &Lexed) -> Vec<bool> {
    let n = lx.tokens.len();
    let mut masked = vec![false; n];
    let kind = |i: usize| lx.tokens.get(i).map(|t| t.kind);
    let mut i = 0;
    while i < n {
        if kind(i) != Some(TokKind::Punct(b'#')) || kind(i + 1) != Some(TokKind::Delim(b'[')) {
            i += 1;
            continue;
        }
        // Scan the attribute body to its closing `]`, collecting idents.
        let Some((attr_end, is_test)) = scan_attr(src, lx, i + 1) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between `#[cfg(test)]` and the item.
        let mut j = attr_end + 1;
        while kind(j) == Some(TokKind::Punct(b'#')) && kind(j + 1) == Some(TokKind::Delim(b'[')) {
            match scan_attr(src, lx, j + 1) {
                Some((e, _)) => j = e + 1,
                None => break,
            }
        }
        // Mask the item: up to a top-level `;`, or the matching `}` of the
        // first `{`.
        let mut depth = 0i32;
        let mut end = j;
        while end < n {
            match kind(end) {
                Some(TokKind::Delim(b'{' | b'(' | b'[')) => depth += 1,
                Some(TokKind::Delim(b'}' | b')' | b']')) => {
                    depth -= 1;
                    if depth == 0 && kind(end) == Some(TokKind::Delim(b'}')) {
                        break;
                    }
                }
                Some(TokKind::Punct(b';')) if depth == 0 => break,
                None => break,
                _ => {}
            }
            end += 1;
        }
        for m in masked.iter_mut().take((end + 1).min(n)).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    masked
}

/// Scans an attribute starting at its `[` token; returns the index of the
/// closing `]` and whether the attribute gates on `test` (a bare
/// `#[test]`, or `cfg(...)` mentioning `test` without `not`).
fn scan_attr(src: &str, lx: &Lexed, open: usize) -> Option<(usize, bool)> {
    let n = lx.tokens.len();
    let mut depth = 0i32;
    let mut has_cfg = false;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < n {
        match lx.tokens.get(j).map(|t| t.kind) {
            Some(TokKind::Delim(b'[' | b'(' | b'{')) => depth += 1,
            Some(TokKind::Delim(b']')) => {
                depth -= 1;
                if depth == 0 {
                    let bare_test = has_test && !has_cfg && j == open + 2;
                    return Some((j, bare_test || (has_cfg && has_test && !has_not)));
                }
            }
            Some(TokKind::Delim(b')' | b'}')) => depth -= 1,
            Some(TokKind::Ident) => match lx.text(src, j) {
                "cfg" => has_cfg = true,
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            },
            None => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\npub fn kept() {}\n\
                   #[cfg(test)]\nmod t { fn gone() {} }\n\
                   #[test]\nfn also_gone() {}\n";
        let lx = lex(src);
        let masked = test_mask(src, &lx);
        let of = |name: &str| {
            let i = (0..lx.tokens.len()).find(|&i| lx.text(src, i) == name)?;
            masked.get(i).copied()
        };
        assert_eq!(of("kept"), Some(false));
        assert_eq!(of("gone"), Some(true));
        assert_eq!(of("also_gone"), Some(true));
    }

    fn l9_of(rel: &str, src: &str, result_fns: &[&str]) -> Vec<Finding> {
        let pf = crate::parser::parse(rel, src.to_string());
        let set: BTreeSet<String> = result_fns.iter().map(|s| s.to_string()).collect();
        l9(&pf, &set)
    }

    #[test]
    fn l9_flags_discarded_result_call() {
        let src = "pub fn f() { let _ = flush(); }\n";
        let out = l9_of("crates/core/src/batch.rs", src, &["flush"]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out.first().is_some_and(|f| f.what.contains("flush")));
    }

    #[test]
    fn l9_ignores_non_result_and_param_discards() {
        // Param discard: no call at all.
        let a = l9_of("crates/core/src/batch.rs", "pub fn f(x: u32) { let _ = x; }\n", &["flush"]);
        assert!(a.is_empty(), "{a:?}");
        // Call to a fn that does not return Result.
        let b = l9_of("crates/core/src/batch.rs", "pub fn f() { let _ = tuple_fn(); }\n", &["flush"]);
        assert!(b.is_empty(), "{b:?}");
        // Out of scope: xml crate.
        let c = l9_of("crates/xml/src/writer.rs", "pub fn f() { let _ = flush(); }\n", &["flush"]);
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn l9_flags_bare_ok_discard_but_not_ok_chains() {
        let bad = "pub fn f(r: Result<u32, E>) { r.send().ok(); }\n";
        let out = l9_of("crates/index/src/cache.rs", bad, &[]);
        assert_eq!(out.len(), 1, "{out:?}");
        // `.ok()` feeding a consumer is not a silent discard.
        let good = "pub fn f(r: Result<u32, E>) -> Option<u32> { r.parse().ok() }\n";
        assert!(l9_of("crates/index/src/cache.rs", good, &[]).is_empty());
    }

    #[test]
    fn l9_allow_and_test_mask() {
        let allowed =
            "pub fn f() {\n    // lint:allow(L9) best-effort cleanup\n    let _ = flush();\n}\n";
        assert!(l9_of("crates/core/src/batch.rs", allowed, &["flush"]).is_empty());
        let test_only =
            "#[cfg(test)]\nmod tests { fn t() { let _ = flush(); std::fs::remove_file(\"x\").ok(); } }\n";
        assert!(l9_of("crates/core/src/batch.rs", test_only, &["flush"]).is_empty());
    }
}
