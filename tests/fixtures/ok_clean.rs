// Fixture: clean library code — fallible accessors, test-only unwraps and
// indexing, an index whose bound is stated and a write whose error goes to
// the caller.  Expected: no findings.

use std::fmt::Write as _;

/// Callers may write `f(&v).unwrap()` — doc mentions are not findings.
pub fn f(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

#[expect(clippy::indexing_slicing, reason = "every caller passes a non-empty slice")]
pub fn g(v: &[u32]) -> u32 {
    debug_assert!(!v.is_empty());
    v[0]
}

pub fn render(out: &mut String, n: u32) -> std::fmt::Result {
    write!(out, "n={n}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_f() {
        let v = [1u32, 2, 3];
        assert_eq!(super::f(&v).unwrap(), v[0]);
    }
}
