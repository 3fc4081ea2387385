//! Galloping search — the forward-cursor primitive of the engine.
//!
//! Within one level of Algorithm 1 everything ascends (joined values, a
//! keyword's runs, the erased intervals, the level's nodes by JDewey
//! number), so successive lookups into a sorted slice resume from the last
//! position instead of restarting a binary search.  It lives at the bottom
//! of the dependency stack so the JDewey level cursor, the column cursors
//! of `xtk-index` and the eraser cursor of `xtk-core` share one
//! implementation.

/// Galloping (exponential) variant of `partition_point` that starts at
/// `from`: doubles the step until `pred` first fails, then binary-searches
/// the bracketed window.  Requires the usual partition precondition (`pred`
/// is true on a prefix) **and** that every index `< from` satisfies `pred`;
/// cost is O(log d) where `d` is the distance from `from` to the answer —
/// the win over a plain binary search when probes advance monotonically.
pub fn gallop_partition_point<T, F: Fn(&T) -> bool>(xs: &[T], from: usize, pred: F) -> usize {
    let n = xs.len();
    match xs.get(from) {
        None => return n, // `from` at or past the end
        Some(r) if !pred(r) => return from,
        _ => {}
    }
    // xs[from] satisfies pred; gallop until the first failure.
    let mut last_true = from;
    let mut step = 1usize;
    loop {
        let cand = from.saturating_add(step);
        match xs.get(cand) {
            Some(r) if pred(r) => {
                last_true = cand;
                step = step.saturating_mul(2);
            }
            _ => {
                // Answer lies in (last_true, min(cand, n)].
                let hi = cand.min(n);
                let window = xs.get(last_true + 1..hi).unwrap_or(&[]);
                return last_true + 1 + window.partition_point(|r| pred(r));
            }
        }
    }
}
