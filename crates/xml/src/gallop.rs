//! Forward searches in sorted slices — the cursor primitives of the engine.
//!
//! Within one level of Algorithm 1 everything ascends (joined values, a
//! keyword's runs, the erased intervals, the level's nodes by JDewey
//! number), so successive lookups into a sorted slice resume from the last
//! position instead of restarting a binary search.  It lives at the bottom
//! of the dependency stack so the JDewey level cursor, the column cursors
//! of `xtk-index` and the eraser cursor of `xtk-core` share one
//! implementation.
//!
//! The column searches open with a *window*: the next [`WINDOW`] elements
//! are compared at once and the position advances by how many satisfy the
//! predicate.  A lookup that moves less than a window — the common case
//! when probes and slice are about equally dense — is then straight-line
//! code, where an element-by-element walk ends in a loop exit whose trip
//! count (0, 1, 2, …) the branch predictor cannot learn: one misprediction
//! per lookup, which was most of the merge join's cost per element.  The
//! window pays when the predicate is a comparison of the element itself;
//! a predicate that chases a pointer per element (the level cursor's) is
//! better off with [`gallop_partition_point`]'s one element at a time.

/// Elements compared at once at the start of a column search.
const WINDOW: usize = 4;

/// The search of the window at `from`: `Ok` with the partition point if it
/// lies inside the window (or in a slice tail shorter than a window),
/// `Err` with the position behind the window if all of it satisfies `pred`.
fn window<T, F: Fn(&T) -> bool>(xs: &[T], from: usize, pred: &F) -> Result<usize, usize> {
    let count = |xs: &[T]| xs.iter().filter(|x| pred(x)).count();
    let rest = xs.get(from..).unwrap_or(&[]);
    match rest.first_chunk::<WINDOW>() {
        Some(chunk) => match count(chunk) {
            WINDOW => Err(from + WINDOW),
            ahead => Ok(from + ahead),
        },
        // On a slice `pred` partitions, the count is its true prefix; a
        // `from` past the end is the end.
        None => Ok(from.min(xs.len()) + count(rest)),
    }
}

/// Linear variant of `partition_point` that starts at `from`, for lookups
/// that advance a few elements at a time: window by window, looping only
/// while a whole window satisfies `pred`.  Same preconditions as
/// [`gallop_partition_point`]; cost is O(d) in the distance `d`.  No query
/// path runs it: it is the walk baseline of the lookup ablation
/// (`experiments ablation`).
#[inline]
pub fn window_partition_point<T, F: Fn(&T) -> bool>(xs: &[T], from: usize, pred: F) -> usize {
    let mut at = from;
    loop {
        match window(xs, at, &pred) {
            Ok(found) => return found,
            Err(behind) => at = behind,
        }
    }
}

/// [`gallop_partition_point`] behind one opening window: as cheap as
/// [`window_partition_point`] when the answer is near, O(log d) when it is
/// not — the column search of every join step.
#[inline]
pub fn window_gallop_partition_point<T, F: Fn(&T) -> bool>(
    xs: &[T],
    from: usize,
    pred: F,
) -> usize {
    match window(xs, from, &pred) {
        Ok(found) => found,
        Err(behind) => gallop_partition_point(xs, behind, pred),
    }
}

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
