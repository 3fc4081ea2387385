//! Property tests for the join's search primitives: on random run sets
//! — including empty columns, singleton runs, and adjacent values — the
//! windowed walk and the gallop must return `partition_point`'s index from
//! every start position, the join step built on them must agree element
//! for element with a naive reference on every probe/column shape, and
//! every hinted lookup must agree with its un-hinted counterpart under
//! arbitrary (stale, backwards, out-of-range) hints.

use xtk_core::joinbased::intersect;
use xtk_index::columnar::{
    gallop_lower_bound, gallop_partition_point, window_gallop_lower_bound, Column, Run,
};
use xtk_xml::gallop::window_partition_point;
use xtk_xml::testutil::{prop_check, Gen};

/// A random well-formed column: strictly increasing run values (gap 1
/// makes adjacent values common), contiguous ascending row ranges, run
/// lengths 1–4 (singletons common).  Empty columns are produced when
/// `runs == 0`.
fn random_column(g: &mut Gen) -> Column {
    let n = g.gen_range(0..(g.size() + 2));
    let mut runs = Vec::with_capacity(n);
    let mut value = g.gen_range(0..5u32);
    let mut start = 0u32;
    for _ in 0..n {
        let len = g.gen_range(1..5u32);
        runs.push(Run { value, start, len });
        start += len;
        // Gap 1 (adjacent) with probability ~1/2, else a jump.
        value += if g.gen_bool(0.5) { 1 } else { g.gen_range(2..40u32) };
    }
    Column { runs }
}

/// A random sorted, deduplicated probe list drawn from the same value
/// range as the column (so hits and misses both occur), sometimes empty.
fn random_probes(g: &mut Gen, col: &Column) -> Vec<u32> {
    let hi = col.runs.last().map(|r| r.value + 3).unwrap_or(50);
    let n = g.gen_range(0..(g.size() + 2));
    let mut vs: Vec<u32> = (0..n).map(|_| g.gen_range(0..hi.max(1))).collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

fn naive_intersect(values: &[u32], col: &Column) -> Vec<u32> {
    values
        .iter()
        .copied()
        .filter(|v| col.runs.binary_search_by_key(v, |r| r.value).is_ok())
        .collect()
}

#[test]
fn gallop_agrees_with_merge_and_naive() {
    prop_check(0x71, 64, |g| {
        let col = random_column(g);
        let values = random_probes(g, &col);
        assert_eq!(intersect(&values, &col.runs), naive_intersect(&values, &col));
    });
}

/// A column of `n` singleton runs at ascending values, gaps 1–3.
fn long_column(g: &mut Gen, n: u32) -> Column {
    let mut value = g.gen_range(0..4u32);
    let runs = (0..n)
        .map(|start| {
            value += g.gen_range(1..4u32);
            Run { value, start, len: 1 }
        })
        .collect();
    Column { runs }
}

#[test]
fn dense_sparse_and_clustered_probes_intersect_like_naive() {
    // The three shapes the per-step chooser used to send down three
    // different lookups; the one window-then-gallop lookup takes them all.
    prop_check(0x75, 12, |g| {
        // Dense: about one probe per run, so every lookup ends inside the
        // opening window.
        let col = long_column(g, 3_000);
        let hi = col.runs.last().map_or(1, |r| r.value + 2);
        let dense: Vec<u32> = (0..hi).filter(|_| g.gen_bool(0.5)).collect();
        assert_eq!(intersect(&dense, &col.runs), naive_intersect(&dense, &col), "dense");

        // Sparse: one probe per 10 000 runs or more; hits and misses.
        let col = long_column(g, 60_000);
        let mut sparse = Vec::new();
        let mut at = g.gen_range(0..5_000usize);
        while let Some(run) = col.runs.get(at) {
            sparse.push(run.value + u32::from(g.gen_bool(0.3)));
            at += g.gen_range(10_000..20_000usize);
        }
        sparse.dedup();
        assert_eq!(intersect(&sparse, &col.runs), naive_intersect(&sparse, &col), "sparse");

        // Clustered: bursts of adjacent probes separated by long gaps.
        let mut clustered = Vec::new();
        let mut at = 0usize;
        while let Some(run) = col.runs.get(at) {
            let burst = run.value..run.value + g.gen_range(1..40u32);
            clustered.extend(burst.filter(|_| g.gen_bool(0.8)));
            at += g.gen_range(3_000..12_000usize);
        }
        clustered.dedup();
        assert!(clustered.windows(2).all(|w| w[0] < w[1]));
        let want = naive_intersect(&clustered, &col);
        assert_eq!(intersect(&clustered, &col.runs), want, "clustered");
    });
}

#[test]
fn gallop_handles_degenerate_shapes() {
    let empty = Column { runs: vec![] };
    let single = Column { runs: vec![Run { value: 7, start: 0, len: 1 }] };
    let adjacent = Column {
        runs: (0..5).map(|i| Run { value: i, start: i, len: 1 }).collect(),
    };
    for col in [&empty, &single, &adjacent] {
        for values in [vec![], vec![0], vec![7], vec![0, 1, 2, 3, 4, 7, 9]] {
            assert_eq!(intersect(&values, &col.runs), naive_intersect(&values, col));
        }
    }
}

#[test]
fn gallop_lower_bound_agrees_with_partition_point() {
    prop_check(0x72, 64, |g| {
        let col = random_column(g);
        let runs = &col.runs;
        let hi = runs.last().map(|r| r.value + 3).unwrap_or(10);
        for _ in 0..8 {
            let v = g.gen_range(0..hi.max(1));
            let want = runs.partition_point(|r| r.value < v);
            // Any `from` below or at the true lower bound satisfies the
            // precondition (predicate holds on everything before `from`).
            let from = g.gen_range(0..want + 1);
            assert_eq!(gallop_lower_bound(runs, from, v), want, "from {from}, v {v}");
            // `gallop_partition_point` with the same predicate, from 0.
            assert_eq!(gallop_partition_point(runs, 0, |r| r.value < v), want);
        }
    });
}

/// From every start position of `runs`, an ascending lookup sequence —
/// with repeats, 0 and `u32::MAX` — through `lower_bound`, carrying the
/// position as a cursor does.
fn assert_kernel_is_partition_point(
    g: &mut Gen,
    runs: &[Run],
    name: &str,
    lower_bound: fn(&[Run], usize, u32) -> usize,
) {
    let hi = runs.last().map_or(6, |r| r.value + 3);
    for start in 0..=runs.len() {
        // Everything before `start` must be smaller than the first lookup.
        let floor = start.checked_sub(1).map_or(0, |i| runs[i].value + 1);
        let mut values: Vec<u32> =
            (0..6).map(|_| g.gen_range(floor..hi.max(floor + 1))).collect();
        values.extend([floor, u32::MAX]);
        if start == 0 {
            values.push(0);
        }
        values.extend_from_within(..); // every lookup twice
        values.sort_unstable();
        let mut at = start;
        for &v in &values {
            at = lower_bound(runs, at, v);
            let want = runs.partition_point(|r| r.value < v);
            assert_eq!(at, want, "{name}: {} runs from {start}, value {v}", runs.len());
        }
    }
}

#[test]
fn windowed_walk_and_gallops_are_partition_point_from_every_start() {
    // Every length around the window (fewer than four runs left is the
    // tail case), then long columns.
    prop_check(0x76, 24, |g| {
        for len in (0..=9).chain([g.gen_range(10..2000usize)]) {
            let mut value = g.gen_range(0..3u32);
            let runs: Vec<Run> = (0..len as u32)
                .map(|start| {
                    value += if g.gen_bool(0.5) { 1 } else { g.gen_range(2..9u32) };
                    Run { value, start, len: 1 }
                })
                .collect();
            // The ablation's walk baseline; no query path runs it.
            assert_kernel_is_partition_point(g, &runs, "window", |runs, from, v| {
                window_partition_point(runs, from, |r| r.value < v)
            });
            assert_kernel_is_partition_point(g, &runs, "window-gallop", window_gallop_lower_bound);
            assert_kernel_is_partition_point(g, &runs, "gallop", gallop_lower_bound);
        }
    });
}

#[test]
fn hinted_lookups_agree_with_unhinted_under_any_hint() {
    prop_check(0x73, 64, |g| {
        let col = random_column(g);
        let hi = col.runs.last().map(|r| r.value + 3).unwrap_or(10);
        for _ in 0..8 {
            // Hints are arbitrary: stale, backwards, or past the end —
            // the validated restart must keep the answer exact.
            let hint = g.gen_range(0..col.runs.len() + 3);
            let v = g.gen_range(0..hi.max(1));
            let (_, hit) = col.find_hinted(v, hint);
            assert_eq!(hit, col.find(v), "find_hinted({v}, {hint})");
        }
    });
}

#[test]
fn ascending_probe_chain_with_carried_hints_is_exact() {
    // The production pattern: probes ascend and each lookup's returned
    // index seeds the next hint.
    prop_check(0x74, 32, |g| {
        let col = random_column(g);
        let values = random_probes(g, &col);
        let mut hint = 0usize;
        for &v in &values {
            let (h, hit) = col.find_hinted(v, hint);
            hint = h;
            assert_eq!(hit, col.find(v), "carried-hint find({v})");
        }
    });
}
