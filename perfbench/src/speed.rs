//! A yardstick for the machine's speed at the moment of measuring.
//!
//! The sandbox this benchmark runs in changes speed under it: the same
//! binary on the same inputs has run 35 % slower for minutes at a time
//! (noisy neighbours; user CPU time tracks wall time, so it is not
//! pre-emption), and it wanders by ±10 % within seconds.  Then no length
//! of run and no median helps — two sets of runs of one commit disagree by
//! more than any useful bound (see `NOISE.md`).  So every run also times a
//! fixed kernel that uses none of the code under test, before and after
//! every set-up and every pass, and reports each of them *at reference
//! speed*:
//!
//! ```text
//! reported time = measured time ÷ (mean of the two kernel times around it ÷ REFERENCE_NS)
//! ```
//!
//! The kernel mixes what the engines mix: sorting and binary-searching an
//! L2-sized array (branches, short-range memory) and a dependent random
//! walk over 16 MiB (memory latency; the top-K workloads follow the walk,
//! the disk workload the search).  Raw times and the speed factor are
//! always printed beside the reported ones.  It runs on one thread: the
//! host's speed changes hit both virtual processors alike, so the
//! two-worker workload gains as much from it as the serial ones (ten runs
//! on ten seeds: 17–23 % quartile spread as measured, 5–12 % rescaled).

use std::time::Instant;

/// What one kernel run takes on this sandbox at its usual speed; chosen
/// so that reported times are close to raw ones here.  A constant of the
/// benchmark: changing it rescales every time-based metric.
pub const REFERENCE_NS: f64 = 33_000_000.0;

const SORT_LEN: usize = 1 << 18;
const WALK_LEN: usize = 1 << 22;
const WALK_STEPS: usize = 150_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

pub struct Yardstick {
    /// One random cycle through `WALK_LEN` slots.
    walk: Vec<u32>,
}

impl Yardstick {
    pub fn new() -> Self {
        // Sattolo's shuffle: a single cycle, so the walk never falls into
        // a short loop that would fit a cache.
        let mut walk: Vec<u32> = (0..WALK_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..WALK_LEN).rev() {
            walk.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Yardstick { walk }
    }

    /// Nanoseconds one run of the kernel takes right now.
    pub fn measure(&self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut v: Vec<u32> = (0..SORT_LEN)
            .map(|_| (xorshift(&mut x) >> 32) as u32)
            .collect();
        v.sort_unstable();
        let mut sum = 0usize;
        for _ in 0..SORT_LEN {
            let key = (xorshift(&mut x) >> 32) as u32;
            sum += v.partition_point(|&y| y < key);
        }
        let mut at = sum % WALK_LEN;
        for _ in 0..WALK_STEPS {
            at = self.walk[at] as usize;
        }
        std::hint::black_box(at);
        t.elapsed().as_nanos() as f64
    }
}

/// How much slower than reference speed the machine was over `readings`
/// (1.0 = reference speed, 1.3 = everything took 30 % longer).
pub fn slowdown(readings: &[f64]) -> f64 {
    crate::measure::median(readings) / REFERENCE_NS
}

/// The slowdown of each stretch of work bracketed by two consecutive
/// readings: `readings[i]` was taken just before stretch `i` and
/// `readings[i + 1]` just after it.
pub fn slowdown_between(readings: &[f64]) -> Vec<f64> {
    readings
        .windows(2)
        .map(|pair| (pair[0] + pair[1]) / 2.0 / REFERENCE_NS)
        .collect()
}
