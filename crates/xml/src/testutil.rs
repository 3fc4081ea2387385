//! Self-contained randomized-testing toolkit: a deterministic PRNG, a
//! minimal shrinking property-test runner, and [`TempPath`] for the tests
//! that need the filesystem.
//!
//! The workspace builds fully offline with zero external crates, so the
//! roles of `rand` and `proptest` are played in-tree:
//!
//! * [`Rng`] — an xorshift64\* generator.  Tiny, fast, and deterministic
//!   across platforms; statistically far better than its size suggests
//!   (the multiply output-scrambler fixes plain xorshift's weak low bits).
//!   Seeded from any `u64` via a splitmix64 scramble so that adjacent
//!   seeds (0, 1, 2, …) still produce uncorrelated streams.
//! * [`prop_check`] — runs a property closure over many generated cases
//!   with a *size* parameter that ramps up across cases (small inputs
//!   first, exactly like QuickCheck).  On failure it shrinks by replaying
//!   the same case seed at smaller sizes, then reports the minimal failing
//!   `(seed, case, size)` triple so the failure replays with
//!   [`prop_replay`].
//!
//! Shrinking by size-replay is deliberately simpler than proptest's
//! per-value shrink trees: generators here derive *all* structure from
//! `Gen::size()`, so a smaller size re-generates a structurally smaller
//! input from the same stream.  That covers the cases that matter
//! (shorter vectors, shallower trees, shorter strings) without carrying a
//! strategy/value-tree framework.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// splitmix64: the standard seed scrambler / stream splitter.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A deterministic xorshift64\* pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.  Any seed is fine, including 0.
    pub fn seed_from_u64(seed: u64) -> Rng {
        // xorshift's state must be non-zero; splitmix64 maps 0 to a
        // perfectly good constant and decorrelates nearby seeds.
        let mut state = splitmix64(seed);
        if state == 0 {
            state = 0x9e3779b97f4a7c15;
        }
        Rng { state }
    }

    /// Next raw 64 random bits (xorshift64\*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Next 32 random bits (the high half — xorshift64\*'s best bits).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform draw from a half-open range, e.g. `rng.gen_range(0..n)`.
    ///
    /// Panics if the range is empty, matching `rand`'s contract.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone keeps the map exactly uniform.
        let zone = bound.wrapping_neg() % bound; // 2^64 mod bound
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= zone || zone == 0 {
                return hi;
            }
        }
    }

    /// A uniformly chosen element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleRange: Sized {
    fn sample(range: Range<Self>, rng: &mut Rng) -> Self;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(range: Range<Self>, rng: &mut Rng) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as u64) - (range.start as u64);
                range.start + rng.bounded_u64(span) as $t
            }
        }
    )*};
}
impl_sample_range!(usize, u64, u32, u16, u8);

/// Per-case context handed to a [`prop_check`] property: a seeded [`Rng`]
/// plus the current *size* bound that generators should scale with.
pub struct Gen {
    rng: Rng,
    size: usize,
}

impl Gen {
    /// A generator for one specific `(seed, size)` point.
    pub fn new(seed: u64, size: usize) -> Gen {
        Gen { rng: Rng::seed_from_u64(seed), size }
    }

    /// Current size bound.  Generators should produce inputs whose
    /// "length" is at most roughly this — that is what makes size-replay
    /// shrinking work.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The underlying PRNG, for draws that don't scale with size.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A length in `[0, size]`, the usual way to pick a collection size.
    /// (A random draw, not a container length — there is no `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> usize {
        let s = self.size;
        self.rng.gen_range(0..s + 1)
    }

    /// A length in `[min, max(min, size)]`.
    pub fn len_at_least(&mut self, min: usize) -> usize {
        let hi = self.size.max(min);
        self.rng.gen_range(min..hi + 1)
    }

    /// Shorthand for `self.rng().gen_range(range)`.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        self.rng.gen_range(range)
    }

    /// Shorthand for `self.rng().gen_bool(p)`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}

/// Smallest size the ramp starts from.
const MIN_SIZE: usize = 2;
/// Largest size the ramp reaches on the final case.
const MAX_SIZE: usize = 100;

/// Runs `property` over `cases` generated inputs, ramping the size bound
/// from [`MIN_SIZE`] up to [`MAX_SIZE`].
///
/// Each case gets an independent deterministic stream derived from
/// `(seed, case)`.  If a case panics, the runner *shrinks* it by
/// replaying the same stream at every smaller size and keeps the
/// smallest size that still fails, then panics with a replay line:
///
/// ```text
/// property failed (seed=42, case=17, size=5): assertion failed: ...
/// replay with: prop_replay(42, 17, 5, property)
/// ```
pub fn prop_check<F>(seed: u64, cases: u32, property: F)
where
    F: Fn(&mut Gen),
{
    for case in 0..cases {
        let size = if cases <= 1 {
            MAX_SIZE
        } else {
            MIN_SIZE + (case as usize * (MAX_SIZE - MIN_SIZE)) / (cases as usize - 1)
        };
        let case_seed = splitmix64(seed ^ (case as u64).wrapping_mul(0x9e3779b97f4a7c15));
        if let Err(payload) = run_case(&property, case_seed, size) {
            // Shrink: smallest size (same stream) that still fails.
            let mut best = (size, payload);
            for s in MIN_SIZE..size {
                if let Err(p) = run_case(&property, case_seed, s) {
                    best = (s, p);
                    break;
                }
            }
            let (min_size, payload) = best;
            let msg = panic_message(&payload);
            // The panic IS the contract here: prop_check reports a failing
            // property by panicking with the replay line.
            // lint:allow(panic)
            panic!(
                "property failed (seed={seed}, case={case}, size={min_size}): {msg}\n\
                 replay with: prop_replay({seed}, {case}, {min_size}, property)"
            );
        }
    }
}

/// Re-runs a single failing case reported by [`prop_check`].
pub fn prop_replay<F>(seed: u64, case: u32, size: usize, property: F)
where
    F: Fn(&mut Gen),
{
    let case_seed = splitmix64(seed ^ (case as u64).wrapping_mul(0x9e3779b97f4a7c15));
    property(&mut Gen::new(case_seed, size));
}

fn run_case<F>(property: &F, case_seed: u64, size: usize) -> Result<(), Box<dyn std::any::Any + Send>>
where
    F: Fn(&mut Gen),
{
    catch_unwind(AssertUnwindSafe(|| {
        property(&mut Gen::new(case_seed, size));
    }))
}

pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Assertion macro for property bodies (an alias of `assert!` — kept so
/// ported proptest code reads unchanged).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion for property bodies (alias of `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// A path under the system temp directory that is this value's alone: the
/// name carries the process id and a process-wide counter, so neither
/// another test thread nor another test process can pick it.  Nothing is
/// created; whatever the test put there — a file or a directory tree — is
/// removed when the value drops.
#[derive(Debug)]
pub struct TempPath(std::path::PathBuf);

impl TempPath {
    /// A fresh path whose file name starts with `tag`.
    pub fn new(tag: &str) -> TempPath {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id())))
    }
}

impl std::ops::Deref for TempPath {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl AsRef<std::path::Path> for TempPath {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        // Errors (nothing was created, or a file where a tree was tried)
        // are what the other call is for.
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_works() {
        let mut r = Rng::seed_from_u64(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(5..15usize);
            assert!((5..15).contains(&v));
            seen[v - 5] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = Rng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
        let mut r = Rng::seed_from_u64(5);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        let mut r = Rng::seed_from_u64(6);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn prop_check_passes_good_property() {
        prop_check(42, 64, |g| {
            let n = g.len();
            let v: Vec<u32> = (0..n).map(|_| g.rng().next_u32()).collect();
            let mut w = v.clone();
            w.reverse();
            w.reverse();
            prop_assert_eq!(v, w);
        });
    }

    #[test]
    fn prop_check_reports_and_shrinks_failures() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            prop_check(7, 64, |g| {
                // Fails whenever the generated length exceeds 4 — the
                // shrinker must walk the size back down.
                let n = g.len_at_least(0);
                prop_assert!(n <= 4, "too long: {n}");
            });
        }));
        let msg = panic_message(&r.expect_err("property must fail"));
        assert!(msg.contains("property failed"), "{msg}");
        assert!(msg.contains("replay with"), "{msg}");
        // The shrunk size must be small: size 5 can already generate n=5,
        // so the reported size should be single-digit, not ~100.
        let size: usize = msg
            .split("size=")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .and_then(|s| s.parse().ok())
            .expect("size in message");
        assert!(size <= 10, "shrunk size {size}: {msg}");
    }

    #[test]
    fn prop_replay_reproduces() {
        // A failing (seed, case, size) found by prop_check replays to the
        // same failure through prop_replay.
        let prop = |g: &mut Gen| {
            let n = g.len();
            prop_assert!(n < MAX_SIZE, "hit max size");
        };
        let r = catch_unwind(AssertUnwindSafe(|| prop_check(1, 16, prop)));
        if let Err(payload) = r {
            let msg = panic_message(&payload);
            let grab = |key: &str| -> u64 {
                msg.split(key)
                    .nth(1)
                    .and_then(|s| s.split([',', ')']).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap()
            };
            let (seed, case, size) = (grab("seed="), grab("case="), grab("size="));
            let replay = catch_unwind(AssertUnwindSafe(|| {
                prop_replay(seed, case as u32, size as usize, prop)
            }));
            assert!(replay.is_err(), "replay must reproduce the failure");
        }
        // (If the property never failed in 16 cases, nothing to replay —
        // the sizes ramp to 100 so in practice it always fails.)
    }

    #[test]
    fn temp_paths_are_distinct_and_cleaned_up() {
        let (a, b) = (TempPath::new("xtk_testutil"), TempPath::new("xtk_testutil"));
        assert_ne!(&*a, &*b);
        std::fs::write(&a, b"x").unwrap();
        std::fs::create_dir_all(b.join("nested")).unwrap();
        let (file, dir) = (a.to_path_buf(), b.to_path_buf());
        drop((a, b));
        assert!(!file.exists() && !dir.exists());
    }
}
