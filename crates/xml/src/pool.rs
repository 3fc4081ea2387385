//! A scoped, work-stealing thread pool for deterministic data parallelism.
//!
//! Every parallel stage in `xtk` — index construction, the workers of a
//! query batch, the scatter over shards — is a *map over an indexed task
//! list whose results are merged by index*.  (A single query runs on its
//! caller's thread.)  That shape makes parallelism an execution detail:
//! the output of [`parallel_map`] is bit-identical for any worker count,
//! because result slot `i` always holds the value computed from item `i`
//! and the caller consumes slots in index order.
//!
//! The implementation is std-only ([`std::thread::scope`], channels,
//! atomics):
//!
//! * the task list is split into one contiguous *stripe* per worker, each
//!   with an atomic claim cursor;
//! * a worker drains its own stripe first, then **steals** from the other
//!   stripes by advancing their cursors (fetch-add claiming — each task is
//!   executed exactly once, no locks on the hot path);
//! * results flow back over an mpsc channel as `(index, value)` pairs and
//!   are placed into a pre-sized output vector — the deterministic merge;
//! * a panicking task poisons the pool: remaining workers stop claiming
//!   work, and the panic payload is re-raised on the calling thread after
//!   all workers have parked, so a failed task fails the whole map instead
//!   of hanging it.
//!
//! This module lives in the base crate so both the index builder
//! (`xtk-index`) and the serving layers (`xtk-core`, which re-exports it
//! as `xtk_core::pool`) can share one implementation.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Degree of parallelism for index construction, batch execution and the
/// shard scatter.
///
/// Parallelism never changes results — every parallel path merges
/// deterministically — so this knob trades threads for wall-clock only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded reference execution (the default).
    #[default]
    Serial,
    /// Exactly `n` workers (clamped to at least 1).
    Fixed(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this machine.
    pub fn workers(self) -> usize {
        // `available_parallelism` reads the affinity mask and the cgroup
        // files on every call (≈ 20 µs); `parallel_map` asks once a map.
        static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => *HARDWARE_THREADS.get_or_init(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Fixed(n) => write!(f, "fixed({n})"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// One stripe of the task list: `[next, end)` is still unclaimed.
struct Stripe {
    next: AtomicUsize,
    end: usize,
}

/// Applies `f` to every item of `items`, returning the results in item
/// order regardless of scheduling.
///
/// With one worker (or one item) this degenerates to a plain serial map on
/// the calling thread — no threads are spawned, no overhead is paid.  With
/// more, the items are claimed work-stealing style by `par.workers()`
/// scoped threads.
///
/// # Panics
///
/// If `f` panics for any item, the panic is propagated to the caller (the
/// first panicking index wins; other workers stop claiming new tasks).
pub fn parallel_map<I, O, F>(par: Parallelism, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    let workers = par.workers().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }

    // One contiguous stripe per worker; sizes differ by at most one.
    let stripes: Vec<Stripe> = (0..workers)
        .map(|w| {
            let start = n * w / workers;
            let end = n * (w + 1) / workers;
            Stripe { next: AtomicUsize::new(start), end }
        })
        .collect();
    let poisoned = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<O>)>();

    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();

    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let stripes = &stripes;
            let poisoned = &poisoned;
            let f = &f;
            s.spawn(move || {
                // Own stripe first, then steal from the others in order.
                for victim in 0..workers {
                    let stripe = &stripes[(w + victim) % workers];
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            return;
                        }
                        let i = stripe.next.fetch_add(1, Ordering::Relaxed);
                        if i >= stripe.end {
                            break;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                        if r.is_err() {
                            poisoned.store(true, Ordering::Relaxed);
                        }
                        // Send failure means the collector bailed; just stop.
                        if tx.send((i, r)).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            match r {
                Ok(v) => out[i] = Some(v),
                Err(p) => panics.push((i, p)),
            }
        }
    });

    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(i, _)| i) {
        resume_unwind(payload);
    }
    out.into_iter()
        .zip(items)
        .enumerate()
        // Every slot was filled: each index is claimed by exactly one
        // fetch_add and its result collected above.  Recomputing a (never
        // observed) missing slot inline keeps the pool panic-free.
        .map(|(i, (slot, item))| match slot {
            Some(v) => v,
            None => f(i, item),
        })
        .collect()
}

/// Splits `0..n` into at most `chunks` contiguous ranges of near-equal
/// size (none empty).  The standard way to build a task list for
/// [`parallel_map`] when per-item work is too small to schedule
/// individually.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    (0..chunks)
        .map(|c| (n * c / chunks)..(n * (c + 1) / chunks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn workers_resolve() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Fixed(0).workers(), 1);
        assert_eq!(Parallelism::Fixed(6).workers(), 6);
    }

    #[test]
    fn auto_resolves_to_the_hardware_threads_and_repeats() {
        let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for _ in 0..3 {
            assert_eq!(Parallelism::Auto.workers(), hardware);
        }
    }

    #[test]
    fn deterministic_merge_ordering() {
        // Results come back in item order for every worker count, even
        // when later items finish first.
        let items: Vec<usize> = (0..200).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(8),
            Parallelism::Fixed(64),
            Parallelism::Auto,
        ] {
            let got = parallel_map(par, &items, |_, &i| {
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                i * 3
            });
            assert_eq!(got, expect, "{par}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..500).collect();
        parallel_map(Parallelism::Fixed(8), &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn zero_tasks_and_single_task() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::Fixed(8), &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(Parallelism::Fixed(8), &[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn more_tasks_than_workers_and_vice_versa() {
        let items: Vec<usize> = (0..1000).collect();
        let got = parallel_map(Parallelism::Fixed(3), &items, |i, &x| {
            assert_eq!(i, x);
            x
        });
        assert_eq!(got, items);
        // More workers than tasks: workers are clamped to the task count.
        let got = parallel_map(Parallelism::Fixed(100), &items[..4], |_, &x| x);
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_in_worker_propagates() {
        let items: Vec<usize> = (0..100).collect();
        let r = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::Fixed(4), &items, |_, &i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = r.expect_err("panic must propagate, not hang");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 37"), "original payload kept: {msg}");
    }

    #[test]
    fn panic_poisons_but_pool_is_reusable() {
        // After a panicking map, the next map on fresh state works fine
        // (nothing is process-global).
        let items: Vec<usize> = (0..50).collect();
        let _ = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::Fixed(4), &items, |_, &i| {
                if i == 0 {
                    panic!("first task fails");
                }
                i
            })
        });
        let ok = parallel_map(Parallelism::Fixed(4), &items, |_, &i| i + 1);
        assert_eq!(ok[49], 50);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 100] {
            for c in [1usize, 2, 3, 16, 200] {
                let ranges = chunk_ranges(n, c);
                let mut covered = 0;
                for (i, r) in ranges.iter().enumerate() {
                    assert!(!r.is_empty(), "n={n} c={c} chunk {i}");
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, n, "n={n} c={c}");
            }
        }
    }
}
