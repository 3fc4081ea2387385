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
//! The implementation is std-only ([`std::thread::scope`], atomics):
//!
//! * the task list is split into one contiguous *stripe* per worker, each
//!   with an atomic claim cursor;
//! * the **calling thread is worker 0**; `workers − 1` scoped threads are
//!   started beside it, so `Fixed(n)` occupies `n` threads, not `n + 1`,
//!   and a map nested inside a task (batch → shard scatter) adds only the
//!   threads it asks for;
//! * a worker drains its own stripe first, then **steals** from the other
//!   stripes by advancing their cursors (fetch-add claiming — each task is
//!   executed exactly once, no locks on the hot path);
//! * every worker keeps its own `(index, value)` list and hands it back
//!   through its join handle — nothing is sent or woken per item; the
//!   caller places the lists into a pre-sized output vector, which is the
//!   deterministic merge;
//! * a panicking task poisons the pool: remaining workers stop claiming
//!   work, and the panic payload of the lowest panicking index is
//!   re-raised on the calling thread after all workers have been joined,
//!   so a failed task fails the whole map instead of hanging it.
//!
//! This module lives in the base crate so both the index builder
//! (`xtk-index`) and the serving layers (`xtk-core`, which re-exports it
//! as `xtk_core::pool`) can share one implementation.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// Exactly `n` workers, the calling thread among them (clamped to at
    /// least 1).
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
/// workers: the calling thread and `par.workers() − 1` scoped threads.
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

    // What worker `w` does: its own stripe first, then it steals from the
    // others in order.  It keeps what it computed; nobody is woken per item.
    let work = |w: usize| {
        let mut done: Vec<(usize, std::thread::Result<O>)> = Vec::new();
        for victim in 0..workers {
            let stripe = &stripes[(w + victim) % workers];
            loop {
                if poisoned.load(Ordering::Relaxed) {
                    return done;
                }
                let i = stripe.next.fetch_add(1, Ordering::Relaxed);
                if i >= stripe.end {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                if r.is_err() {
                    poisoned.store(true, Ordering::Relaxed);
                }
                done.push((i, r));
            }
        }
        done
    };

    let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();

    std::thread::scope(|s| {
        let work = &work;
        let spawned: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        // The caller is worker 0; the others hand their lists back through
        // their join handles (`work` catches every panic of `f`, so a join
        // only fails on a bug in the loop above, which is re-raised as is).
        let lists = std::iter::once(work(0))
            .chain(spawned.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
        for (i, r) in lists.flatten() {
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
    use crate::testutil::panic_message;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

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
        for (workers, n) in [(8, 500)]
            .into_iter()
            .chain((1..=4).flat_map(|w| [0, 1, 2, 3, 7, 64].map(|n| (w, n))))
        {
            let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let items: Vec<usize> = (0..n).collect();
            let got = parallel_map(Parallelism::Fixed(workers), &items, |i, &item| {
                counters[i].fetch_add(1, Ordering::Relaxed);
                item
            });
            assert_eq!(got, items, "fixed({workers}) n={n}: output in input order");
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "fixed({workers}) n={n} task {i}");
            }
        }
    }

    #[test]
    fn the_caller_is_a_worker_and_fixed_n_is_n_threads() {
        let caller = std::thread::current().id();
        for workers in 2..=4 {
            // One item per worker, none finishing before all have started:
            // nobody can steal, so each worker's thread shows up once.
            let all_in = Barrier::new(workers);
            let items: Vec<usize> = (0..workers).collect();
            let ids = parallel_map(Parallelism::Fixed(workers), &items, |_, _| {
                all_in.wait();
                std::thread::current().id()
            });
            let distinct: HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), workers, "one thread per worker");
            assert_eq!(ids[0], caller, "the caller drains stripe 0");
            // Many items, free stealing: still no thread beyond the n.
            let items: Vec<usize> = (0..64).collect();
            let ids = parallel_map(Parallelism::Fixed(workers), &items, |_, _| {
                std::thread::yield_now();
                std::thread::current().id()
            });
            let distinct: HashSet<_> = ids.iter().collect();
            assert!(distinct.len() <= workers, "{} threads for fixed({workers})", distinct.len());
        }
    }

    #[test]
    fn nested_maps_return_in_order() {
        // The batch -> shard-scatter shape: a map inside a task of a map.
        let outer: Vec<usize> = (0..7).collect();
        let inner: Vec<usize> = (0..5).collect();
        let got = parallel_map(Parallelism::Fixed(2), &outer, |_, &o| {
            parallel_map(Parallelism::Fixed(2), &inner, |_, &i| o * 10 + i)
        });
        let expect: Vec<Vec<usize>> =
            outer.iter().map(|o| inner.iter().map(|i| o * 10 + i).collect()).collect();
        assert_eq!(got, expect);
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
    fn panics_of_either_stripe_reach_the_caller_lowest_index_first() {
        // Two items, two workers, both inside `f` before either leaves: item
        // 0 runs on the caller, item 1 on the spawned thread.
        let caller = std::thread::current().id();
        for panicking in [vec![0], vec![1], vec![0, 1]] {
            let both_in = Barrier::new(2);
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(Parallelism::Fixed(2), &[0usize, 1], |i, _| {
                    both_in.wait();
                    assert_eq!(std::thread::current().id() == caller, i == 0);
                    if panicking.contains(&i) {
                        panic!("boom at {i}");
                    }
                })
            }));
            let msg = panic_message(&r.expect_err("re-raised on the caller"));
            assert_eq!(msg, format!("boom at {}", panicking[0]), "{panicking:?}");
        }
    }

    /// Raises its flag when dropped — by the unwinding of a panic, after the
    /// panic hook has printed.
    struct RaiseOnDrop<'a>(&'a AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panic_stops_the_other_workers_claiming() {
        // The first item of the caller's stripe, then of the spawned worker's.
        for panicking in [0, 1000] {
            let unwinding = AtomicBool::new(false);
            let ran = AtomicU64::new(0);
            let items: Vec<usize> = (0..2000).collect();
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(Parallelism::Fixed(2), &items, |i, _| {
                    if i == panicking {
                        let _raise = RaiseOnDrop(&unwinding);
                        panic!("boom at {i}");
                    }
                    // Nothing else finishes before the panic is on its way
                    // to the pool, so what runs from here on ran after it.
                    while !unwinding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..20 {
                        std::thread::yield_now();
                    }
                })
            }));
            assert_eq!(panic_message(&r.expect_err("re-raised")), format!("boom at {panicking}"));
            // The other worker meets the poison flag at its next claim or
            // the one after, long before it has drained its own stripe.
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran < 1000, "{ran} items ran after the panic at {panicking}");
        }
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
