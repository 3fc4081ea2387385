//! The workspace's one lock helper: every mutex of the library crates is
//! taken through [`lock`], which recovers a poisoned guard and, in debug
//! builds, checks the one lock order.
//!
//! Each lock site names its [`LockRank`].  A thread may take a lock only
//! while every lock it already holds ranks strictly lower; taking a rank
//! at or below one it holds is a potential deadlock (two threads taking
//! the same pair in opposite orders), and a debug build panics on the
//! spot, naming both.  Equal ranks never nest: the sharded caches hand
//! out one shard guard at a time.  In release builds [`lock`] is
//! `Mutex::lock` plus poison recovery and nothing else — no thread-local
//! is read, [`Guard`] is `MutexGuard` itself.
//!
//! The check runs wherever a debug test takes a lock, so the batch
//! differentials at `Parallelism::Fixed(n)` drive every real lock path
//! under it.

use std::sync::{Mutex, MutexGuard};

/// A lock's place in the acquisition order, lowest first.  The set is
/// closed: a new lock gets a variant here, placed by what it is taken
/// inside of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// `DiskColumnStore`'s decode ticket, held across a block's decode
    /// and its insert into the block cache.
    DecodeTicket,
    /// One shard of the block cache.
    BlockCacheShard,
    /// One shard of the plan cache or the result cache.
    StampedCacheShard,
    /// The metrics registry's counter and histogram maps.
    Metrics,
    /// The tracer's event log.
    TraceLog,
}

/// Locks `m`, recovering the guard when another thread panicked while
/// holding it: everything guarded in the workspace (cache shards, the
/// decode ticket, the metrics maps, the event log) keeps its invariants
/// between statements, and the pool has already propagated the panic.
fn recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The guard [`lock`] returns: `MutexGuard` in release builds.
#[cfg(not(debug_assertions))]
pub type Guard<'a, T> = MutexGuard<'a, T>;

/// Locks `m` at `rank` (see the module docs), recovering a poisoned guard.
#[cfg(not(debug_assertions))]
#[inline]
pub fn lock<T>(m: &Mutex<T>, _rank: LockRank) -> Guard<'_, T> {
    recover(m)
}

#[cfg(debug_assertions)]
pub use ranked::{assert_none_held, lock, Guard};

/// The debug build's rank check: the ranks a thread holds, one bit each.
#[cfg(debug_assertions)]
mod ranked {
    use super::{recover, LockRank};
    use std::cell::Cell;
    use std::ops::{Deref, DerefMut};
    use std::sync::{Mutex, MutexGuard};

    const RANKS: [LockRank; 5] = [
        LockRank::DecodeTicket,
        LockRank::BlockCacheShard,
        LockRank::StampedCacheShard,
        LockRank::Metrics,
        LockRank::TraceLog,
    ];

    thread_local! {
        /// Bit `r` set: this thread holds a lock of rank `r`.
        static HELD: Cell<u8> = const { Cell::new(0) };
    }

    fn bit(rank: LockRank) -> u8 {
        1 << rank as u8
    }

    fn held() -> Vec<LockRank> {
        let held = HELD.get();
        RANKS.into_iter().filter(|&r| held & bit(r) != 0).collect()
    }

    /// A `MutexGuard` that clears its rank from the thread's set on drop.
    #[derive(Debug)]
    pub struct Guard<'a, T> {
        guard: MutexGuard<'a, T>,
        rank: LockRank,
    }

    impl<T> Deref for Guard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T> DerefMut for Guard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<T> Drop for Guard<'_, T> {
        fn drop(&mut self) {
            let rank = bit(self.rank);
            HELD.set(HELD.get() & !rank);
        }
    }

    /// Locks `m` at `rank` (see the module docs), recovering a poisoned
    /// guard.
    ///
    /// # Panics
    ///
    /// If this thread already holds a lock of `rank` or a higher one.
    pub fn lock<T>(m: &Mutex<T>, rank: LockRank) -> Guard<'_, T> {
        assert!(
            HELD.get() < bit(rank),
            "lock order: taking {rank:?} while holding {:?}",
            held()
        );
        let guard = recover(m);
        HELD.set(HELD.get() | bit(rank));
        Guard { guard, rank }
    }

    /// Panics if this thread holds any ranked lock: `what` is about to
    /// wait on other threads, which may need it.
    pub fn assert_none_held(what: &str) {
        assert!(HELD.get() == 0, "{what} entered holding {:?}", held());
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    const ORDER: [LockRank; 5] = [
        LockRank::DecodeTicket,
        LockRank::BlockCacheShard,
        LockRank::StampedCacheShard,
        LockRank::Metrics,
        LockRank::TraceLog,
    ];

    /// Runs `f` and returns its panic's message, `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(err.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// The ranks form one strict order, so no two lock sites can wait on
    /// each other: taking all five nested, lowest first, passes the check
    /// and leaves nothing held once the guards drop.
    #[test]
    fn acyclic_workspace_is_clean() {
        assert!(ORDER.windows(2).all(|w| w[0] < w[1]), "{ORDER:?}");
        let ms: Vec<Mutex<u32>> = ORDER.iter().map(|_| Mutex::new(0)).collect();
        {
            let mut guards: Vec<Guard<'_, u32>> =
                ms.iter().zip(ORDER).map(|(m, r)| lock(m, r)).collect();
            for g in &mut guards {
                **g += 1;
            }
        }
        assert_none_held("parallel_map");
        assert!(ms.iter().all(|m| *lock(m, LockRank::TraceLog) == 1));
    }

    #[test]
    fn nested_direct_acquisition_makes_an_edge() {
        let (a, b) = (Mutex::new(1u32), Mutex::new(2u32));
        let ga = lock(&a, LockRank::DecodeTicket);
        let gb = lock(&b, LockRank::BlockCacheShard);
        assert_eq!((*ga, *gb), (1, 2));
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        {
            let _ga = lock(&a, LockRank::DecodeTicket);
            let _gb = lock(&b, LockRank::BlockCacheShard);
        }
        let msg = panic_message(|| {
            let _gb = lock(&b, LockRank::BlockCacheShard);
            let _ga = lock(&a, LockRank::DecodeTicket);
        });
        assert_eq!(
            msg.as_deref(),
            Some("lock order: taking DecodeTicket while holding [BlockCacheShard]")
        );
        // The unwind dropped the outer guard: nothing stays held.
        assert_none_held("parallel_map");
    }

    #[test]
    fn transitive_acquisition_through_a_call_is_seen() {
        fn take_ticket(a: &Mutex<()>) {
            let _ga = lock(a, LockRank::DecodeTicket);
        }
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let msg = panic_message(|| {
            let _gb = lock(&b, LockRank::BlockCacheShard);
            take_ticket(&a);
        });
        assert_eq!(
            msg.as_deref(),
            Some("lock order: taking DecodeTicket while holding [BlockCacheShard]")
        );
    }

    /// Re-locking a held mutex would deadlock; the check panics first.
    #[test]
    fn self_reacquisition_is_a_cycle() {
        fn again(a: &Mutex<()>) {
            let _g = lock(a, LockRank::Metrics);
        }
        let a = Mutex::new(());
        let msg = panic_message(|| {
            let _g = lock(&a, LockRank::Metrics);
            again(&a);
        });
        assert_eq!(
            msg.as_deref(),
            Some("lock order: taking Metrics while holding [Metrics]")
        );
    }

    #[test]
    #[should_panic(expected = "taking BlockCacheShard while holding [BlockCacheShard]")]
    fn equal_ranks_do_not_nest() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let _a = lock(&a, LockRank::BlockCacheShard);
        let _b = lock(&b, LockRank::BlockCacheShard);
    }

    #[test]
    fn lock_held_across_pool_submit_is_flagged() {
        let a = Mutex::new(());
        let msg = panic_message(|| {
            let _g = lock(&a, LockRank::StampedCacheShard);
            assert_none_held("parallel_map");
        });
        assert_eq!(
            msg.as_deref(),
            Some("parallel_map entered holding [StampedCacheShard]")
        );
    }

    #[test]
    fn temporary_guard_does_not_extend_past_statement() {
        let a = Mutex::new(0u32);
        *lock(&a, LockRank::TraceLog) += 1;
        assert_none_held("parallel_map");
        let _g = lock(&a, LockRank::DecodeTicket);
    }
}
