//! The shared block cache of the disk-resident column store, and the
//! recency core ([`Lru`] behind [`Sharded`]) it shares with `xtk-core`'s
//! plan and result caches.
//!
//! The paper's experiments run in a *hot cache* regime: every block a
//! query touches is decoded once and then served from memory.  The
//! original [`DiskColumnStore`](crate::diskcol::DiskColumnStore)
//! emulated that with an unbounded per-store `HashMap`, which has two
//! problems once queries run concurrently on the work-stealing pool:
//! the map is not thread-safe (so a store could not be shared at all)
//! and it never evicts (so a long-running server's memory grows with
//! the set of blocks ever touched, not the working set).
//!
//! [`BlockCache`] abstracts the policy behind a thread-safe trait so
//! executors can share one cache across stores and workers:
//!
//! * [`ShardedLruCache`] — the production policy: N mutex-protected
//!   shards (keyed by block offset, so contention spreads), each an LRU
//!   over decoded blocks, bounded by a block count or an approximate
//!   byte budget.  Hits, misses and evictions are counted with atomics.
//! * [`ShardedLruCache::unbounded`] — the paper-fidelity setting: same
//!   structure, no eviction; what the experiments of §V assume.
//!
//! Recency is the workspace's one LRU: [`Lru`] (a map into a slot arena
//! threaded by a recency list — never wall clock, eviction order must be
//! deterministic for the bench gate and identical across runs) behind
//! [`Sharded`], a ranked mutex set on `xtk_obs::locks`.  The block cache
//! adds budgets and counters on top; `xtk-core`'s plan and result
//! caches add a `(generation, salt)` stamp.  Correctness never depends
//! on the policy: a block decodes to the same runs no matter when it was
//! evicted, so query results are bit-identical under every capacity,
//! which the differential tests assert.

use crate::columnar::Run;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xtk_obs::locks::{lock, Guard, LockRank};
use xtk_obs::MetricsRegistry;

/// A decoded, immutable block: shared instead of cloned on every hit.
pub type Block = Arc<[Run]>;

/// Approximate resident size of a decoded block, used by byte-bounded
/// capacities.
///
/// A cached block is an `Arc<[Run]>`, so its true resident footprint is
/// the `Arc` allocation header (strong + weak counts, one `usize` each)
/// plus the run payload, plus a flat allowance for the cache's own
/// bookkeeping (map entry, recency node).  Pinned by a unit test so
/// byte-bounded capacities stay meaningful as the block representation
/// evolves.
pub fn block_bytes(runs: &[Run]) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of_val(runs) + 64
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a decode.
    pub misses: u64,
    /// Blocks evicted to stay within capacity.
    pub evictions: u64,
    /// Blocks currently resident.
    pub resident_blocks: u64,
    /// Approximate bytes currently resident (see [`block_bytes`]).
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Publishes the counters into a shared [`MetricsRegistry`] under the
    /// `cache.*` names (add-semantics: publish into a fresh registry for
    /// absolute values, or repeatedly for running totals).
    pub fn publish(&self, metrics: &MetricsRegistry) {
        metrics.add("cache.hits", self.hits);
        metrics.add("cache.misses", self.misses);
        metrics.add("cache.evictions", self.evictions);
        metrics.add("cache.resident_blocks", self.resident_blocks);
        metrics.add("cache.resident_bytes", self.resident_bytes);
    }
}

/// A thread-safe cache of decoded blocks, keyed by absolute file offset
/// (block payloads are immutable once written, so the offset identifies
/// the content).
///
/// Implementations must be shareable across the work-stealing pool:
/// `get`/`insert` take `&self` and synchronize internally.
pub trait BlockCache: Send + Sync + std::fmt::Debug {
    /// Looks a block up, recording a hit or miss.
    fn get(&self, key: u64) -> Option<Block>;
    /// Looks a block up **without** recording a hit or miss.  Used for
    /// the double-checked lookup under the decode lock, so one logical
    /// access never counts twice (the per-store-snapshot double-count
    /// fixed in PR 4).  Recency may still be refreshed.
    fn peek(&self, key: u64) -> Option<Block> {
        self.get(key)
    }
    /// Inserts a decoded block, evicting as needed.
    fn insert(&self, key: u64, block: Block);
    /// Counters so far.
    fn stats(&self) -> CacheStats;
}

/// Capacity policy for [`ShardedLruCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// Never evict (the paper's hot-cache regime).
    Unbounded,
    /// At most this many resident blocks (summed over shards).
    Blocks(usize),
    /// At most approximately this many resident bytes (see
    /// [`block_bytes`]; summed over shards).
    Bytes(usize),
}

/// Default bounded capacity: 4096 blocks ≈ 16 MiB of 4 KiB payloads
/// before decode expansion — enough to keep a realistic working set hot
/// while bounding a long-lived server.
pub const DEFAULT_CAPACITY_BLOCKS: usize = 4096;

/// A fixed set of mutex shards; a caller's hash picks the shard, so
/// threads working on different keys rarely contend.  Every shard is
/// taken at one [`LockRank`].
#[derive(Debug)]
pub struct Sharded<T> {
    shards: Vec<Mutex<T>>,
    rank: LockRank,
}

impl<T: Default> Sharded<T> {
    /// `shards` default-initialised shards (at least one), locked at `rank`.
    pub fn new(shards: usize, rank: LockRank) -> Self {
        Self { shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(), rank }
    }
}

impl<T> Sharded<T> {
    /// Locks shard `hash % len`.
    #[expect(clippy::indexing_slicing, reason = "the shard list is never empty")]
    pub fn lock(&self, hash: u64) -> Guard<'_, T> {
        let i = (hash as usize).checked_rem(self.shards.len()).unwrap_or(0);
        // Index is in range by construction; fall back to the first
        // shard rather than panicking if the modulus were ever wrong.
        lock(self.shards.get(i).unwrap_or_else(|| &self.shards[0]), self.rank)
    }

    /// Locks every shard in turn (one guard alive at a time).
    pub fn lock_all(&self) -> impl Iterator<Item = Guard<'_, T>> {
        self.shards.iter().map(|m| lock(m, self.rank))
    }
}

/// "No slot": the `prev` of the oldest entry, the `next` of the newest,
/// both ends of an empty list.  Past every arena, so a checked read of it
/// finds nothing.
const NIL: usize = usize::MAX;

/// One arena cell of an [`Lru`]: an entry and its neighbours in recency
/// order (slot numbers, [`NIL`] at the ends).
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The next older entry.
    prev: usize,
    /// The next newer entry.
    next: usize,
}

/// The recency core of every cache in the workspace: `key -> value` plus
/// the order the keys were last used in — a doubly linked list threaded
/// through a slot arena, so a touch is a hash probe and a relink.  The
/// list holds the entries in the order of their last `get` / `insert`,
/// which is the order a logical clock would stamp them in: the victim
/// sequence depends on the call sequence alone, never on time or hashing.
#[derive(Debug)]
pub struct Lru<K, V> {
    /// `key -> slot`.
    map: HashMap<K, usize>,
    /// The arena; `None` marks a free slot (listed in `free`).
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    /// The least recently used slot — the next victim.
    oldest: usize,
    /// The most recently used slot.
    newest: usize,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Self { map: HashMap::new(), slots: Vec::new(), free: Vec::new(), oldest: NIL, newest: NIL }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn slot(&self, at: usize) -> Option<&Slot<K, V>> {
        self.slots.get(at)?.as_ref()
    }

    fn slot_mut(&mut self, at: usize) -> Option<&mut Slot<K, V>> {
        self.slots.get_mut(at)?.as_mut()
    }

    /// Takes slot `at` out of the recency list (its own links go stale).
    fn unlink(&mut self, at: usize) {
        let Some((prev, next)) = self.slot(at).map(|slot| (slot.prev, slot.next)) else { return };
        match self.slot_mut(prev) {
            Some(older) => older.next = next,
            None => self.oldest = next,
        }
        match self.slot_mut(next) {
            Some(newer) => newer.prev = prev,
            None => self.newest = prev,
        }
    }

    /// Appends the (unlinked) slot `at` as the most recently used.
    fn link_newest(&mut self, at: usize) {
        let prev = self.newest;
        if let Some(slot) = self.slot_mut(at) {
            slot.prev = prev;
            slot.next = NIL;
        }
        match self.slot_mut(prev) {
            Some(older) => older.next = at,
            None => self.oldest = at,
        }
        self.newest = at;
    }

    /// Reads an entry without refreshing its recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.slot(*self.map.get(key)?).map(|slot| &slot.value)
    }

    /// Reads an entry and makes it the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let at = *self.map.get(key)?;
        if at != self.newest {
            self.unlink(at);
            self.link_newest(at);
        }
        self.slot_mut(at).map(|slot| &mut slot.value)
    }

    /// Inserts (or replaces) an entry as the most recently used and
    /// returns the value it replaced.  Never evicts: the owner decides
    /// what "over budget" means and calls [`Lru::pop_oldest`].
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(held) = self.get(&key) {
            return Some(std::mem::replace(held, value));
        }
        let at = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if let Some(cell) = self.slots.get_mut(at) {
            *cell = Some(Slot { key, value, prev: NIL, next: NIL });
        }
        self.map.insert(key, at);
        self.link_newest(at);
        None
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.map.remove(key)?;
        self.unlink(at);
        let slot = self.slots.get_mut(at)?.take()?;
        self.free.push(at);
        Some(slot.value)
    }

    /// Removes the least recently used entry; `None` when none is left.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        let key = self.slot(self.oldest)?.key;
        self.remove(&key).map(|value| (key, value))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }
}

/// What one block-cache shard guards beside its [`Lru`].
#[derive(Debug, Default)]
struct Shard {
    lru: Lru<u64, Block>,
    /// Approximate resident bytes in this shard.
    bytes: usize,
}

/// The bounded, sharded LRU block cache (see module docs).
#[derive(Debug)]
pub struct ShardedLruCache {
    shards: Sharded<Shard>,
    /// Per-shard capacity slice (`None` = unbounded).
    cap_blocks: Option<usize>,
    cap_bytes: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Blocks are ~4 KiB apart, so the offset is mixed before sharding.
fn mix(key: u64) -> u64 {
    let mut h = key ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

impl ShardedLruCache {
    /// Maximum shard count; small capacities get fewer shards so the
    /// per-shard budget never rounds below one block.
    const MAX_SHARDS: usize = 8;

    fn with_shards(capacity: CacheCapacity, shards: usize) -> Self {
        let shards = shards.max(1);
        let (cap_blocks, cap_bytes) = match capacity {
            CacheCapacity::Unbounded => (None, None),
            // Ceiling division: the summed budget is >= the requested
            // capacity and every shard can hold at least one block.
            CacheCapacity::Blocks(n) => (Some(n.max(1).div_ceil(shards)), None),
            CacheCapacity::Bytes(n) => (None, Some(n.div_ceil(shards).max(1))),
        };
        Self {
            shards: Sharded::new(shards, LockRank::BlockCacheShard),
            cap_blocks,
            cap_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with the given capacity policy.
    pub fn new(capacity: CacheCapacity) -> Self {
        let shards = match capacity {
            // One shard per capacity block up to the cap, so `Blocks(1)`
            // really holds one block in total.
            CacheCapacity::Blocks(n) => n.clamp(1, Self::MAX_SHARDS),
            _ => Self::MAX_SHARDS,
        };
        Self::with_shards(capacity, shards)
    }

    /// The paper-fidelity hot cache: never evicts.
    pub fn unbounded() -> Self {
        Self::new(CacheCapacity::Unbounded)
    }

    /// Bounded by resident block count.
    pub fn with_block_capacity(blocks: usize) -> Self {
        Self::new(CacheCapacity::Blocks(blocks))
    }

    /// Bounded by approximate resident bytes.
    pub fn with_byte_capacity(bytes: usize) -> Self {
        Self::new(CacheCapacity::Bytes(bytes))
    }

    fn evict_over_budget(&self, shard: &mut Shard) {
        let Shard { lru, bytes } = shard;
        loop {
            let over_blocks = self.cap_blocks.is_some_and(|c| lru.len() > c);
            let over_bytes = self.cap_bytes.is_some_and(|c| *bytes > c && lru.len() > 1);
            if !over_blocks && !over_bytes {
                return;
            }
            let Some((_, block)) = lru.pop_oldest() else {
                return;
            };
            *bytes = bytes.saturating_sub(block_bytes(&block));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl BlockCache for ShardedLruCache {
    fn get(&self, key: u64) -> Option<Block> {
        let hit = self.peek(key);
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn peek(&self, key: u64) -> Option<Block> {
        self.shards.lock(mix(key)).lru.get(&key).cloned()
    }

    fn insert(&self, key: u64, block: Block) {
        let mut shard = self.shards.lock(mix(key));
        // Concurrent decode of the same block: first insert wins, the
        // duplicate only refreshes recency.
        if shard.lru.get(&key).is_some() {
            return;
        }
        shard.bytes += block_bytes(&block);
        shard.lru.insert(key, block);
        self.evict_over_budget(&mut shard);
    }

    fn stats(&self) -> CacheStats {
        let mut resident_blocks = 0u64;
        let mut resident_bytes = 0u64;
        for shard in self.shards.lock_all() {
            resident_blocks += shard.lru.len() as u64;
            resident_bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_blocks,
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, tag: u32) -> Block {
        (0..n as u32).map(|i| Run { value: tag + i, start: i, len: 1 }).collect()
    }

    /// Pops every entry, oldest first.
    fn drain(lru: &mut Lru<u64, &'static str>) -> Vec<u64> {
        std::iter::from_fn(|| lru.pop_oldest()).map(|(key, _)| key).collect()
    }

    #[test]
    fn lru_victim_sequence_under_interleaved_get_peek_insert() {
        let mut lru = Lru::default();
        for (key, value) in [(1, "a"), (2, "b"), (3, "c"), (4, "d")] {
            assert!(lru.insert(key, value).is_none());
        }
        assert_eq!(lru.get(&2).copied(), Some("b"), "get refreshes: 1 3 4 2");
        assert_eq!(lru.peek(&1), Some(&"a"), "peek does not");
        assert!(lru.get(&9).is_none() && lru.peek(&9).is_none());
        lru.insert(5, "e");
        assert_eq!(lru.get(&1).copied(), Some("a"), "3 4 2 5 1");
        *lru.get(&4).unwrap() = "D";
        assert_eq!(lru.peek(&4), Some(&"D"), "get hands out the stored value");
        assert_eq!(lru.len(), 5);
        assert_eq!(drain(&mut lru), [3, 2, 5, 1, 4]);
        assert!(lru.is_empty() && lru.pop_oldest().is_none());
    }

    #[test]
    fn lru_reinsert_of_a_live_key_keeps_one_order_entry() {
        let mut lru = Lru::default();
        lru.insert(1, "old");
        lru.insert(2, "b");
        assert_eq!(lru.insert(1, "new"), Some("old"), "replaced value comes back");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.remove(&2), Some("b"));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(lru.pop_oldest(), Some((1, "new")));
        assert!(lru.pop_oldest().is_none(), "no orphaned stamp of the first insert");
    }

    #[test]
    fn lru_clear_then_reuse() {
        let mut lru = Lru::default();
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.clear();
        assert!(lru.is_empty() && lru.peek(&1).is_none());
        assert!(lru.pop_oldest().is_none());
        lru.insert(2, "b2");
        lru.insert(1, "a2");
        assert!(lru.get(&2).is_some());
        assert_eq!(drain(&mut lru), [1, 2], "order restarts from the new inserts");
    }

    #[test]
    fn lru_reuses_freed_slots() {
        let mut lru = Lru::default();
        for key in 0..4u64 {
            lru.insert(key, "x");
        }
        // Remove and insert, by `remove` and by `pop_oldest`, a thousand
        // times over: the arena never grows past the four entries held.
        for key in 4..1004u64 {
            if key % 2 == 0 {
                assert_eq!(lru.remove(&(key - 4)), Some("x"));
            } else {
                assert_eq!(lru.pop_oldest(), Some((key - 4, "x")));
            }
            lru.insert(key, "x");
            assert_eq!((lru.len(), lru.slots.len()), (4, 4));
        }
        assert_eq!(drain(&mut lru), [1000, 1001, 1002, 1003]);
        assert_eq!((lru.slots.len(), lru.free.len()), (4, 4), "all four slots free");
        lru.insert(7, "y");
        assert_eq!((lru.slots.len(), lru.free.len()), (4, 3));
    }

    #[test]
    fn sharded_picks_by_modulus_and_recovers_from_poison() {
        let shards: Sharded<Vec<u64>> = Sharded::new(3, LockRank::BlockCacheShard);
        for hash in 0..7u64 {
            shards.lock(hash).push(hash);
        }
        let per_shard: Vec<Vec<u64>> = shards.lock_all().map(|shard| shard.clone()).collect();
        assert_eq!(per_shard, [vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        let one = Sharded::<u8>::new(0, LockRank::BlockCacheShard);
        assert_eq!(one.lock_all().count(), 1, "never empty");
        // A panic under the guard poisons the mutex; the next lock still
        // serves the state, which was consistent when the panic unwound.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shards.lock(1);
                panic!("poison shard 1");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert_eq!(*shards.lock(1), [1, 4]);
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = ShardedLruCache::unbounded();
        assert!(c.get(0).is_none());
        c.insert(0, block(3, 10));
        let got = c.get(0).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].value, 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_blocks, 1);
        assert!(s.resident_bytes >= block_bytes(&got) as u64);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn block_bytes_accounts_header_and_runs() {
        // A resident block is an Arc<[Run]>: two usize refcounts in the
        // allocation header, 12 bytes per run, plus the flat 64-byte
        // allowance for the cache's map + recency bookkeeping.  Pinned
        // exactly so byte-bounded capacities keep meaning what they say.
        let header = 2 * std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<Run>(), 12);
        assert_eq!(block_bytes(&[]), header + 64);
        let b = block(5, 0);
        assert_eq!(block_bytes(&b), header + 5 * 12 + 64);
        assert_eq!(block_bytes(&block(341, 0)), header + 341 * 12 + 64);
    }

    #[test]
    fn unbounded_never_evicts() {
        let c = ShardedLruCache::unbounded();
        for k in 0..1000u64 {
            c.insert(k * 4096, block(4, k as u32));
        }
        let s = c.stats();
        assert_eq!(s.resident_blocks, 1000);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn capacity_one_block_holds_exactly_one() {
        let c = ShardedLruCache::with_block_capacity(1);
        c.insert(0, block(2, 0));
        c.insert(4096, block(2, 1));
        c.insert(8192, block(2, 2));
        let s = c.stats();
        assert_eq!(s.resident_blocks, 1, "one shard, one block");
        assert_eq!(s.evictions, 2);
        // Only the most recent insert can be resident.
        assert!(c.get(8192).is_some());
        assert!(c.get(0).is_none());
        assert!(c.get(4096).is_none());
    }

    #[test]
    fn lru_order_respects_recent_access() {
        // Single shard so the LRU order is globally observable.
        let c = ShardedLruCache::with_shards(CacheCapacity::Blocks(2), 1);
        c.insert(1, block(1, 1));
        c.insert(2, block(1, 2));
        assert!(c.get(1).is_some(), "touch 1 so 2 becomes LRU");
        c.insert(3, block(1, 3));
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn byte_capacity_bounds_resident_bytes() {
        let budget = 4 * block_bytes(&block(64, 0));
        let c = ShardedLruCache::with_shards(CacheCapacity::Bytes(budget), 1);
        for k in 0..32u64 {
            c.insert(k, block(64, k as u32));
        }
        let s = c.stats();
        assert!(s.resident_bytes <= budget as u64, "{} > {budget}", s.resident_bytes);
        assert!(s.evictions >= 28);
        assert!(s.resident_blocks >= 1, "always keeps the newest block");
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(ShardedLruCache::with_block_capacity(128));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for k in 0..256u64 {
                        let key = (k % 64) * 4096;
                        if c.get(key).is_none() {
                            c.insert(key, block(2, (t * 1000 + k) as u32));
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.hits > 0);
        assert!(s.resident_blocks <= 128);
    }

    #[test]
    fn peek_does_not_count_but_refreshes_recency() {
        let c = ShardedLruCache::with_shards(CacheCapacity::Blocks(2), 1);
        c.insert(1, block(1, 1));
        c.insert(2, block(1, 2));
        assert!(c.peek(1).is_some());
        assert!(c.peek(99).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peek records nothing: {s:?}");
        // The peek still counted as an access: 2 is now the LRU victim.
        c.insert(3, block(1, 3));
        assert!(c.peek(2).is_none());
        assert!(c.peek(1).is_some());
    }

    #[test]
    fn publish_into_registry() {
        let c = ShardedLruCache::unbounded();
        c.insert(0, block(1, 0));
        assert!(c.get(0).is_some());
        assert!(c.get(4096).is_none());
        let reg = xtk_obs::MetricsRegistry::new();
        c.stats().publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.get("cache.hits"), 1);
        assert_eq!(snap.get("cache.misses"), 1);
        assert_eq!(snap.get("cache.resident_blocks"), 1);
    }

    #[test]
    fn duplicate_insert_keeps_first_block() {
        let c = ShardedLruCache::unbounded();
        c.insert(7, block(2, 100));
        c.insert(7, block(5, 200));
        let got = c.get(7).unwrap();
        assert_eq!(got.len(), 2, "first insert wins");
        assert_eq!(c.stats().resident_blocks, 1);
    }
}
