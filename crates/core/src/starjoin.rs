//! The top-K **star join** (paper §IV-B).
//!
//! XML keyword search only ever needs the star pattern
//! `R_1.id = R_2.id = … = R_k.id`, which admits a tighter unseen-result
//! threshold than the general top-K join: tuples already seen in a subset
//! `P` of the relations sit in the hash bucket as *partial results*, and
//! their future score is bounded by their accumulated score plus only the
//! upcoming scores `s^j` of the **unjoined** relations —
//! `max_P ( ms(G_P) + Σ_{j∉P} s^j )` — instead of estimating every
//! relation by its maximum.
//!
//! [`Bucket`] maintains the partial results keyed by JDewey number with a
//! per-keyword seen-mask (so a duplicate occurrence of the same keyword
//! under the same node is ignored — the first arrival carries the maximum
//! damped score because retrieval is score-ordered), plus one group per
//! mask holding a lazy max-heap and the cached, validated `ms(G_P)`.  Its
//! table is emptied by moving to a new stamp, so a bucket that outlives a
//! column or a query ([`Bucket::reset`]) never rebuilds it.

use crate::semantics::full_mask;
use std::collections::BinaryHeap;

/// `f32` with a total order, for heap keys (scores are always finite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32Ord(pub f32);

impl Eq for F32Ord {}

impl PartialOrd for F32Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F32Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A partial result that just completed (seen in all `k` relations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completed {
    /// The joined JDewey number.
    pub value: u32,
    /// Aggregated score: sum over keywords of the (max) damped score.
    pub score: f32,
}

/// A value's partial result; an empty mask is no partial result.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    mask: u32,
    sum: f32,
}

/// The bucket's entries by JDewey number: open addressing with linear
/// probing over a power-of-two number of slots, at most half of them in
/// use.  The keys are dense integers minted by the index builder, never
/// text from outside the program, so a multiplicative (Fibonacci) hash
/// spreads them and its high bits pick the home slot.  A completed result
/// keeps its slot with an empty mask — the state a fresh entry starts
/// from — so no entry moves but on growth.
///
/// A slot is in use iff its byte in `tags` is the table's stamp, so
/// [`clear`](Self::clear) frees every slot at once by moving to the next
/// stamp, and a probe for an absent value reads only the tag bytes: a
/// table grown by the largest column stays cheap to probe for the small
/// ones.  A bucket reused across columns and queries keeps its table and
/// never regrows it from empty.
#[derive(Debug, Default)]
struct Table {
    /// Per slot: the stamp it was last taken under (0: never).
    tags: Vec<u8>,
    /// Per slot: the value and its entry, meaningful while the tag is the
    /// stamp.
    slots: Vec<(u32, Entry)>,
    /// `64 − log2(slots)`: the hash's shift to a slot index.
    shift: u32,
    /// The stamp of the slots in use, `1..=255`; 0 only before the first
    /// slot is taken.
    stamp: u8,
    /// Slots in use under `stamp`, completed results included.
    used: usize,
}

impl Table {
    /// Frees every slot.
    fn clear(&mut self) {
        self.used = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The stamp wrapped: free every slot for real.
            self.tags.fill(0);
            self.stamp = 1;
        }
    }

    /// `Ok(slot)` holding `value`, or `Err(slot)`: the free slot it would
    /// take.  A free slot always exists, as at most half are in use.
    fn probe(&self, value: u32) -> Result<usize, usize> {
        let mask = self.tags.len().wrapping_sub(1);
        let mut i = (u64::from(value).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.tags.get(i) {
                Some(&t) if t == self.stamp => {
                    if self.slots.get(i).is_some_and(|s| s.0 == value) {
                        return Ok(i);
                    }
                }
                _ => return Err(i),
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, value: u32) -> Option<&Entry> {
        let i = self.probe(value).ok()?;
        self.slots.get(i).map(|s| &s.1)
    }

    /// The entry of `value`, taken fresh (empty mask, zero sum) if absent.
    fn entry(&mut self, value: u32) -> Option<&mut Entry> {
        if 2 * (self.used + 1) > self.tags.len() {
            self.grow();
        }
        let i = match self.probe(value) {
            Ok(i) => i,
            Err(i) => {
                *self.tags.get_mut(i)? = self.stamp;
                *self.slots.get_mut(i)? = (value, Entry::default());
                self.used += 1;
                i
            }
        };
        self.slots.get_mut(i).map(|s| &mut s.1)
    }

    /// Doubles the slots (16 at first) and re-places the partial results;
    /// completed ones are left behind.
    fn grow(&mut self) {
        let cap = (2 * self.tags.len()).max(16);
        let tags = std::mem::replace(&mut self.tags, vec![0; cap]);
        let slots = std::mem::replace(&mut self.slots, vec![(0, Entry::default()); cap]);
        let old = std::mem::replace(&mut self.stamp, 1);
        self.shift = 64 - cap.trailing_zeros();
        self.used = 0;
        for (t, (value, entry)) in tags.into_iter().zip(slots) {
            if t != old || entry.mask == 0 {
                continue;
            }
            if let Err(i) = self.probe(value) {
                if let (Some(t), Some(s)) = (self.tags.get_mut(i), self.slots.get_mut(i)) {
                    (*t, *s) = (1, (value, entry));
                    self.used += 1;
                }
            }
        }
    }
}

/// Cumulative insert-path counters of a [`Bucket`], for the unified
/// metrics registry.  Maintained by the sequential retrieval driver, so
/// the values are identical for every `Parallelism` setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketStats {
    /// Tuples fed to [`Bucket::insert`].
    pub inserts: u64,
    /// Tuples ignored because the keyword bit was already set.
    pub duplicates: u64,
    /// Partial results that completed (seen in all `k` relations).
    pub completions: u64,
}

impl BucketStats {
    /// Flushes the counters into `metrics` under `starjoin.*`.
    pub fn publish(&self, metrics: &xtk_obs::MetricsRegistry) {
        metrics.add("starjoin.inserts", self.inserts);
        metrics.add("starjoin.duplicates", self.duplicates);
        metrics.add("starjoin.completions", self.completions);
    }
}

/// One non-full mask's partial results: `ms(G_P)` bookkeeping.
#[derive(Debug)]
struct Group {
    mask: u32,
    /// The live entry with the largest `(sum, value)` in this group, or
    /// `None` when unknown.  Invariant: `Some((sum, value))` implies
    /// `entries[value] == Entry { mask, sum }` and no live entry of the
    /// group is larger.  A push can only raise it; it is reset to `None`
    /// exactly when that entry leaves the group (gains a keyword), and
    /// re-derived from the heap by the next `threshold`.
    top: Option<(f32, u32)>,
    /// Lazy max-heap of every `(sum, value)` pushed; items whose entry has
    /// since left the group are skipped by checking against `entries`.
    heap: BinaryHeap<(F32Ord, u32)>,
}

/// The star-join hash bucket with per-subset group maxima.
#[derive(Debug)]
pub struct Bucket {
    k: usize,
    full: u32,
    entries: Table,
    /// Partial results in the bucket: entries with a non-empty mask.
    live: usize,
    /// One group per mask seen, sorted by mask: `threshold` runs per
    /// retrieval step and visits them in this (deterministic, never the
    /// table's) order.  At most `2^k − 2` and in practice a handful, so
    /// a binary search beats a hash probe; drained groups stay (empty) so
    /// `clear` keeps their heap allocations for the next column.
    groups: Vec<Group>,
    stats: BucketStats,
}

impl Default for Bucket {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Bucket {
    /// A bucket for a `k`-keyword star join.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            full: full_mask(k),
            entries: Table::default(),
            live: 0,
            groups: Vec::new(),
            stats: BucketStats::default(),
        }
    }

    /// Re-targets the bucket to a `k`-keyword star join and empties it,
    /// keeping its table and the heaps of the groups `k` keywords can
    /// form — a bucket reused by the next query.
    pub fn reset(&mut self, k: usize) {
        let full = full_mask(k);
        (self.k, self.full) = (k, full);
        self.groups.retain(|g| g.mask < full);
        self.clear();
    }

    /// Empties the bucket and zeroes its counters, keeping every
    /// allocation — the per-column restart of the top-K stream.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.live = 0;
        for g in &mut self.groups {
            g.top = None;
            g.heap.clear();
        }
        self.stats = BucketStats::default();
    }

    /// Insert-path counters accumulated since construction or `clear`.
    pub fn stats(&self) -> BucketStats {
        self.stats
    }

    /// Number of partial results currently in the bucket.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` iff no partial results are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Feeds one retrieved tuple: keyword `kw` saw `value` with damped
    /// score `damped`.  Returns the completed result when this was the last
    /// missing keyword.
    ///
    /// A tuple whose keyword bit is already set is ignored: retrieval is
    /// score-descending, so the first arrival per `(kw, value)` is the
    /// per-keyword maximum the ranking function wants.
    pub fn insert(&mut self, value: u32, kw: usize, damped: f32) -> Option<Completed> {
        debug_assert!(kw < self.k);
        self.stats.inserts += 1;
        let bit = 1u32 << kw;
        let entry = self.entries.entry(value)?;
        if entry.mask & bit != 0 {
            self.stats.duplicates += 1;
            return None;
        }
        let (old, mask, sum) = (entry.mask, entry.mask | bit, entry.sum + damped);
        // A completed result leaves the bucket: its entry is emptied.
        *entry = if mask == self.full { Entry::default() } else { Entry { mask, sum } };
        if old == 0 {
            self.live += 1;
        }
        // The entry leaves its old group: the one event that can
        // invalidate that group's cached top.
        if old != 0 {
            if let Ok(i) = self.groups.binary_search_by_key(&old, |g| g.mask) {
                if let Some(g) = self.groups.get_mut(i) {
                    if g.top.is_some_and(|(_, v)| v == value) {
                        g.top = None;
                    }
                }
            }
        }
        if mask == self.full {
            self.live -= 1;
            self.stats.completions += 1;
            return Some(Completed { value, score: sum });
        }
        let i = match self.groups.binary_search_by_key(&mask, |g| g.mask) {
            Ok(i) => i,
            Err(i) => {
                self.groups.insert(i, Group { mask, top: None, heap: BinaryHeap::new() });
                i
            }
        };
        if let Some(g) = self.groups.get_mut(i) {
            // An unknown top over a non-empty heap stays unknown: only
            // `threshold` can tell which of the older items are live.
            let raises = match g.top {
                Some((ts, tv)) => (F32Ord(sum), value) > (F32Ord(ts), tv),
                None => g.heap.is_empty(),
            };
            if raises {
                g.top = Some((sum, value));
            }
            g.heap.push((F32Ord(sum), value));
        }
        None
    }

    /// The §IV-B threshold over everything not yet completed:
    /// `max( Σ_i s^i , max_P ( ms(G_P) + Σ_{j∉P} s^j ) )` where `s[i]` is
    /// the next (damped) score to be retrieved from keyword `i` (0 when the
    /// list is exhausted at this column).
    pub fn threshold(&mut self, s: &[f32]) -> f32 {
        debug_assert_eq!(s.len(), self.k);
        // Case 1: results completely unseen in every relation.
        let mut best: f32 = s.iter().sum();
        // Case 2: one term per non-empty group, in mask order.  A cached
        // top costs no table probe; an unknown one is re-derived by popping
        // stale heap items (entry moved to another mask or completed).
        let entries = &self.entries;
        for g in &mut self.groups {
            if g.top.is_none() {
                while let Some(&(F32Ord(sum), value)) = g.heap.peek() {
                    if entries
                        .get(value)
                        .is_some_and(|e| e.mask == g.mask && e.sum.to_bits() == sum.to_bits())
                    {
                        g.top = Some((sum, value));
                        break;
                    }
                    g.heap.pop();
                }
            }
            let Some((ms, _)) = g.top else { continue };
            let mut bound = ms;
            for (j, &sj) in s.iter().enumerate() {
                if g.mask & (1 << j) == 0 {
                    bound += sj;
                }
            }
            best = best.max(bound);
        }
        best
    }

    /// The classic (RJ/J*-style) threshold the paper compares against:
    /// `max_i ( s^i + Σ_{j≠i} s_m^j )` with `s_m` the per-relation maxima.
    /// Exposed for the ablation benchmark.
    pub fn classic_threshold(s: &[f32], s_max: &[f32]) -> f32 {
        let mut best = f32::NEG_INFINITY;
        for (i, &si) in s.iter().enumerate() {
            let mut b = si;
            for (j, &mj) in s_max.iter().enumerate() {
                if j != i {
                    b += mj;
                }
            }
            best = best.max(b);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_after_all_keywords() {
        let mut b = Bucket::new(3);
        assert!(b.insert(7, 0, 0.5).is_none());
        assert!(b.insert(7, 1, 0.4).is_none());
        let done = b.insert(7, 2, 0.3).unwrap();
        assert_eq!(done.value, 7);
        assert!((done.score - 1.2).abs() < 1e-6);
        assert!(b.is_empty());
    }

    #[test]
    fn duplicate_keyword_arrivals_ignored() {
        let mut b = Bucket::new(2);
        assert!(b.insert(7, 0, 0.9).is_none());
        assert!(b.insert(7, 0, 0.5).is_none(), "second arrival is lower: ignored");
        let done = b.insert(7, 1, 0.1).unwrap();
        assert!((done.score - 1.0).abs() < 1e-6, "uses the max 0.9, not 0.5");
    }

    #[test]
    fn paper_figure5_example() {
        // Figure 5 snapshot, k = 3: tuple 3 seen in R1 (1.0) and R3 (0.6),
        // tuple 4 seen in R2 (0.8). Next scores s = (0.9, 0.8, 0.7)... the
        // paper's narration: G{1,3} = (3, 1.6), G{2} = (4, 0.8), and with
        // s^2 = 0.4, s^1 = 0.5, s^3 = 0.4 the bound is
        // max{1.6 + 0.4, 0.8 + 0.5 + 0.4} = 2.0.
        let mut b = Bucket::new(3);
        b.insert(3, 0, 1.0);
        b.insert(3, 2, 0.6);
        b.insert(4, 1, 0.8);
        let t = b.threshold(&[0.5, 0.4, 0.4]);
        assert!((t - 2.0).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn tighter_than_classic() {
        // Same snapshot: classic threshold uses per-relation maxima
        // (1.0, 0.8, 0.6): max over i of s_i + sum of others' maxima =
        // max{0.5+0.8+0.6, 1.0+0.4+0.6, 1.0+0.8+0.4} = 2.2 > 2.0.
        let classic = Bucket::classic_threshold(&[0.5, 0.4, 0.4], &[1.0, 0.8, 0.6]);
        assert!((classic - 2.2).abs() < 1e-6);
        let mut b = Bucket::new(3);
        b.insert(3, 0, 1.0);
        b.insert(3, 2, 0.6);
        b.insert(4, 1, 0.8);
        assert!(b.threshold(&[0.5, 0.4, 0.4]) <= classic);
    }

    #[test]
    fn empty_bucket_threshold_is_sum_of_next() {
        let mut b = Bucket::new(2);
        assert!((b.threshold(&[0.3, 0.2]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn stale_heap_entries_are_skipped() {
        let mut b = Bucket::new(3);
        b.insert(9, 0, 0.9); // group {0} with 0.9
        b.insert(9, 1, 0.05); // moves to group {0,1}
        // Group {0}'s heap top (9, 0.9) is stale now; the threshold must
        // use the {0,1} group.
        let t = b.threshold(&[0.0, 0.0, 0.1]);
        assert!((t - (0.95 + 0.1)).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn cached_top_is_dropped_when_its_entry_leaves_and_groups_drain() {
        let mut b = Bucket::new(3);
        b.insert(1, 0, 0.9);
        b.insert(2, 0, 0.5);
        let s = [0.0, 0.25, 0.125];
        // Group {0}: top is (1, 0.9), now cached.
        assert_eq!(b.threshold(&s), 0.9 + 0.25 + 0.125);
        // Entry 1 gains keyword 1 and leaves group {0}, whose best is now
        // entry 2; group {0,1} holds (1, 1.0).
        b.insert(1, 1, 0.1);
        assert_eq!(b.threshold(&s), (1.0f32 + 0.125).max(0.5 + 0.25 + 0.125));
        // Entry 2 follows: group {0} is drained and contributes nothing.
        b.insert(2, 1, 0.1);
        assert_eq!(b.threshold(&s), 1.0 + 0.125);
        // Both complete: only the all-unseen term is left.
        assert!(b.insert(1, 2, 0.1).is_some());
        assert!(b.insert(2, 2, 0.1).is_some());
        assert_eq!(b.threshold(&s), 0.25 + 0.125);
        // `clear` restarts the counters and keeps nothing.
        assert_eq!(b.stats(), BucketStats { inserts: 6, duplicates: 0, completions: 2 });
        b.insert(5, 0, 0.5);
        b.clear();
        assert_eq!((b.len(), b.stats()), (0, BucketStats::default()));
        assert_eq!(b.threshold(&s), 0.25 + 0.125);
    }

    /// The bucket's contract stated as directly as possible: a flat list
    /// of partial results, every group maximum recomputed by a full scan.
    struct NaiveBucket {
        k: usize,
        entries: Vec<(u32, u32, f32)>,
        stats: BucketStats,
    }

    impl NaiveBucket {
        fn insert(&mut self, value: u32, kw: usize, damped: f32) -> Option<Completed> {
            self.stats.inserts += 1;
            let i = match self.entries.iter().position(|e| e.0 == value) {
                Some(i) => i,
                None => {
                    self.entries.push((value, 0, 0.0));
                    self.entries.len() - 1
                }
            };
            let e = &mut self.entries[i];
            if e.1 & (1 << kw) != 0 {
                self.stats.duplicates += 1;
                return None;
            }
            e.1 |= 1 << kw;
            e.2 += damped;
            if e.1 != full_mask(self.k) {
                return None;
            }
            let (value, _, score) = self.entries.remove(i);
            self.stats.completions += 1;
            Some(Completed { value, score })
        }

        fn threshold(&self, s: &[f32]) -> f32 {
            let mut masks: Vec<u32> = self.entries.iter().map(|e| e.1).collect();
            masks.sort_unstable();
            masks.dedup();
            let mut best: f32 = s.iter().sum();
            for mask in masks {
                let group = self.entries.iter().filter(|e| e.1 == mask);
                let mut bound = group.map(|e| e.2).fold(f32::NEG_INFINITY, f32::max);
                for (j, &sj) in s.iter().enumerate() {
                    if mask & (1 << j) == 0 {
                        bound += sj;
                    }
                }
                best = best.max(bound);
            }
            best
        }
    }

    #[test]
    fn random_inserts_match_the_naive_model_bit_for_bit() {
        use xtk_xml::testutil::prop_check;
        prop_check(0x5b, 200, |g| {
            let k = g.gen_range(1..7usize);
            // Few distinct values: duplicates, regrouping and completions
            // (then re-insertion of a completed value) all happen often.
            let values = g.gen_range(1..(g.size() / 4 + 3)) as u32;
            // Every step, or rarely: a threshold re-derives cached tops, so
            // long insert-only stretches reach states a per-step check
            // never sees.
            let check = if g.gen_bool(0.5) { 1.0 } else { 0.2 };
            // A bucket left over from a query of another width.
            let mut real = Bucket::new(g.gen_range(1..7usize));
            for v in 0..g.gen_range(0..40u32) {
                real.insert(v % 7, (v % 3) as usize % real.k, 0.5);
            }
            real.reset(k);
            let mut naive = NaiveBucket { k, entries: Vec::new(), stats: BucketStats::default() };
            for _ in 0..4 * g.size() {
                if g.gen_bool(0.02) {
                    // A restart within the query or for the next one.
                    if g.gen_bool(0.5) {
                        real.clear();
                    } else {
                        real.reset(k);
                    }
                    naive.entries.clear();
                    naive.stats = BucketStats::default();
                }
                let (value, kw) = (g.gen_range(0..values), g.gen_range(0..k));
                // A coarse grid makes equal sums (heap ties) common.
                let damped = g.gen_range(1..9u32) as f32 / 8.0;
                let (got, want) = (real.insert(value, kw, damped), naive.insert(value, kw, damped));
                assert_eq!(got.map(|c| (c.value, c.score.to_bits())), want.map(|c| (c.value, c.score.to_bits())));
                assert_eq!((real.len(), real.stats()), (naive.entries.len(), naive.stats));
                if g.gen_bool(check) {
                    let s: Vec<f32> = (0..k).map(|_| g.gen_range(0..9u32) as f32 / 8.0).collect();
                    assert_eq!(real.threshold(&s).to_bits(), naive.threshold(&s).to_bits());
                }
            }
        });
    }

    #[test]
    fn threshold_decreases_as_lists_drain() {
        let mut b = Bucket::new(2);
        let t1 = b.threshold(&[0.9, 0.9]);
        let t2 = b.threshold(&[0.1, 0.1]);
        assert!(t2 < t1);
    }
}
