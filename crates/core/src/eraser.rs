//! Erased-row tracking — the semantic-pruning state of Algorithm 1.
//!
//! When a match at a lower level consumes JDewey sequences, their rows are
//! *erased* from the inverted list for all higher levels (`H_1`, `H_2` in
//! the paper's pseudo-code).  With the run representation, erasure always
//! covers whole row ranges, so the paper's range checking (§III-E) becomes
//! interval arithmetic: an ELCA survives if its run has more rows than the
//! erased rows inside it; an SLCA dies if *any* erased row falls inside.
//!
//! [`Eraser`] is a sorted, coalescing interval set over `u32` rows.  The
//! top-K join erases one result at a time ([`Eraser::erase`]) and asks
//! about rows in score order ([`Eraser::is_erased`]); Algorithm 1 asks
//! about one level's runs in row order through a forward [`Cursor`] and
//! erases the level's ranges in one sorted batch
//! ([`Eraser::erase_sorted`]).  No query can panic, whatever was erased.

use std::ops::Range;
use xtk_index::columnar::gallop_partition_point;

/// A `[start, end)` row interval.
type Interval = (u32, u32);

/// The one coalescing rule: if `iv` overlaps or touches `acc`, grows
/// `acc` to cover both and says so.
fn absorb(acc: &mut Interval, iv: Interval) -> bool {
    let merges = iv.0 <= acc.1 && acc.0 <= iv.1;
    if merges {
        *acc = (acc.0.min(iv.0), acc.1.max(iv.1));
    }
    merges
}

/// Erased rows in `[start, end)`, given the intervals from the first one
/// ending after `start` on.
fn count_overlap(ivs: &[Interval], start: u32, end: u32) -> u32 {
    ivs.iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
        .sum()
}

/// Whether any row of `[start, end)` is erased, given the same suffix.
fn any_overlap(ivs: &[Interval], start: u32, end: u32) -> bool {
    start < end && ivs.first().is_some_and(|&(s, _)| s < end)
}

/// A set of erased row intervals for one keyword list.
#[derive(Debug, Clone, Default)]
pub struct Eraser {
    /// Disjoint, sorted, non-adjacent `[start, end)` intervals.
    ivs: Vec<Interval>,
    /// Merge buffer of [`erase_sorted`](Self::erase_sorted), kept for its
    /// allocation.
    merged: Vec<Interval>,
}

impl Eraser {
    /// An empty eraser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes all erasures (reuse across queries without reallocating).
    pub fn clear(&mut self) {
        self.ivs.clear();
    }

    /// Number of disjoint intervals currently stored.
    pub fn interval_count(&self) -> usize {
        self.ivs.len()
    }

    /// Total number of erased rows.
    pub fn erased_total(&self) -> u64 {
        self.ivs.iter().map(|&(s, e)| (e - s) as u64).sum()
    }

    /// Erases `[start, end)`, coalescing with overlapping/adjacent
    /// intervals.
    pub fn erase(&mut self, start: u32, end: u32) {
        if start >= end {
            return;
        }
        // First interval that could overlap or touch [start, end).
        let lo = self.ivs.partition_point(|&(_, e)| e < start);
        let mut iv = (start, end);
        let tail = self.ivs.get(lo..).unwrap_or(&[]);
        let absorbed = tail.iter().take_while(|&&old| absorb(&mut iv, old)).count();
        self.ivs.splice(lo..lo + absorbed, std::iter::once(iv));
    }

    /// Erases every range of `batch`, whose `start`s must ascend (empty
    /// ranges are skipped): one linear merge instead of a
    /// [`erase`](Self::erase) — a binary search and a `Vec::splice` — per
    /// range.  The resulting set, and so its canonical interval list, is
    /// the one repeated `erase` calls leave.
    pub(crate) fn erase_sorted(&mut self, batch: &[Interval]) {
        let mut new = batch.iter().copied().filter(|&(s, e)| s < e).peekable();
        let Some(&(first, _)) = new.peek() else { return };
        // Intervals ending before the batch starts stay where they are.
        let lo = self.ivs.partition_point(|&(_, e)| e < first);
        let mut old = self.ivs.get(lo..).unwrap_or(&[]).iter().copied().peekable();
        self.merged.clear();
        loop {
            // The next interval of either input by `start`.
            let next = match (old.peek(), new.peek()) {
                (Some(o), Some(n)) if o.0 <= n.0 => old.next(),
                (Some(_), None) => old.next(),
                _ => new.next(),
            };
            let Some(iv) = next else { break };
            if !self.merged.last_mut().is_some_and(|last| absorb(last, iv)) {
                self.merged.push(iv);
            }
        }
        self.ivs.truncate(lo);
        self.ivs.extend_from_slice(&self.merged);
    }

    /// `true` iff `row` is erased.
    pub fn is_erased(&self, row: u32) -> bool {
        let i = self.ivs.partition_point(|&(_, e)| e <= row);
        self.ivs.get(i).is_some_and(|&(s, _)| s <= row)
    }

    /// The intervals from the first one ending after `start` on.
    fn ending_after(&self, start: u32) -> &[Interval] {
        let i = self.ivs.partition_point(|&(_, e)| e <= start);
        self.ivs.get(i..).unwrap_or(&[])
    }

    /// Number of erased rows in `[start, end)`.
    pub fn count_in(&self, start: u32, end: u32) -> u32 {
        count_overlap(self.ending_after(start), start, end)
    }

    /// `true` iff any erased row lies in `[start, end)` — the SLCA range
    /// check, cheaper than counting.
    pub fn any_in(&self, start: u32, end: u32) -> bool {
        any_overlap(self.ending_after(start), start, end)
    }
}

/// A forward position in an [`Eraser`]'s interval list, for range queries
/// whose `start`s ascend — one level's runs of one keyword, in row order.
/// Each query gallops from the previous one's position instead of
/// restarting a binary search.  The eraser is passed to every call rather
/// than borrowed, so a position can sit in a scratch that outlives the
/// borrow; it is meaningless once the eraser changes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    at: usize,
}

impl Cursor {
    /// Advances to the first interval ending after `start` and returns
    /// the intervals from there on.
    fn seek<'e>(&mut self, eraser: &'e Eraser, start: u32) -> &'e [Interval] {
        self.at = gallop_partition_point(&eraser.ivs, self.at, |&(_, e)| e <= start);
        eraser.ivs.get(self.at..).unwrap_or(&[])
    }

    /// [`Eraser::count_in`] from this position.
    pub(crate) fn count_in(&mut self, eraser: &Eraser, start: u32, end: u32) -> u32 {
        count_overlap(self.seek(eraser, start), start, end)
    }

    /// [`Eraser::any_in`] from this position.
    pub(crate) fn any_in(&mut self, eraser: &Eraser, start: u32, end: u32) -> bool {
        any_overlap(self.seek(eraser, start), start, end)
    }

    /// The maximal non-erased sub-ranges of `[start, end)`, ascending: a
    /// run's *gaps*, found by walking the intervals inside it once.
    pub(crate) fn live_in<'e>(&mut self, eraser: &'e Eraser, start: u32, end: u32) -> Live<'e> {
        Live { ivs: self.seek(eraser, start).iter(), row: start, end }
    }
}

/// Iterator of [`Cursor::live_in`].
pub(crate) struct Live<'e> {
    ivs: std::slice::Iter<'e, Interval>,
    /// Every row of the range before `row` is dealt with.
    row: u32,
    end: u32,
}

impl Iterator for Live<'_> {
    type Item = Range<u32>;

    fn next(&mut self) -> Option<Range<u32>> {
        while self.row < self.end {
            let from = self.row;
            match self.ivs.next() {
                Some(&(s, e)) if s < self.end => {
                    self.row = e.max(from);
                    if from < s {
                        return Some(from..s);
                    }
                }
                _ => {
                    self.row = self.end;
                    return Some(from..self.end);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::testutil::{prop_check, Gen};

    #[test]
    fn erase_and_query() {
        let mut e = Eraser::new();
        e.erase(5, 10);
        assert!(e.is_erased(5));
        assert!(e.is_erased(9));
        assert!(!e.is_erased(10));
        assert!(!e.is_erased(4));
        assert_eq!(e.count_in(0, 20), 5);
        assert_eq!(e.count_in(7, 9), 2);
        assert_eq!(e.count_in(10, 20), 0);
        assert!(e.any_in(9, 30));
        assert!(!e.any_in(10, 30));
    }

    #[test]
    fn coalescing() {
        let mut e = Eraser::new();
        e.erase(0, 5);
        e.erase(10, 15);
        assert_eq!(e.interval_count(), 2);
        e.erase(5, 10); // adjacent to both: single interval
        assert_eq!(e.interval_count(), 1);
        assert_eq!(e.erased_total(), 15);
        e.erase(3, 8); // fully inside: no change
        assert_eq!(e.interval_count(), 1);
        assert_eq!(e.erased_total(), 15);
    }

    #[test]
    fn overlapping_merge_spanning_many() {
        let mut e = Eraser::new();
        for i in 0..5 {
            e.erase(i * 10, i * 10 + 3);
        }
        assert_eq!(e.interval_count(), 5);
        e.erase(2, 45);
        assert_eq!(e.interval_count(), 1);
        assert_eq!(e.erased_total(), 45); // [0, 45)
    }

    #[test]
    fn empty_range_noops() {
        let mut e = Eraser::new();
        e.erase(5, 5);
        assert_eq!(e.interval_count(), 0);
        assert_eq!(e.count_in(9, 3), 0);
        assert!(!e.any_in(7, 7));
    }

    #[test]
    fn live_in_walks_the_gaps_of_a_range() {
        let mut e = Eraser::new();
        e.erase(5, 10);
        e.erase(10, 12); // coalesces to [5, 12)
        e.erase(20, 22);
        let live = |s, t| {
            let gaps = Cursor::default().live_in(&e, s, t);
            gaps.map(|r| (r.start, r.end)).collect::<Vec<_>>()
        };
        assert_eq!(live(0, 30), [(0, 5), (12, 20), (22, 30)]);
        assert_eq!(live(7, 21), [(12, 20)], "both ends erased");
        assert_eq!(live(5, 12), [], "fully erased");
        assert_eq!(live(5, 13), [(12, 13)], "all but the last row erased");
        assert_eq!(live(12, 20), [(12, 20)], "touching intervals on both sides");
        assert_eq!(live(25, 25), [], "empty range");
        assert_eq!(live(40, 50), [(40, 50)], "past every interval");
    }

    #[test]
    fn clear_resets() {
        let mut e = Eraser::new();
        e.erase(0, 100);
        e.clear();
        assert_eq!(e.erased_total(), 0);
        assert!(!e.is_erased(50));
    }

    #[test]
    fn randomized_against_bitmap() {
        // Deterministic pseudo-random mixed workload cross-checked against
        // a naive bitmap.
        let mut e = Eraser::new();
        let mut bitmap = vec![false; 1000];
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..300 {
            let a = rng() % 1000;
            let b = (a + rng() % 50).min(1000);
            e.erase(a, b);
            for x in a..b {
                bitmap[x as usize] = true;
            }
            // Spot-check queries.
            let qa = rng() % 1000;
            let qb = (qa + rng() % 100).min(1000);
            let expect = bitmap[qa as usize..qb as usize].iter().filter(|&&b| b).count() as u32;
            assert_eq!(e.count_in(qa, qb), expect);
            assert_eq!(e.any_in(qa, qb), expect > 0);
            assert_eq!(e.is_erased(qa), bitmap[qa as usize]);
        }
    }

    /// Ascending `[start, end)` ranges over `0..1000`: disjoint, touching,
    /// overlapping and empty ones, as a level's probes or its batch.
    fn ascending_ranges(g: &mut Gen) -> Vec<(u32, u32)> {
        let mut start = 0u32;
        let n = g.gen_range(0..40usize);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            start = (start + g.gen_range(0..60u32)).min(1000);
            let end = (start + g.gen_range(0..25u32)).min(1000);
            out.push((start, end));
            // The next range touches this one, overlaps it, or leaves a gap.
            if g.gen_bool(0.6) {
                start = end;
            }
        }
        out
    }

    #[test]
    fn erase_sorted_equals_repeated_erase_equals_bitmap() {
        prop_check(0xE7A5_0001, 300, |g| {
            let (mut batched, mut single) = (Eraser::new(), Eraser::new());
            let mut bitmap = vec![false; 1000];
            // Several levels' worth of batches onto the same set.
            for _ in 0..g.gen_range(1..5usize) {
                let batch = ascending_ranges(g);
                batched.erase_sorted(&batch);
                for &(s, e) in &batch {
                    single.erase(s, e);
                    bitmap[s as usize..e.max(s) as usize].fill(true);
                }
                // The canonical form is unique: the lists agree exactly.
                assert_eq!(batched.ivs, single.ivs, "batch {batch:?}");
                let canonical = batched.ivs.windows(2).all(|w| w[0].1 < w[1].0)
                    && batched.ivs.iter().all(|&(s, e)| s < e);
                assert!(canonical, "{:?}", batched.ivs);
                let set = bitmap.iter().filter(|&&b| b).count() as u64;
                assert_eq!(batched.erased_total(), set);
                for (row, &b) in bitmap.iter().enumerate() {
                    assert_eq!(batched.is_erased(row as u32), b, "row {row}");
                }
            }
        });
    }

    #[test]
    fn cursor_queries_equal_from_scratch_queries() {
        prop_check(0xE7A5_0002, 300, |g| {
            let mut e = Eraser::new();
            for _ in 0..g.gen_range(0..3usize) {
                e.erase_sorted(&ascending_ranges(g));
            }
            let (mut count, mut any, mut live) = <(Cursor, Cursor, Cursor)>::default();
            for (s, t) in ascending_ranges(g) {
                assert_eq!(count.count_in(&e, s, t), e.count_in(s, t), "count [{s}, {t})");
                assert_eq!(any.any_in(&e, s, t), e.any_in(s, t), "any [{s}, {t})");
                let rows: Vec<u32> = live.live_in(&e, s, t).flatten().collect();
                let want: Vec<u32> = (s..t).filter(|&r| !e.is_erased(r)).collect();
                assert_eq!(rows, want, "live [{s}, {t})");
            }
        });
    }
}
