//! Erased rows of one keyword list as a bitmap — the top-K stream's
//! erasure state.
//!
//! The top-K join asks about one row at a time in score order, once per
//! retrieved row, and erases one completed result's run at a time
//! (paper §IV-C).  One bit per posting answers the per-row question with a
//! load and a shift, where the interval set of [`Eraser`] needs a binary
//! search; the SLCA range check scans the run's words.  Algorithm 1, which
//! asks about whole runs in row order, keeps the interval set.
//!
//! [`Eraser`]: crate::eraser::Eraser

/// A set of rows of one keyword list, one bit each.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowBits {
    words: Vec<u64>,
}

/// The bits `lo..=hi` of a word (`lo <= hi < 64`).
fn span(lo: u32, hi: u32) -> u64 {
    (u64::MAX >> (63 - hi)) & (u64::MAX << lo)
}

impl RowBits {
    /// Empties the set and sizes it for `rows` rows, keeping the
    /// allocation.
    pub(crate) fn reset(&mut self, rows: usize) {
        self.words.clear();
        self.words.resize(rows.div_ceil(64), 0);
    }

    /// `true` iff `row` is in the set.
    #[inline]
    pub(crate) fn contains(&self, row: u32) -> bool {
        self.words.get((row >> 6) as usize).is_some_and(|&w| (w >> (row & 63)) & 1 != 0)
    }

    /// The words `[start, end)` covers, clipped to the set's last word,
    /// with the first and the last word's masks; `None` when it covers no
    /// bit of the set.
    fn words_of(&self, start: u32, end: u32) -> Option<(usize, usize, u64, u64)> {
        let end = end.min(u32::try_from(self.words.len() * 64).unwrap_or(u32::MAX));
        if start >= end {
            return None;
        }
        let last = end - 1;
        let (a, b) = ((start >> 6) as usize, (last >> 6) as usize);
        if a == b {
            let m = span(start & 63, last & 63);
            return Some((a, b, m, m));
        }
        Some((a, b, span(start & 63, 63), span(0, last & 63)))
    }

    /// Adds the rows `[start, end)` (an empty range adds nothing).
    pub(crate) fn insert_range(&mut self, start: u32, end: u32) {
        let Some((a, b, first, last)) = self.words_of(start, end) else { return };
        if a == b {
            if let Some(w) = self.words.get_mut(a) {
                *w |= first;
            }
            return;
        }
        if let Some(w) = self.words.get_mut(a) {
            *w |= first;
        }
        if let Some(ws) = self.words.get_mut(a + 1..b) {
            ws.fill(u64::MAX);
        }
        if let Some(w) = self.words.get_mut(b) {
            *w |= last;
        }
    }

    /// `true` iff any row of `[start, end)` is in the set — the SLCA range
    /// check.
    pub(crate) fn any_in(&self, start: u32, end: u32) -> bool {
        let Some((a, b, first, last)) = self.words_of(start, end) else { return false };
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        if a == b {
            return word(a) & first != 0;
        }
        word(a) & first != 0
            || self.words.get(a + 1..b).is_some_and(|ws| ws.iter().any(|&w| w != 0))
            || word(b) & last != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eraser::Eraser;
    use xtk_xml::testutil::prop_check;

    #[test]
    fn ranges_within_and_across_words() {
        let mut bits = RowBits::default();
        bits.reset(200);
        bits.insert_range(3, 5);
        bits.insert_range(60, 130);
        bits.insert_range(7, 7);
        let set: Vec<u32> = (0..200).filter(|&r| bits.contains(r)).collect();
        let want: Vec<u32> = (3..5).chain(60..130).collect();
        assert_eq!(set, want);
        assert!(bits.any_in(0, 4) && bits.any_in(129, 300) && bits.any_in(0, 200));
        assert!(!bits.any_in(5, 60) && !bits.any_in(130, 200) && !bits.any_in(4, 4));
        // Rows past the last word are never in it, and adding them is a
        // no-op.
        bits.insert_range(190, 400);
        assert!(bits.contains(199) && bits.contains(255));
        assert!(!bits.contains(256) && !bits.contains(u32::MAX));
        assert!(!bits.any_in(256, u32::MAX));
        // `reset` empties and resizes.
        bits.reset(64);
        assert!(!bits.any_in(0, 64));
        bits.insert_range(63, 64);
        assert!(bits.contains(63) && !bits.any_in(0, 63));
    }

    #[test]
    fn agrees_with_the_interval_set() {
        prop_check(0xB175, 200, |g| {
            let rows = g.gen_range(1..700u32);
            let mut bits = RowBits::default();
            bits.reset(rows as usize);
            let mut eraser = Eraser::new();
            for _ in 0..g.gen_range(0..40usize) {
                let start = g.gen_range(0..rows);
                let end = (start + g.gen_range(0..150u32)).min(rows);
                bits.insert_range(start, end);
                eraser.erase(start, end);
                let qs = g.gen_range(0..rows);
                let qe = (qs + g.gen_range(0..200u32)).min(rows);
                assert_eq!(bits.any_in(qs, qe), eraser.any_in(qs, qe), "[{qs}, {qe})");
            }
            for row in 0..rows {
                assert_eq!(bits.contains(row), eraser.is_erased(row), "row {row}");
            }
        });
    }
}
