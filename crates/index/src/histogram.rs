//! Equi-width histograms for join-cardinality estimation (paper §V-D:
//! "join cardinality estimation is a well-defined problem that has been
//! widely studied in the context of relational databases").
//!
//! The hybrid planner must predict how many JDewey numbers the per-level
//! star join will match.  A per-column histogram of *distinct values*
//! (runs) supports the classic attribute-independence estimate: within a
//! bucket of width `W` holding `d_i` distinct values of column `i`, the
//! expected size of the `k`-way intersection is `W · Π (d_i / W)`, capped
//! by `min_i d_i`.
//!
//! Histograms are built at indexing time for columns with enough rows to
//! make sampling expensive; short columns are cheaper to probe directly.

use crate::columnar::Column;

/// Number of buckets per histogram (small: histograms exist for every
/// level of every frequent term).
pub const BUCKETS: usize = 16;

/// Minimum rows for a column to carry a histogram.
pub const HISTOGRAM_MIN_ROWS: u64 = 256;

/// An equi-width histogram over one column's JDewey values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Smallest value in the column.
    pub min: u32,
    /// Largest value in the column.
    pub max: u32,
    /// Distinct values (runs) per bucket.
    pub distinct: [u32; BUCKETS],
}

impl Histogram {
    /// Builds the histogram; `None` for an empty column.
    pub fn build(col: Column<'_>) -> Option<Self> {
        let first = col.runs.first()?;
        let last = col.runs.last()?;
        let (min, max) = (first.value, last.value);
        let mut distinct = [0u32; BUCKETS];
        let span = (max - min) as u64 + 1;
        #[expect(clippy::indexing_slicing, reason = "the bucket index is clamped to BUCKETS - 1")]
        for run in col.runs {
            let b = ((run.value - min) as u64 * BUCKETS as u64 / span) as usize;
            distinct[b.min(BUCKETS - 1)] += 1;
        }
        Some(Self { min, max, distinct })
    }

    /// Width of one bucket in value space.
    fn bucket_width(&self) -> f64 {
        ((self.max - self.min) as f64 + 1.0) / BUCKETS as f64
    }

    /// Distinct density of the value range `[lo, hi)` (values per unit),
    /// from the overlapping buckets.
    fn density(&self, lo: f64, hi: f64) -> f64 {
        if hi <= self.min as f64 || lo > self.max as f64 {
            return 0.0;
        }
        let w = self.bucket_width();
        let mut total = 0.0;
        for (b, &d) in self.distinct.iter().enumerate() {
            let b_lo = self.min as f64 + b as f64 * w;
            let b_hi = b_lo + w;
            let o_lo = b_lo.max(lo);
            let o_hi = b_hi.min(hi);
            if o_hi > o_lo {
                total += d as f64 * (o_hi - o_lo) / w;
            }
        }
        total / (hi - lo)
    }

    /// Estimated size of the `k`-way value intersection under the
    /// attribute-independence assumption, integrating over the common
    /// value range in [`BUCKETS`] strips.
    pub fn estimate_conjunction(hists: &[&Histogram]) -> f64 {
        let Some(lo) = hists.iter().map(|h| h.min).max() else { return 0.0 };
        let Some(hi) = hists.iter().map(|h| h.max).min() else { return 0.0 };
        if hists.is_empty() || lo > hi {
            return 0.0;
        }
        let lo = lo as f64;
        let hi = hi as f64 + 1.0;
        let strip = (hi - lo) / BUCKETS as f64;
        let mut total = 0.0;
        for s in 0..BUCKETS {
            let s_lo = lo + s as f64 * strip;
            let s_hi = s_lo + strip;
            let width = s_hi - s_lo;
            // Expected matches in this strip: width * prod(density_i),
            // capped by the scarcest column's distinct count here.
            let mut prod = width;
            let mut cap = f64::INFINITY;
            for h in hists {
                let dens = h.density(s_lo, s_hi);
                prod *= dens;
                cap = cap.min(dens * width);
            }
            total += prod.min(cap.max(0.0));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::Run;

    fn col(values: impl Iterator<Item = u32>) -> Vec<Run> {
        let mut runs = Vec::new();
        for (i, v) in values.enumerate() {
            runs.push(Run { value: v, start: i as u32, len: 1 });
        }
        runs
    }

    fn hist(runs: &[Run]) -> Option<Histogram> {
        Histogram::build(Column { runs })
    }

    #[test]
    fn build_counts_distinct_per_bucket() {
        let c = col((0..160).map(|i| i * 10)); // 160 values over [0, 1590]
        let h = hist(&c).unwrap();
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1590);
        assert_eq!(h.distinct.iter().sum::<u32>(), 160);
        // Uniform: every bucket gets 10.
        assert!(h.distinct.iter().all(|&d| d == 10), "{:?}", h.distinct);
    }

    #[test]
    fn empty_column_has_no_histogram() {
        assert!(hist(&[]).is_none());
    }

    #[test]
    fn disjoint_ranges_estimate_zero() {
        let a = hist(&col(0..100)).unwrap();
        let b = hist(&col(1_000..1_100)).unwrap();
        assert_eq!(Histogram::estimate_conjunction(&[&a, &b]), 0.0);
    }

    #[test]
    fn identical_uniform_columns_estimate_high() {
        // Dense identical columns: expected intersection = everything.
        let a = hist(&col(0..1_000)).unwrap();
        let b = hist(&col(0..1_000)).unwrap();
        let est = Histogram::estimate_conjunction(&[&a, &b]);
        assert!((800.0..=1_100.0).contains(&est), "est {est}");
    }

    #[test]
    fn sparse_vs_dense_estimates_near_truth() {
        // A: every value in [0, 10000); B: every 100th value (100 values).
        // True intersection = 100; independence gives 10000 * 1 * 0.01.
        let a = hist(&col(0..10_000)).unwrap();
        let b = hist(&col((0..100).map(|i| i * 100))).unwrap();
        let est = Histogram::estimate_conjunction(&[&a, &b]);
        assert!((50.0..=210.0).contains(&est), "est {est}");
    }

    #[test]
    fn three_way_estimate_bounded_by_smallest() {
        let a = hist(&col(0..1_000)).unwrap();
        let b = hist(&col((0..500).map(|i| i * 2))).unwrap();
        let c = hist(&col((0..10).map(|i| i * 100))).unwrap();
        let est = Histogram::estimate_conjunction(&[&a, &b, &c]);
        assert!(est <= 10.5, "est {est} must be capped by the 10-value column");
        assert!(est > 0.0);
    }

    #[test]
    fn skewed_distribution_respects_buckets() {
        // All of B's values live in A's empty upper half.
        let a = hist(&col(0..500)).unwrap(); // [0, 499]
        let mut both = col(0..500);
        both.push(Run { value: 10_000, start: 500, len: 1 }); // stretch range
        let a_stretched = hist(&both).unwrap();
        let b = hist(&col(5_000..5_100)).unwrap();
        // Plain a: no overlap at all.
        assert_eq!(Histogram::estimate_conjunction(&[&a, &b]), 0.0);
        // Stretched a: overlap range is in a's empty buckets -> ~0.
        let est = Histogram::estimate_conjunction(&[&a_stretched, &b]);
        assert!(est < 5.0, "est {est}");
    }
}
