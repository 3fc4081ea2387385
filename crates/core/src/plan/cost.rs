//! Statistics snapshot and the integer cost model behind EXPLAIN's
//! per-node estimates (the `est blocks` beside every `actual decodes`).
//!
//! [`PlanStats`] is a deterministic snapshot of the column directory,
//! harvested once at index/store open: per-term, per-level row counts,
//! distinct-value (run) counts, block counts and footer value spans.
//! [`PlanStats::from_index`] estimates block counts from the in-memory
//! run counts; [`PlanStats::from_store`] reads the exact block counts
//! and `[first, last]` value spans from the block directory without
//! decoding a single block.
//!
//! The cost model estimates *decoded blocks and rows* for the two
//! physical access paths a plan leaf can lower to:
//!
//! * [`scan_cost`] — a streamed scan decodes every block of every level
//!   in the join range;
//! * [`probe_cost`] — a footer-skipping probe decodes at most one block
//!   per driver value per level, never more than the scan would, and
//!   nothing at all when the driver's value span cannot intersect the
//!   probed column's span.
//!
//! Everything is integer arithmetic with saturating operators: no
//! wall-clock, no floats (the crate denies `clippy::float_cmp` and the
//! clock types), and the estimates are
//! **monotone** — adding rows to a term never lowers its estimated cost
//! (`cost_prop.rs` proves it property-wise), so no estimate can wrap
//! around on a pathological corpus.

use crate::plan::logical::{PlanNode, ScanMode};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::{Column, TermId, XmlIndex};

/// Relative weight of one block decode against one decoded row in
/// [`Cost::weight`]: a 4 KiB block decode dominates the per-row work by
/// roughly its row capacity.
pub const BLOCK_COST_WEIGHT: u64 = 64;

/// Directory entries assumed to fit one 4 KiB block when only in-memory
/// statistics are available ([`PlanStats::from_index`]); the on-disk
/// snapshot replaces this estimate with exact directory block counts.
pub const EST_ENTRIES_PER_BLOCK: u64 = 1024;

/// Per-term, per-level directory statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Rows present at this level.
    pub rows: u64,
    /// Distinct JDewey values (runs) at this level.
    pub runs: u64,
    /// Blocks storing this level's column (exact from the disk
    /// directory, estimated from run counts in memory).
    pub blocks: u64,
    /// `[first, last]` value range of the column, when known (directory
    /// first values + footer lasts; `None` in memory estimates
    /// only for empty columns).
    pub span: Option<(u32, u32)>,
}

impl LevelStats {
    /// In-memory estimate: block count derived from the run count at
    /// [`EST_ENTRIES_PER_BLOCK`] entries per block.
    pub fn estimated(rows: u64, runs: u64, span: Option<(u32, u32)>) -> Self {
        let blocks = if rows == 0 { 0 } else { runs.max(1).div_ceil(EST_ENTRIES_PER_BLOCK) };
        LevelStats { rows, runs, blocks, span }
    }

    /// Exact directory numbers (the disk snapshot).
    pub fn exact(rows: u64, runs: u64, blocks: u64, span: Option<(u32, u32)>) -> Self {
        LevelStats { rows, runs, blocks, span }
    }
}

/// An estimated amount of decode work: blocks read and rows produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Estimated block decodes.
    pub blocks: u64,
    /// Estimated rows materialized.
    pub rows: u64,
}

impl Cost {
    /// Scalar ordering key: blocks dominate rows by
    /// [`BLOCK_COST_WEIGHT`].  Saturating, so a pathological corpus
    /// cannot wrap the comparison around.
    pub fn weight(self) -> u64 {
        self.blocks.saturating_mul(BLOCK_COST_WEIGHT).saturating_add(self.rows)
    }

    /// Component-wise saturating sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            blocks: self.blocks.saturating_add(other.blocks),
            rows: self.rows.saturating_add(other.rows),
        }
    }
}

/// Cost of a streamed scan over `levels`: every block and row of every
/// level is decoded.
pub fn scan_cost(levels: &[LevelStats]) -> Cost {
    levels
        .iter()
        .fold(Cost::default(), |acc, l| acc.plus(Cost { blocks: l.blocks, rows: l.rows }))
}

/// Expected distinct blocks hit by `probes` uniform probes over
/// `blocks` candidates, as the rational approximation
/// `B·k / (B + k − 1)` of the exact occupancy `B·(1 − (1 − 1/B)^k)`.
/// It is exact at every extreme (`k = 1`, `B = 1`, `k → ∞`), strictly
/// below `min(B, k)` whenever both exceed one — probes collide, so a
/// driver with as many values as the column has blocks still leaves
/// some blocks untouched — and monotone in both arguments
/// (`cost_prop.rs`).  Integer-only: the ceil
/// keeps a nonzero probe set from ever rounding to free.
fn occupancy(probes: u64, blocks: u64) -> u64 {
    if probes == 0 || blocks == 0 {
        return 0;
    }
    let denom = blocks.saturating_add(probes) - 1;
    blocks.saturating_mul(probes).div_ceil(denom).min(blocks).min(probes)
}

/// Cost of probing `term` with the values `driver` produces, level by
/// level.  Each probe decodes at most one block, and collisions make
/// the expected distinct blocks [`occupancy`]`(driver.runs, blocks)`;
/// disjoint value spans cost nothing (every probe is a definite footer
/// miss).  When both spans are known, the reachable blocks are first
/// scaled by the overlap fraction of the probed column's span under
/// the uniform-distribution assumption — a driver clustered in a
/// narrow value range can only touch the few blocks whose footer
/// ranges cover it, which is exactly the elimination the directory's
/// footers deliver.  Decoded rows are capped both by the column and by the
/// probed blocks' capacity.
pub fn probe_cost(driver: &[LevelStats], term: &[LevelStats]) -> Cost {
    let mut total = Cost::default();
    for (i, t) in term.iter().enumerate() {
        let Some(d) = driver.get(i) else {
            // The driver has no column at this level: the join never
            // reaches it, so the probe side decodes nothing there.
            continue;
        };
        let mut reachable = t.blocks;
        if let (Some((df, dl)), Some((tf, tl))) = (d.span, t.span) {
            if dl < tf || tl < df {
                continue; // definite miss at every block of the level
            }
            // Blocks whose footer range can intersect the overlap,
            // assuming values spread uniformly over the column's span;
            // never zero (the overlapping value lives in some block).
            let t_width = u64::from(tl - tf).saturating_add(1);
            let ov_width = u64::from(dl.min(tl) - df.max(tf)).saturating_add(1);
            reachable = t
                .blocks
                .saturating_mul(ov_width)
                .div_ceil(t_width)
                .clamp(u64::from(t.blocks > 0), t.blocks);
        }
        let blocks = occupancy(d.runs, reachable);
        let rows = t.rows.min(blocks.saturating_mul(EST_ENTRIES_PER_BLOCK));
        total = total.plus(Cost { blocks, rows });
    }
    total
}

/// The deterministic statistics snapshot the cost model reads: one
/// [`LevelStats`] per column of the index it was built from, addressed by
/// that index's column offsets (term `t`'s levels are
/// `levels[level_at[t]..level_at[t + 1]]`).  Terms outside the snapshot
/// cost zero (the binder never produces them — every bound term exists in
/// the index the snapshot was built from).
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    level_at: Vec<u32>,
    levels: Vec<LevelStats>,
}

/// A level's statistics from the in-memory column alone.
fn estimate(col: Column<'_>) -> LevelStats {
    let span = match (col.runs.first(), col.runs.last()) {
        (Some(f), Some(l)) => Some((f.value, l.value)),
        _ => None,
    };
    LevelStats::estimated(col.row_count(), col.runs.len() as u64, span)
}

impl PlanStats {
    /// An empty snapshot with room for `ix`'s columns.
    fn sized_for(ix: &XmlIndex) -> Self {
        let mut level_at = Vec::with_capacity(ix.vocab_size() + 1);
        level_at.push(0);
        let columns = ix.terms().map(|(_, td)| usize::from(td.max_len())).sum();
        PlanStats { level_at, levels: Vec::with_capacity(columns) }
    }

    /// Closes the current term's levels.
    fn end_term(&mut self) {
        self.level_at.push(self.levels.len() as u32);
    }

    /// Harvests the snapshot from the in-memory columns.  Block counts
    /// are estimates (see [`LevelStats::estimated`]); row counts, run
    /// counts and value spans are exact.
    pub fn from_index(ix: &XmlIndex) -> Self {
        let mut stats = Self::sized_for(ix);
        for (_, td) in ix.terms() {
            stats.levels.extend(td.columns().map(estimate));
            stats.end_term();
        }
        stats
    }

    /// Harvests the snapshot from an open column store's directory:
    /// exact block counts, exact footer value spans, no block decodes.
    /// Run counts come from the in-memory index (the directory does not
    /// record them); levels the store lacks fall back to the in-memory
    /// estimate.
    pub fn from_store(ix: &XmlIndex, store: &DiskColumnStore) -> Self {
        let mut stats = Self::sized_for(ix);
        for (_, td) in ix.terms() {
            let mut stored = store.columns(td.name());
            for col in td.columns() {
                stats.levels.push(match stored.next() {
                    Some(dc) => LevelStats::exact(
                        dc.row_count() as u64,
                        col.runs.len() as u64,
                        dc.block_count() as u64,
                        dc.value_span(),
                    ),
                    None => estimate(col),
                });
            }
            stats.end_term();
        }
        stats
    }

    /// The per-level statistics of `term` (empty when unknown).
    pub fn levels(&self, term: TermId) -> &[LevelStats] {
        let t = term.0 as usize;
        match (self.level_at.get(t), self.level_at.get(t + 1)) {
            (Some(&a), Some(&b)) => self.levels.get(a as usize..b as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The statistics of `term` over the join range `1..=depth`.
    pub fn join_range(&self, term: TermId, depth: u16) -> &[LevelStats] {
        let all = self.levels(term);
        all.get(..(depth as usize).min(all.len())).unwrap_or(all)
    }

    /// `true` when the snapshot covers no terms (an empty corpus).
    pub fn is_empty(&self) -> bool {
        self.level_at.len() <= 1
    }
}

/// Per-node cost estimates of a rewritten plan, rendered byte-stably
/// for EXPLAIN and the executed-plan annotations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostSummary {
    /// One line per physical node, in physical-plan order.
    pub lines: Vec<String>,
    /// Predicted total block decodes of the plan as rewritten.
    pub est_blocks: u64,
    /// Predicted total rows materialized.
    pub est_rows: u64,
}

/// Renders the per-node estimates for a rewritten plan: the join total
/// first, then one line per leaf in tree order.
pub(crate) fn summarize(stats: &PlanStats, plan: &PlanNode) -> CostSummary {
    let leaves = plan.leaves();
    // The surviving streamed scan drives any probes (post-rewrite there
    // is at most one among probed joins).
    let driver = leaves.iter().find(|l| l.mode == ScanMode::Stream);
    let driver_stats =
        driver.map(|d| stats.join_range(d.term, d.levels)).unwrap_or(&[]);
    let mut lines = Vec::with_capacity(leaves.len() + 1);
    let mut total = Cost::default();
    let mut leaf_lines = Vec::with_capacity(leaves.len());
    let mut probe_walk = vec![plan];
    let mut kinds: Vec<bool> = Vec::with_capacity(leaves.len()); // true = probe
    while let Some(node) = probe_walk.pop() {
        match node {
            PlanNode::Scan(_) => kinds.push(false),
            PlanNode::IndexProbe(_) => kinds.push(true),
            PlanNode::Join { inputs, .. } => {
                // Reverse so the stack pops in input order.
                probe_walk.extend(inputs.iter().rev());
            }
            PlanNode::Filter { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Merge { input, .. } => probe_walk.push(input),
        }
    }
    for (leaf, &is_probe) in leaves.iter().zip(&kinds) {
        let range = stats.join_range(leaf.term, leaf.levels);
        if is_probe {
            let c = probe_cost(driver_stats, range);
            let s = scan_cost(range);
            let d = driver.map(|d| d.name.as_str()).unwrap_or("");
            // lint:allow(L8, EXPLAIN-only rendering — the serving path never builds the summary)
            leaf_lines.push(format!(
                "probe \"{}\": est blocks<={} rows<={} (scan would decode {} blocks; driver \"{d}\")",
                leaf.name, c.blocks, c.rows, s.blocks
            ));
            total = total.plus(c);
        } else {
            let c = scan_cost(range);
            let mode = match leaf.mode {
                ScanMode::Materialize => "materialize",
                ScanMode::Stream => "stream",
            };
            // lint:allow(L8, EXPLAIN-only rendering — the serving path never builds the summary)
            leaf_lines.push(format!(
                "scan \"{}\": est blocks={} rows={} ({mode})",
                leaf.name, c.blocks, c.rows
            ));
            total = total.plus(c);
        }
    }
    lines.push(format!("join: est blocks={} rows={}", total.blocks, total.rows));
    lines.extend(leaf_lines);
    CostSummary { lines, est_blocks: total.blocks, est_rows: total.rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lv(rows: u64, runs: u64, blocks: u64, span: Option<(u32, u32)>) -> LevelStats {
        LevelStats { rows, runs, blocks, span }
    }

    #[test]
    fn probe_never_costs_more_blocks_than_scan() {
        let driver = [lv(10, 10, 1, Some((0, 100))), lv(10, 8, 1, Some((0, 100)))];
        let term = [lv(5000, 5000, 7, Some((0, 100))), lv(5000, 4000, 6, Some((0, 100)))];
        let p = probe_cost(&driver, &term);
        let s = scan_cost(&term);
        assert!(p.blocks <= s.blocks, "{p:?} vs {s:?}");
        assert!(p.rows <= s.rows);
    }

    #[test]
    fn disjoint_spans_cost_nothing() {
        let driver = [lv(10, 10, 1, Some((0, 50)))];
        let term = [lv(5000, 5000, 7, Some((60, 900)))];
        assert_eq!(probe_cost(&driver, &term), Cost::default());
    }

    #[test]
    fn missing_driver_levels_cost_nothing() {
        let driver = [lv(10, 10, 1, Some((0, 50)))];
        let term = [lv(100, 100, 1, Some((0, 50))), lv(100, 100, 1, Some((0, 50)))];
        // Level 2 has no driver column: the join never reaches it.
        assert_eq!(probe_cost(&driver, &term).blocks, 1);
    }

    #[test]
    fn clustered_drivers_reach_few_blocks() {
        // Driver clustered in 1% of the probed column's span: footer
        // skipping confines its probes to ~1 of the 10 blocks even
        // though the driver produces more values than there are blocks.
        let driver = [lv(20, 20, 1, Some((100, 103)))];
        let term = [lv(10_000, 10_000, 10, Some((0, 9_999)))];
        let clustered = probe_cost(&driver, &term);
        assert_eq!(clustered.blocks, 1, "{clustered:?}");
        // The same driver spread over the whole span can reach every
        // block, but 20 uniform probes over 10 blocks collide: the
        // occupancy estimate expects ~7 distinct blocks, still a
        // predicted elimination over scanning all 10.
        let spread = [lv(20, 20, 1, Some((0, 9_999)))];
        assert_eq!(probe_cost(&spread, &term).blocks, 7);
    }

    #[test]
    fn occupancy_predicts_collisions_between_the_extremes() {
        // Exact at the extremes…
        assert_eq!(occupancy(0, 10), 0);
        assert_eq!(occupancy(10, 0), 0);
        assert_eq!(occupancy(1, 10), 1);
        assert_eq!(occupancy(10, 1), 1);
        // …strictly below min(B, k) in between (10 probes over 5
        // blocks: ceil(50/14) = 4 — a tiny driver against a multi-block
        // column is predicted to skip a block even when their value
        // spans fully overlap)…
        assert_eq!(occupancy(10, 5), 4);
        assert!(occupancy(10, 5) < 5);
        // …and saturating arithmetic stays clamped inside [1, min(B, k)]
        // instead of wrapping (the product saturates, the clamps hold).
        assert!(occupancy(u64::MAX, u64::MAX) >= 1);
        assert!(occupancy(u64::MAX, 7) <= 7);
        assert!(occupancy(7, u64::MAX) <= 7);
    }

    #[test]
    fn weight_orders_blocks_over_rows() {
        let a = Cost { blocks: 2, rows: 0 };
        let b = Cost { blocks: 1, rows: BLOCK_COST_WEIGHT - 1 };
        assert!(a.weight() > b.weight());
        let sat = Cost { blocks: u64::MAX, rows: u64::MAX };
        assert_eq!(sat.weight(), u64::MAX);
    }

    #[test]
    fn estimated_blocks_track_runs() {
        assert_eq!(LevelStats::estimated(0, 0, None).blocks, 0);
        assert_eq!(LevelStats::estimated(5, 5, Some((1, 9))).blocks, 1);
        let big = LevelStats::estimated(50_000, 50_000, Some((0, 1 << 20)));
        assert_eq!(big.blocks, 50_000u64.div_ceil(EST_ENTRIES_PER_BLOCK));
    }
}
