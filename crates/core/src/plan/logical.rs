//! The logical plan IR.
//!
//! Six node kinds describe every query this engine answers:
//!
//! * [`Scan`](PlanNode::Scan) — one keyword's JDewey columns over a level
//!   range.  An **unrewritten** scan is a whole-sequence read (the
//!   paper's §III-B strawman: "read the whole JDewey sequences from the
//!   disk at once"): the lowering materializes every block of every
//!   level in the range.  The column-pruning rewrite narrows the range
//!   to the query-relevant prefix `1..=l0` and switches the scan to
//!   streaming (level-at-a-time, decode on demand).
//! * [`IndexProbe`](PlanNode::IndexProbe) — probe access to a keyword's
//!   columns: at most one block decode per probed value, with the
//!   directory's last-value footers skipping blocks that cannot contain a
//!   probe.
//!   Produced from streaming scans by the predicate-pushdown rewrite.
//! * [`Join`](PlanNode::Join) — the per-level conjunctive join of its
//!   inputs (Algorithm 1's bottom-up loop), driver chosen per level.
//! * [`Filter`](PlanNode::Filter) — the ELCA/SLCA semantic pruning.
//! * [`TopK`](PlanNode::TopK) — output shaping: ranking, the top-K
//!   strategy, truncation.
//! * [`Merge`](PlanNode::Merge) — the sharded scatter-gather merge with
//!   the TA-style bound.
//!
//! [`PlanNode::render`] is byte-stable (fixed attribute order, no
//! floats, no hash iteration), so EXPLAIN output can be snapshot-gated.

use crate::query::{ElcaVariant, Semantics};
use crate::request::ScoreMode;
use crate::topk::ThresholdKind;
use std::fmt::Write as _;
use xtk_index::TermId;

/// How a [`PlanNode::Scan`] consumes its level range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Decode every block of every level in the range up front — the
    /// unoptimized whole-sequence read.
    Materialize,
    /// Decode level by level as the join consumes them.
    Stream,
}

/// A leaf: one keyword's posting columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanLeaf {
    /// The resolved term.
    pub term: TermId,
    /// The keyword text (for rendering).
    pub name: String,
    /// Total postings of the keyword (|L| in the paper).
    pub postings: usize,
    /// Levels `1..=levels` this leaf exposes.
    pub levels: u16,
    /// Set by the column-pruning rewrite: the pre-prune level count.
    pub pruned_from: Option<u16>,
    /// Whole-sequence vs streaming (see [`ScanMode`]).
    pub mode: ScanMode,
}

/// Which physical top-K strategy the plan requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// Decide from the cardinality estimate at lowering time (the §V-D
    /// hybrid choice between the star join and the complete sort).
    Auto,
    /// Force the §IV top-K star join.
    StarJoin,
    /// Compute the complete set, sort, truncate.
    SortComplete,
}

/// A logical plan node.  See the module docs for the operator semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Whole-sequence or streaming column access for one keyword.
    Scan(ScanLeaf),
    /// Probe access with footer-based block skipping for one keyword.
    IndexProbe(ScanLeaf),
    /// Per-level conjunctive join of the inputs.
    Join {
        /// The joined keyword leaves, in query order.
        inputs: Vec<PlanNode>,
        /// The join loop covers levels `1..=levels`, deepest first.
        levels: u16,
    },
    /// ELCA/SLCA semantic pruning of the matches.
    Filter {
        /// The match producer.
        input: Box<PlanNode>,
        /// ELCA or SLCA.
        semantics: Semantics,
        /// ELCA exclusion variant.
        variant: ElcaVariant,
    },
    /// Ranking and truncation.
    TopK {
        /// The result producer.
        input: Box<PlanNode>,
        /// `Some(k)` truncates to the k best; `None` keeps everything.
        k: Option<usize>,
        /// Star join vs complete sort vs cost-based.
        strategy: TopKStrategy,
        /// Unseen-result bound for the star join.
        threshold: ThresholdKind,
        /// Ranked or natural emission order.
        scores: ScoreMode,
        /// Set by noop elimination: the candidate bound that proved the
        /// truncation a noop.
        bound: Option<u64>,
    },
    /// Sharded scatter-gather over per-shard copies of the inner plan.
    Merge {
        /// The per-shard plan.
        input: Box<PlanNode>,
        /// Number of shards scattered over.
        shards: usize,
        /// Whether the TA-style bound prunes dominated shards.
        ta_prune: bool,
    },
}

impl PlanNode {
    /// Renders the plan tree, two-space indented, byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            PlanNode::Scan(leaf) => {
                let mode = match leaf.mode {
                    ScanMode::Materialize => "materialize",
                    ScanMode::Stream => "stream",
                };
                let _ = write!(
                    out,
                    "LogicalScan: term=\"{}\" postings={} levels={} mode={}",
                    leaf.name,
                    leaf.postings,
                    LevelRange(leaf.levels),
                    mode
                );
                if let Some(full) = leaf.pruned_from {
                    let _ = write!(out, " (pruned from {})", LevelRange(full));
                }
                out.push('\n');
            }
            PlanNode::IndexProbe(leaf) => {
                let _ = write!(
                    out,
                    "LogicalIndexProbe: term=\"{}\" postings={} levels={} skip=footers",
                    leaf.name,
                    leaf.postings,
                    LevelRange(leaf.levels)
                );
                if let Some(full) = leaf.pruned_from {
                    let _ = write!(out, " (pruned from {})", LevelRange(full));
                }
                out.push('\n');
            }
            PlanNode::Join { inputs, levels } => {
                let _ = writeln!(out, "LogicalJoin: levels={}", LevelRange(*levels));
                for i in inputs {
                    i.render_into(out, depth + 1);
                }
            }
            PlanNode::Filter { input, semantics, variant } => {
                let sem = match semantics {
                    Semantics::Elca => "elca",
                    Semantics::Slca => "slca",
                };
                let var = match variant {
                    ElcaVariant::Operational => "operational",
                    ElcaVariant::Formal => "formal",
                };
                let _ = writeln!(out, "LogicalFilter: semantics={sem} variant={var}");
                input.render_into(out, depth + 1);
            }
            PlanNode::TopK { input, k, strategy, threshold, scores, bound } => {
                out.push_str("LogicalTopK:");
                match k {
                    Some(k) => {
                        let _ = write!(out, " k={k}");
                    }
                    None => out.push_str(" k=all"),
                }
                let strat = match strategy {
                    TopKStrategy::Auto => "auto",
                    TopKStrategy::StarJoin => "star-join",
                    TopKStrategy::SortComplete => "sort-complete",
                };
                let thr = match threshold {
                    ThresholdKind::Tight => "tight",
                    ThresholdKind::Classic => "classic",
                };
                let sc = match scores {
                    ScoreMode::Ranked => "ranked",
                    ScoreMode::Unranked => "unranked",
                };
                let _ = write!(out, " strategy={strat} threshold={thr} scores={sc}");
                if let Some(b) = bound {
                    let _ = write!(out, " (candidate bound {b})");
                }
                out.push('\n');
                input.render_into(out, depth + 1);
            }
            PlanNode::Merge { input, shards, ta_prune } => {
                let ta = if *ta_prune { "on" } else { "off" };
                let _ = writeln!(out, "LogicalMerge: shards={shards} ta-prune={ta}");
                input.render_into(out, depth + 1);
            }
        }
    }

    /// The scan/probe leaves of the tree, left to right.
    pub fn leaves(&self) -> Vec<&ScanLeaf> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a ScanLeaf>) {
        match self {
            PlanNode::Scan(leaf) | PlanNode::IndexProbe(leaf) => out.push(leaf),
            PlanNode::Join { inputs, .. } => {
                for i in inputs {
                    i.collect_leaves(out);
                }
            }
            PlanNode::Filter { input, .. }
            | PlanNode::TopK { input, .. }
            | PlanNode::Merge { input, .. } => input.collect_leaves(out),
        }
    }
}

/// `1..=n` rendered as `1..N` (or `none` for an empty range).
pub(crate) struct LevelRange(pub(crate) u16);

impl std::fmt::Display for LevelRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            write!(f, "none")
        } else {
            write!(f, "1..{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, levels: u16) -> ScanLeaf {
        ScanLeaf {
            term: TermId(0),
            name: name.to_string(),
            postings: 12,
            levels,
            pruned_from: None,
            mode: ScanMode::Materialize,
        }
    }

    #[test]
    fn render_is_stable_and_indented() {
        let plan = PlanNode::TopK {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::Join {
                    inputs: vec![
                        PlanNode::Scan(leaf("xml", 5)),
                        PlanNode::IndexProbe(ScanLeaf {
                            pruned_from: Some(5),
                            levels: 3,
                            mode: ScanMode::Stream,
                            ..leaf("search", 3)
                        }),
                    ],
                    levels: 3,
                }),
                semantics: Semantics::Elca,
                variant: ElcaVariant::Operational,
            }),
            k: Some(5),
            strategy: TopKStrategy::Auto,
            threshold: ThresholdKind::Tight,
            scores: ScoreMode::Ranked,
            bound: None,
        };
        let a = plan.render();
        let b = plan.render();
        assert_eq!(a, b);
        assert_eq!(
            a,
            "LogicalTopK: k=5 strategy=auto threshold=tight scores=ranked\n  \
             LogicalFilter: semantics=elca variant=operational\n    \
             LogicalJoin: levels=1..3\n      \
             LogicalScan: term=\"xml\" postings=12 levels=1..5 mode=materialize\n      \
             LogicalIndexProbe: term=\"search\" postings=12 levels=1..3 skip=footers (pruned from 1..5)\n"
        );
        assert_eq!(plan.leaves().len(), 2);
    }
}
