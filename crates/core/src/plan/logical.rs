//! The logical plan IR.
//!
//! Six node kinds describe every query this engine answers:
//!
//! * [`Scan`](PlanNode::Scan) — one keyword's JDewey columns over a level
//!   range.  An **unrewritten** scan describes a whole-sequence read
//!   (the paper's §III-B strawman: "read the whole JDewey sequences from
//!   the disk at once").  The column-pruning rewrite, which every plan
//!   goes through, narrows the range to the query-relevant prefix
//!   `1..=l0` and switches the scan to streaming (level-at-a-time,
//!   decode on demand), so no executor ever reads one.
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
//!
//! [`PlanNode::render`] is byte-stable (fixed attribute order, no
//! floats, no hash iteration), so EXPLAIN output can be snapshot-gated.

use crate::query::{ElcaVariant, Semantics};
use crate::request::ScoreMode;
use crate::topk::ThresholdKind;
use std::fmt::{self, Write as _};
use xtk_index::TermId;

/// How a [`PlanNode::Scan`] consumes its level range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Decode every block of every level in the range up front — the
    /// unoptimized whole-sequence read.  Only the binder's plan holds it:
    /// column pruning streams every scan it rewrites.
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
}

impl PlanNode {
    /// Renders the plan tree, two-space indented, byte-stable.  `floor`
    /// is the shallowest level the target's join reads: 1, or 2 on the
    /// sharded target, which leaves out the corpus root.
    pub fn render(&self, floor: u16) -> String {
        fmt::from_fn(|f| self.render_into(f, 0, floor)).to_string()
    }

    fn render_into(&self, out: &mut fmt::Formatter<'_>, depth: usize, floor: u16) -> fmt::Result {
        for _ in 0..depth {
            out.write_str("  ")?;
        }
        match self {
            PlanNode::Scan(leaf) => {
                let mode = match leaf.mode {
                    ScanMode::Materialize => "materialize",
                    ScanMode::Stream => "stream",
                };
                write!(
                    out,
                    "LogicalScan: term=\"{}\" postings={} levels={} mode={}",
                    leaf.name,
                    leaf.postings,
                    LevelRange(1, leaf.levels),
                    mode
                )?;
                if let Some(full) = leaf.pruned_from {
                    write!(out, " (pruned from {})", LevelRange(1, full))?;
                }
                out.write_char('\n')
            }
            PlanNode::IndexProbe(leaf) => {
                write!(
                    out,
                    "LogicalIndexProbe: term=\"{}\" postings={} levels={} skip=footers",
                    leaf.name,
                    leaf.postings,
                    LevelRange(1, leaf.levels)
                )?;
                if let Some(full) = leaf.pruned_from {
                    write!(out, " (pruned from {})", LevelRange(1, full))?;
                }
                out.write_char('\n')
            }
            PlanNode::Join { inputs, levels } => {
                writeln!(out, "LogicalJoin: levels={}", LevelRange(floor, *levels))?;
                for i in inputs {
                    i.render_into(out, depth + 1, floor)?;
                }
                Ok(())
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
                writeln!(out, "LogicalFilter: semantics={sem} variant={var}")?;
                input.render_into(out, depth + 1, floor)
            }
            PlanNode::TopK { input, k, strategy, threshold, scores, bound } => {
                out.write_str("LogicalTopK:")?;
                match k {
                    Some(k) => write!(out, " k={k}")?,
                    None => out.write_str(" k=all")?,
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
                write!(out, " strategy={strat} threshold={thr} scores={sc}")?;
                if let Some(b) = bound {
                    write!(out, " (candidate bound {b})")?;
                }
                out.write_char('\n')?;
                input.render_into(out, depth + 1, floor)
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
            PlanNode::Filter { input, .. } | PlanNode::TopK { input, .. } => {
                input.collect_leaves(out)
            }
        }
    }
}

/// `from..=to` rendered as `from..to` (or `none` for an empty range).
pub(crate) struct LevelRange(pub(crate) u16, pub(crate) u16);

impl std::fmt::Display for LevelRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.1 < self.0.max(1) {
            write!(f, "none")
        } else {
            write!(f, "{}..{}", self.0, self.1)
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
        let a = plan.render(1);
        let b = plan.render(1);
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
        let sharded = plan.render(2);
        assert!(sharded.contains("LogicalJoin: levels=2..3\n"), "{sharded}");
        assert!(sharded.contains("levels=1..3 skip=footers (pruned from 1..5)"), "{sharded}");
    }
}
