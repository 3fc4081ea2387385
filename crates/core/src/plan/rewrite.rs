//! Result-preserving rewrite rules over the logical plan.
//!
//! Three rules, applied in a fixed order:
//!
//! 1. **prune-columns** — the binder's scans are whole-sequence reads
//!    (every level of every keyword).  Since Algorithm 1 only joins the
//!    levels `1..=l0` shared by *all* keywords, this rule narrows every
//!    scan to the join's level range and switches it to streaming, so
//!    levels above the lowest query-relevant level are never decoded.
//! 2. **push-probes** — among the streamed scans of a join, every
//!    non-driver input can be consumed by *probing* instead of scanning:
//!    the executor looks up only values the driver produced, and the
//!    directory's last-value footers skip blocks that cannot contain a
//!    probed value.  The rule turns those scans into
//!    [`PlanNode::IndexProbe`] leaves.  It only fires on streamed scans, so disabling
//!    prune-columns also disables the pushdown (rules compose through
//!    the IR, not through side channels).
//! 3. **eliminate-noops** — collapses single-input joins (a one-keyword
//!    query joins nothing) and converts a cost-based top-K into a plain
//!    sort when `k` is at least the **candidate bound** — a per-level
//!    sum of the scarcest keyword's distinct-value counts that provably
//!    dominates both the result count and the §V-D cardinality estimate
//!    (sampling and histogram estimates are each capped by the scarcest
//!    column's distinct count per level), so the hybrid router would
//!    pick the complete join anyway and the truncation keeps everything.
//!
//! Every rule is **result-preserving**: for any engine, parallelism and
//! cache configuration, running the rewritten plan returns bit-identical
//! results to the unrewritten one (the `plan_differential` test suite
//! proves this per rule).  The rules only move work, never answers.

use crate::plan::logical::{PlanNode, ScanMode};

/// Which rewrite rules run.  The default is all of them — the optimized
/// pipeline the engines always used; switching rules off exists for
/// EXPLAIN, differential testing and perf analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleSet {
    /// Narrow scans to the join's level range (streamed, never decoding
    /// levels above `l0`).
    pub prune_columns: bool,
    /// Convert non-driver streamed scans into footer-skipping probes.
    pub push_probes: bool,
    /// Collapse single-input joins and provably-complete top-Ks.
    pub eliminate_noops: bool,
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::all()
    }
}

impl RuleSet {
    /// Every rule on (the default pipeline).
    pub const fn all() -> Self {
        Self { prune_columns: true, push_probes: true, eliminate_noops: true }
    }

    /// Every rule off (the unoptimized reference pipeline).
    pub const fn none() -> Self {
        Self { prune_columns: false, push_probes: false, eliminate_noops: false }
    }

    /// The canonical `rules=` knob value: `all`, `none`, or the enabled
    /// subset as a comma list (`prune,push,elim` order).
    pub fn knob_value(&self) -> String {
        if *self == Self::all() {
            return "all".to_string();
        }
        if *self == Self::none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.prune_columns {
            parts.push("prune");
        }
        if self.push_probes {
            parts.push("push");
        }
        if self.eliminate_noops {
            parts.push("elim");
        }
        parts.join(",")
    }
}

/// Rule names as they appear in EXPLAIN output.
pub const PRUNE_COLUMNS: &str = "prune-columns";
/// See [`PRUNE_COLUMNS`].
pub const PUSH_PROBES: &str = "push-probes";
/// See [`PRUNE_COLUMNS`].
pub const ELIMINATE_NOOPS: &str = "eliminate-noops";

/// One concrete rule application, for the EXPLAIN rewrite log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedRule {
    /// The rule ([`PRUNE_COLUMNS`] / [`PUSH_PROBES`] / [`ELIMINATE_NOOPS`]).
    pub rule: &'static str,
    /// What it did, rendered byte-stably.
    pub detail: String,
}

/// A rewritten plan plus the log of what fired.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewrite {
    /// The plan after all enabled rules.
    pub plan: PlanNode,
    /// Applications in firing order (byte-stable).
    pub applied: Vec<AppliedRule>,
}

/// Runs the enabled rules over `plan` in the fixed prune → push → elim
/// order.  `candidate_bound` is the query's result-count upper bound when
/// the caller can compute one (the in-memory binder can; `None` disables
/// the top-K elimination, never the join collapse).
pub fn rewrite(plan: PlanNode, rules: RuleSet, candidate_bound: Option<u64>) -> Rewrite {
    let mut applied = Vec::new();
    let mut plan = plan;
    if rules.prune_columns {
        plan = prune_columns(plan, &mut applied);
    }
    if rules.push_probes {
        plan = push_probes(plan, &mut applied);
    }
    if rules.eliminate_noops {
        plan = eliminate_noops(plan, candidate_bound, &mut applied);
    }
    Rewrite { plan, applied }
}

fn prune_columns(node: PlanNode, applied: &mut Vec<AppliedRule>) -> PlanNode {
    match node {
        PlanNode::Join { inputs, levels } => {
            let inputs = inputs
                .into_iter()
                .map(|input| match input {
                    PlanNode::Scan(mut leaf) if leaf.mode == ScanMode::Materialize => {
                        if leaf.levels > levels {
                            applied.push(AppliedRule {
                                rule: PRUNE_COLUMNS,
                                detail: format!(
                                    "\"{}\": levels 1..{} -> 1..{}, streamed",
                                    leaf.name, leaf.levels, levels
                                ),
                            });
                            leaf.pruned_from = Some(leaf.levels);
                            leaf.levels = levels;
                        } else {
                            applied.push(AppliedRule {
                                rule: PRUNE_COLUMNS,
                                detail: format!(
                                    "\"{}\": streamed (already at the join depth)",
                                    leaf.name
                                ),
                            });
                        }
                        leaf.mode = ScanMode::Stream;
                        PlanNode::Scan(leaf)
                    }
                    other => other,
                })
                .collect();
            PlanNode::Join { inputs, levels }
        }
        PlanNode::Filter { input, semantics, variant } => PlanNode::Filter {
            input: Box::new(prune_columns(*input, applied)),
            semantics,
            variant,
        },
        PlanNode::TopK { input, k, strategy, threshold, scores, bound } => PlanNode::TopK {
            input: Box::new(prune_columns(*input, applied)),
            k,
            strategy,
            threshold,
            scores,
            bound,
        },
        PlanNode::Merge { input, shards, ta_prune } => PlanNode::Merge {
            input: Box::new(prune_columns(*input, applied)),
            shards,
            ta_prune,
        },
        leaf @ (PlanNode::Scan(_) | PlanNode::IndexProbe(_)) => leaf,
    }
}

/// The scarcest streamed scan of a join drives; the others probe.
fn push_probes(node: PlanNode, applied: &mut Vec<AppliedRule>) -> PlanNode {
    match node {
        PlanNode::Join { inputs, levels } => {
            // The driver (the scarcest streamed scan; first on ties) stays
            // a scan — probes need a producer of candidate values.
            let mut driver: Option<(usize, usize)> = None; // (index, postings)
            for (i, input) in inputs.iter().enumerate() {
                if let PlanNode::Scan(leaf) = input {
                    if leaf.mode == ScanMode::Stream
                        && driver.is_none_or(|(_, p)| leaf.postings < p)
                    {
                        driver = Some((i, leaf.postings));
                    }
                }
            }
            let Some((d, _)) = driver else {
                return PlanNode::Join { inputs, levels };
            };
            let driver_name = match inputs.get(d) {
                Some(PlanNode::Scan(leaf)) => leaf.name.clone(),
                _ => String::new(),
            };
            let inputs = inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| match input {
                    PlanNode::Scan(leaf) if i != d && leaf.mode == ScanMode::Stream => {
                        applied.push(AppliedRule {
                            rule: PUSH_PROBES,
                            detail: format!(
                                "\"{}\": probe with footer block skipping (driver \"{driver_name}\")",
                                leaf.name
                            ),
                        });
                        PlanNode::IndexProbe(leaf)
                    }
                    other => other,
                })
                .collect();
            PlanNode::Join { inputs, levels }
        }
        PlanNode::Filter { input, semantics, variant } => PlanNode::Filter {
            input: Box::new(push_probes(*input, applied)),
            semantics,
            variant,
        },
        PlanNode::TopK { input, k, strategy, threshold, scores, bound } => PlanNode::TopK {
            input: Box::new(push_probes(*input, applied)),
            k,
            strategy,
            threshold,
            scores,
            bound,
        },
        PlanNode::Merge { input, shards, ta_prune } => PlanNode::Merge {
            input: Box::new(push_probes(*input, applied)),
            shards,
            ta_prune,
        },
        leaf @ (PlanNode::Scan(_) | PlanNode::IndexProbe(_)) => leaf,
    }
}

fn eliminate_noops(
    node: PlanNode,
    candidate_bound: Option<u64>,
    applied: &mut Vec<AppliedRule>,
) -> PlanNode {
    match node {
        PlanNode::Join { mut inputs, levels } => {
            if inputs.len() == 1 {
                if let Some(only) = inputs.pop() {
                    applied.push(AppliedRule {
                        rule: ELIMINATE_NOOPS,
                        detail: "single-keyword query: join removed".to_string(),
                    });
                    return eliminate_noops(only, candidate_bound, applied);
                }
            }
            PlanNode::Join {
                inputs: inputs
                    .into_iter()
                    .map(|i| eliminate_noops(i, candidate_bound, applied))
                    .collect(),
                levels,
            }
        }
        PlanNode::Filter { input, semantics, variant } => PlanNode::Filter {
            input: Box::new(eliminate_noops(*input, candidate_bound, applied)),
            semantics,
            variant,
        },
        PlanNode::TopK { input, k, mut strategy, threshold, scores, mut bound } => {
            // `k >= bound` makes the truncation a noop *and* proves the
            // hybrid router would pick the complete join: the §V-D
            // estimate is at most the bound, so `est <= bound <= k < 4k`.
            // Only the cost-based strategy collapses — a forced star join
            // stays forced (its score path is its own contract).
            // `k = 0` is excluded: the `est >= 4k` routing test is
            // degenerate there (always true), so the hybrid would pick
            // the star join and the executed-engine tag would differ.
            if let (Some(k), Some(b)) = (k, candidate_bound) {
                if strategy == crate::plan::logical::TopKStrategy::Auto
                    && k >= 1
                    && k as u64 >= b
                {
                    applied.push(AppliedRule {
                        rule: ELIMINATE_NOOPS,
                        detail: format!(
                            "top-k: k={k} >= candidate bound {b}, sort-complete"
                        ),
                    });
                    strategy = crate::plan::logical::TopKStrategy::SortComplete;
                    bound = Some(b);
                }
            }
            PlanNode::TopK {
                input: Box::new(eliminate_noops(*input, candidate_bound, applied)),
                k,
                strategy,
                threshold,
                scores,
                bound,
            }
        }
        PlanNode::Merge { input, shards, ta_prune } => PlanNode::Merge {
            input: Box::new(eliminate_noops(*input, candidate_bound, applied)),
            shards,
            ta_prune,
        },
        leaf @ (PlanNode::Scan(_) | PlanNode::IndexProbe(_)) => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::{ScanLeaf, TopKStrategy};
    use crate::query::{ElcaVariant, Semantics};
    use crate::request::ScoreMode;
    use crate::topk::ThresholdKind;
    use xtk_index::TermId;

    fn leaf(name: &str, postings: usize, levels: u16) -> ScanLeaf {
        ScanLeaf {
            term: TermId(0),
            name: name.to_string(),
            postings,
            levels,
            pruned_from: None,
            mode: ScanMode::Materialize,
        }
    }

    fn two_term_plan(k: Option<usize>, strategy: TopKStrategy) -> PlanNode {
        PlanNode::TopK {
            input: Box::new(PlanNode::Filter {
                input: Box::new(PlanNode::Join {
                    inputs: vec![
                        PlanNode::Scan(leaf("big", 100, 5)),
                        PlanNode::Scan(leaf("small", 7, 3)),
                    ],
                    levels: 3,
                }),
                semantics: Semantics::Elca,
                variant: ElcaVariant::Operational,
            }),
            k,
            strategy,
            threshold: ThresholdKind::Tight,
            scores: ScoreMode::Ranked,
            bound: None,
        }
    }

    #[test]
    fn knob_value_round_trips_named_sets() {
        assert_eq!(RuleSet::all().knob_value(), "all");
        assert_eq!(RuleSet::none().knob_value(), "none");
        let some = RuleSet { prune_columns: true, push_probes: false, eliminate_noops: true };
        assert_eq!(some.knob_value(), "prune,elim");
        assert_eq!(RuleSet::default(), RuleSet::all());
    }

    #[test]
    fn prune_narrows_and_streams_scans() {
        let rw = rewrite(
            two_term_plan(Some(5), TopKStrategy::Auto),
            RuleSet { prune_columns: true, push_probes: false, eliminate_noops: false },
            None,
        );
        let leaves = rw.plan.leaves();
        assert_eq!(leaves[0].levels, 3);
        assert_eq!(leaves[0].pruned_from, Some(5));
        assert_eq!(leaves[0].mode, ScanMode::Stream);
        assert_eq!(leaves[1].levels, 3);
        assert_eq!(leaves[1].pruned_from, None);
        assert_eq!(leaves[1].mode, ScanMode::Stream);
        assert_eq!(rw.applied.len(), 2);
        assert!(rw.applied.iter().all(|a| a.rule == PRUNE_COLUMNS));
    }

    #[test]
    fn push_needs_streamed_scans() {
        // Without prune the scans stay materialized and push cannot fire.
        let rw = rewrite(
            two_term_plan(Some(5), TopKStrategy::Auto),
            RuleSet { prune_columns: false, push_probes: true, eliminate_noops: false },
            None,
        );
        assert!(rw.applied.is_empty());
        // With prune, the scarcest term drives and the other probes.
        let rw = rewrite(
            two_term_plan(Some(5), TopKStrategy::Auto),
            RuleSet { prune_columns: true, push_probes: true, eliminate_noops: false },
            None,
        );
        let probes: Vec<_> = rw
            .applied
            .iter()
            .filter(|a| a.rule == PUSH_PROBES)
            .collect();
        assert_eq!(probes.len(), 1);
        assert!(probes[0].detail.contains("\"big\""), "{}", probes[0].detail);
        assert!(probes[0].detail.contains("driver \"small\""), "{}", probes[0].detail);
    }

    #[test]
    fn elim_collapses_single_keyword_joins() {
        let plan = PlanNode::Filter {
            input: Box::new(PlanNode::Join {
                inputs: vec![PlanNode::Scan(leaf("only", 4, 2))],
                levels: 2,
            }),
            semantics: Semantics::Slca,
            variant: ElcaVariant::Operational,
        };
        let rw = rewrite(
            plan,
            RuleSet { prune_columns: false, push_probes: false, eliminate_noops: true },
            None,
        );
        assert!(matches!(
            rw.plan,
            PlanNode::Filter { ref input, .. } if matches!(**input, PlanNode::Scan(_))
        ));
        assert_eq!(rw.applied.len(), 1);
        assert_eq!(rw.applied[0].rule, ELIMINATE_NOOPS);
    }

    #[test]
    fn elim_converts_covered_topk_to_sort() {
        let rw = rewrite(
            two_term_plan(Some(10), TopKStrategy::Auto),
            RuleSet { prune_columns: false, push_probes: false, eliminate_noops: true },
            Some(7),
        );
        let PlanNode::TopK { strategy, bound, .. } = &rw.plan else {
            panic!("not a topk root");
        };
        assert_eq!(*strategy, TopKStrategy::SortComplete);
        assert_eq!(*bound, Some(7));

        // k below the bound: untouched.
        let rw = rewrite(
            two_term_plan(Some(3), TopKStrategy::Auto),
            RuleSet { prune_columns: false, push_probes: false, eliminate_noops: true },
            Some(7),
        );
        let PlanNode::TopK { strategy, .. } = &rw.plan else {
            panic!("not a topk root");
        };
        assert_eq!(*strategy, TopKStrategy::Auto);

        // A forced star join never collapses.
        let rw = rewrite(
            two_term_plan(Some(10), TopKStrategy::StarJoin),
            RuleSet { prune_columns: false, push_probes: false, eliminate_noops: true },
            Some(7),
        );
        let PlanNode::TopK { strategy, .. } = &rw.plan else {
            panic!("not a topk root");
        };
        assert_eq!(*strategy, TopKStrategy::StarJoin);

        // No bound available (disk binder): untouched.
        let rw = rewrite(
            two_term_plan(Some(10), TopKStrategy::Auto),
            RuleSet { prune_columns: false, push_probes: false, eliminate_noops: true },
            None,
        );
        let PlanNode::TopK { strategy, .. } = &rw.plan else {
            panic!("not a topk root");
        };
        assert_eq!(*strategy, TopKStrategy::Auto);
    }
}
