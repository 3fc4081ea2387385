//! The logical plan layer: parsed query strings, a rewriteable IR, and
//! physical lowering.
//!
//! The pipeline a query string flows through:
//!
//! ```text
//! "xml search k=5 sem=elca"
//!    │  parse            (plan::parse — typed errors, source spans)
//!    ▼
//! ParsedQuery ── bind ──► (Query, QueryRequest)     (plan::bind)
//!    │  logical_plan
//!    ▼
//! LogicalTopK ▸ LogicalFilter ▸ LogicalJoin ▸ scans (plan::logical)
//!    │  rewrite: prune-columns, push-probes, eliminate-noops
//!    ▼
//! rewritten plan + AppliedRule log                  (plan::rewrite)
//!    │  lower
//!    ▼
//! ExecSpec → memory / disk / sharded drivers        (plan::lower)
//! ```
//!
//! Every rewrite rule is result-preserving: for any engine, parallelism
//! and cache configuration the rewritten plan answers bit-identically to
//! the unrewritten one.  EXPLAIN ([`PlanExplain`]) renders each stage
//! byte-stably for snapshot gating.
//!
//! Two layers sit beside it (PR 10): [`cost`] harvests a deterministic
//! statistics snapshot from the column directory and estimates the
//! decodes of each plan leaf for EXPLAIN, and [`cache`] memoizes finished
//! [`ExecSpec`]s across queries keyed by the canonicalized request
//! fingerprint (invalidated by maintainer generation and topology salt,
//! exactly like the result cache).

pub mod bind;
pub mod cache;
pub mod cost;
pub mod logical;
pub mod lower;
pub mod parse;
pub mod rewrite;

pub use bind::{candidate_bound, compile, logical_plan, PlanError};
pub use cache::{PlanCache, PlanSource, Planner};
pub use cost::{
    probe_cost, scan_cost, Cost, CostSummary, LevelStats, PlanStats, BLOCK_COST_WEIGHT,
    EST_ENTRIES_PER_BLOCK,
};
pub use logical::{PlanNode, ScanLeaf, ScanMode, TopKStrategy};
pub use lower::{
    annotate_executed, explain, lower, ExecSpec, ExplainTarget, PlanExplain, TopKExec,
};
pub use parse::{parse, ParseError, ParsedQuery, Span};
pub use rewrite::{rewrite as rewrite_plan, AppliedRule, Rewrite, RuleSet};
