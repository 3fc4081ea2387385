#![forbid(unsafe_code)]

//! The query engines of *"Supporting Top-K Keyword Search in XML
//! Databases"* (Chen & Papakonstantinou, ICDE 2010).
//!
//! # Semantics
//!
//! A `k`-keyword query returns **ELCA**s or **SLCA**s of the keyword
//! inverted lists ([`query::Semantics`]).  SLCA is unambiguous: the minimal
//! nodes whose subtree contains all keywords.  For ELCA two published
//! variants exist and this crate implements both
//! ([`query::ElcaVariant`]):
//!
//! * **Formal** — the XRank paper's written definition: a node is an ELCA
//!   if every keyword has an occurrence below it that is not inside *any*
//!   descendant subtree containing all keywords ("raw-full" subtrees).
//! * **Operational** — what XRank's DIL stack algorithm and this paper's
//!   Algorithm 1 actually compute: exclusion applies only at descendant
//!   subtrees that are themselves *emitted ELCAs*.  The two differ only
//!   when a raw-full descendant fails its own ELCA test.
//!
//! The join-based algorithms, the stack-based baseline, and the naive
//! references support both variants; the index-based and RDIL baselines
//! are candidate-generation algorithms whose completeness theorem only
//! holds for the formal variant, so they implement that one — exactly the
//! situation in the paper's own experimental comparison.
//!
//! # Engines
//!
//! * [`joinbased`] — Algorithm 1: bottom-up per-level joins over JDewey
//!   columns with range-checked semantic pruning, one lookup per join step
//!   that adapts per probe (§III).
//! * [`topk`] — the join-based top-K algorithm: score-ordered segment
//!   cursors, the top-K **star join** with partial-result groups and the
//!   tightened unseen-result threshold, per-column upper bounds (§IV).
//! * [`baseline`] — stack-based DIL, Indexed-Lookup-Eager SLCA, the
//!   index-based ELCA algorithm, and RDIL.
//! * [`hybrid`] — the §V-D planner prototype choosing between the complete
//!   join and the top-K join from a run-overlap cardinality estimate.
//! * [`engine`] — a high-level façade over all of the above.
//! * [`request`] — the unified [`QueryRequest`] → [`QueryResponse`] API:
//!   one entry point ([`Engine::run`] / the [`Executor`] trait) for every
//!   backend, semantics and algorithm, returning results plus the unified
//!   metrics snapshot and, on request, the deterministic execution trace
//!   recorded by `xtk-obs`.
//! * [`plan`] — the logical plan layer: the parsed query language
//!   (`"xml search k=5 sem=elca rules=all"`), the plan IR
//!   (scan/probe/join/filter/top-K/merge), result-preserving rewrite
//!   rules (column pruning, probe pushdown, noop elimination), physical
//!   lowering behind [`Engine::run`] and the [`Executor`] backends, and
//!   byte-stable EXPLAIN ([`PlanExplain`]).
//! * [`batch`] — batched serving: request dedup, a generation-stamped
//!   result cache, cross-query prefetch pinning, and parallel execution
//!   with input-order output ([`Engine::run_batch`]).
//! * [`shard`] — sharded scatter-gather serving: a corpus partitioned
//!   into per-document shards ([`write_sharded`]), queried through
//!   [`ShardedEngine`] with a TA-style merge threshold that stops
//!   gathering once no remaining shard can alter the top-K.

pub mod baseline;
pub mod batch;
pub mod diskexec;
pub mod engine;
pub mod eraser;
pub mod hybrid;
pub mod joinbased;
pub mod plan;
pub mod pool;
pub mod query;
pub mod request;
pub mod result;
pub mod semantics;
pub mod shard;
pub mod starjoin;
pub mod topk;
pub mod verify;

pub use batch::{BatchExecutor, BatchItem, BatchOptions, BatchReport, ResultCache};
pub use engine::Engine;
pub use plan::{
    ExplainTarget, ParseError, ParsedQuery, PlanError, PlanExplain, RuleSet,
};
pub use pool::Parallelism;
pub use query::{ElcaVariant, Query, Semantics};
pub use request::{
    DiskEngine, ExecutedEngine, Executor, QueryAlgorithm, QueryRequest, QueryResponse,
    ScoreMode,
};
pub use result::ScoredResult;
pub use shard::{write_sharded, ShardedEngine};
pub use topk::{TopKOptions, TopKStream};
pub use xtk_obs::{MetricsSnapshot, Trace, TraceLevel};
