//! The unified query API: one [`QueryRequest`] in, one [`QueryResponse`]
//! out, for every backend, semantics and algorithm.
//!
//! Historically the [`Engine`] façade grew seven entry points (`search`,
//! `search_unranked`, `search_with_stats`, `top_k`, `top_k_auto`,
//! `top_k_rdil`, `top_k_with_stats`), each returning a different shape and
//! each with its own stats type.  This module collapses them into a single
//! builder-style request executed by [`Engine::run`], which returns the
//! results **plus** the unified observability payload: a
//! [`MetricsSnapshot`] of every counter the execution touched (join,
//! top-K, star join, cache, store I/O) and, when asked for, the
//! deterministic event [`Trace`].
//!
//! The [`Executor`] trait gives the on-disk engine
//! ([`DiskEngine`], backed by
//! [`join_search_disk`](crate::diskexec::join_search_disk)) the same
//! request/response surface as the in-memory one.

use crate::baseline::stack::{stack_search, StackOptions};
use crate::engine::Engine;
use crate::query::{ElcaVariant, Query, Semantics};
use crate::result::ScoredResult;
use crate::topk::ThresholdKind;
use std::io;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_obs::{MetricsRegistry, MetricsSnapshot, Obs, Trace, TraceLevel, Tracer};

/// Which engine answers the request.  (The index-based and RDIL
/// baselines are not served; `xtk-baselines` runs them.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryAlgorithm {
    /// Route automatically: the §V-D hybrid planner for top-K requests,
    /// the join-based complete algorithm otherwise.  Default.
    #[default]
    Auto,
    /// The paper's join-based Algorithm 1 (complete set; top-K requests
    /// sort and truncate).
    JoinBased,
    /// The stack-based DIL baseline (unranked complete set), the
    /// reference implementation the join family is checked against.
    StackBased,
    /// The join-based top-K star join (§IV).  Requires `k`; without it
    /// the request degenerates to the complete join.
    TopKJoin,
}

/// Whether results carry ranking scores and rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreMode {
    /// Compute scores and return results in rank order.  Default.
    #[default]
    Ranked,
    /// Skip scoring; results come in the engine's natural emission order
    /// (for semantics comparisons and benchmarks).
    Unranked,
}

/// A query execution request: what to compute and how much to observe.
///
/// Build one with [`QueryRequest::complete`] or [`QueryRequest::top_k`]
/// and refine it builder-style:
///
/// ```
/// use xtk_core::{QueryRequest, Semantics};
/// use xtk_obs::TraceLevel;
///
/// let req = QueryRequest::top_k(10, Semantics::Elca)
///     .with_trace(TraceLevel::Events);
/// assert_eq!(req.k, Some(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct QueryRequest {
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// `Some(k)` for a top-K request, `None` for the complete set.
    pub k: Option<usize>,
    /// Which engine runs it.
    pub algorithm: QueryAlgorithm,
    /// ELCA exclusion variant (ignored for SLCA).
    pub variant: ElcaVariant,
    /// Unseen-result bound for the top-K star join.
    pub threshold: ThresholdKind,
    /// Ranked (scored) or unranked results.
    pub scores: ScoreMode,
    /// How much to record: `Off` (metrics only — they are always
    /// collected), or `Events` for the full deterministic trace.
    pub trace: TraceLevel,
}

impl Default for QueryRequest {
    fn default() -> Self {
        Self {
            semantics: Semantics::Elca,
            k: None,
            algorithm: QueryAlgorithm::Auto,
            variant: ElcaVariant::Operational,
            threshold: ThresholdKind::Tight,
            scores: ScoreMode::Ranked,
            trace: TraceLevel::Off,
        }
    }
}

impl QueryRequest {
    /// A ranked complete-set request.
    pub fn complete(semantics: Semantics) -> Self {
        Self { semantics, ..Default::default() }
    }

    /// A top-K request.
    pub fn top_k(k: usize, semantics: Semantics) -> Self {
        Self { semantics, k: Some(k), ..Default::default() }
    }

    /// Selects the engine.
    pub fn with_algorithm(mut self, algorithm: QueryAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the ELCA exclusion variant.
    pub fn with_variant(mut self, variant: ElcaVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the top-K unseen-result bound.
    pub fn with_threshold(mut self, threshold: ThresholdKind) -> Self {
        self.threshold = threshold;
        self
    }

    /// Skip scoring; results in natural emission order.
    pub fn unranked(mut self) -> Self {
        self.scores = ScoreMode::Unranked;
        self
    }

    /// Sets the observability level.
    pub fn with_trace(mut self, trace: TraceLevel) -> Self {
        self.trace = trace;
        self
    }
}

/// The engine that actually ran (Auto resolves to one of the others).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutedEngine {
    /// Join-based Algorithm 1.
    JoinBased,
    /// Stack-based DIL baseline.
    StackBased,
    /// Join-based top-K star join.
    TopKJoin,
}

/// Results plus the unified observability payload of one execution.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryResponse {
    /// The results (rank order when [`ScoreMode::Ranked`], the engine's
    /// emission order otherwise).
    pub results: Vec<ScoredResult>,
    /// Which engine answered (Auto shows the planner's pick).
    pub engine: ExecutedEngine,
    /// Every counter and histogram the execution recorded — join, top-K,
    /// star join, cache, store I/O — in one flat snapshot.
    pub metrics: MetricsSnapshot,
    /// The recorded event trace when the request asked for
    /// [`TraceLevel::Events`].
    pub trace: Option<Trace>,
}

pub(crate) fn obs_for(req: &QueryRequest) -> Obs {
    Obs { metrics: MetricsRegistry::new(), tracer: Tracer::for_level(req.trace) }
}

pub(crate) fn respond(
    obs: Obs,
    results: Vec<ScoredResult>,
    engine: ExecutedEngine,
) -> QueryResponse {
    obs.metrics.add("query.results", results.len() as u64);
    QueryResponse {
        results,
        engine,
        metrics: obs.metrics.snapshot(),
        trace: obs.tracer.finish(),
    }
}

/// Executes a request against the in-memory index.  The planner serves
/// the execution spec from its cross-query plan cache (or plans cold
/// and caches).
fn run_in_memory(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    planner: &crate::plan::cache::Planner,
) -> QueryResponse {
    match req.algorithm {
        // The join family executes through the logical plan: bind →
        // rewrite → lower → run.
        QueryAlgorithm::Auto | QueryAlgorithm::JoinBased | QueryAlgorithm::TopKJoin => {
            let (spec, _) = planner.spec_for(ix, query, req, ix.generation(), 0);
            crate::plan::lower::execute_memory_spec(ix, query, req, spec)
        }
        // The stack-based system sits outside the plan IR.  It is an
        // unranked complete-set baseline: scores are not computed
        // regardless of `ScoreMode`.
        QueryAlgorithm::StackBased => {
            let obs = obs_for(req);
            let mut rs = stack_search(
                ix,
                query,
                &StackOptions { semantics: req.semantics, variant: req.variant },
            );
            if let Some(k) = req.k {
                rs.truncate(k);
            }
            respond(obs, rs, ExecutedEngine::StackBased)
        }
    }
}

impl Engine {
    /// Executes a [`QueryRequest`] and returns the unified
    /// [`QueryResponse`] — the single entry point replacing the seven
    /// deprecated per-shape methods.
    ///
    /// ```
    /// use xtk_core::{Engine, QueryRequest, Semantics};
    ///
    /// let engine = Engine::from_xml(
    ///     "<bib><paper><title>xml keyword search</title></paper></bib>",
    /// ).unwrap();
    /// let q = engine.query("xml search").unwrap();
    /// let resp = engine.run(&q, &QueryRequest::top_k(3, Semantics::Elca));
    /// assert_eq!(resp.results.len(), 1);
    /// assert!(resp.metrics.get("query.results") == 1);
    /// ```
    pub fn run(&self, query: &Query, req: &QueryRequest) -> QueryResponse {
        run_in_memory(self.index(), query, req, self.planner())
    }
}

/// A query backend: anything that can execute a [`QueryRequest`].
///
/// The in-memory [`Engine`] is infallible and always succeeds; the
/// on-disk [`DiskEngine`] surfaces I/O errors and rejects engines the
/// disk executor does not implement.
pub trait Executor {
    /// Executes the request for the (pre-resolved) query.
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse>;

    /// Generation of the index this backend answers from (see
    /// `XmlIndex::generation`).  The batch result cache stamps entries
    /// with this value and re-executes when it moves.
    fn generation(&self) -> u64 {
        0
    }

    /// A salt the batch result cache folds into request fingerprints and
    /// stamps entries with, for a backend whose answers depend on more
    /// than the index generation.  Every backend in the workspace answers
    /// from one index or one store and returns 0; the hook stays while
    /// perfbench's planning probes pass it to [`Planner::spec_for`].
    ///
    /// [`Planner::spec_for`]: crate::plan::Planner::spec_for
    fn topology_salt(&self) -> u64 {
        0
    }
}

/// Executors pass through shared references, so batch drivers can borrow.
impl<E: Executor + ?Sized> Executor for &E {
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse> {
        (**self).execute(query, req)
    }

    fn generation(&self) -> u64 {
        (**self).generation()
    }

    fn topology_salt(&self) -> u64 {
        (**self).topology_salt()
    }
}

impl Executor for Engine {
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse> {
        Ok(self.run(query, req))
    }

    fn generation(&self) -> u64 {
        self.index().generation()
    }
}

/// The on-disk backend: the same request/response surface, executed by
/// [`join_search_disk`](crate::diskexec::join_search_disk) against a
/// [`DiskColumnStore`].
///
/// Supports [`QueryAlgorithm::Auto`] and [`QueryAlgorithm::JoinBased`]
/// (top-K requests run the complete join, then sort and truncate — the
/// results equal the in-memory engine's bit for bit); the stack baseline
/// and the star join return [`io::ErrorKind::Unsupported`].
pub struct DiskEngine<'a> {
    ix: &'a XmlIndex,
    store: &'a DiskColumnStore,
    planner: crate::plan::cache::Planner,
}

impl<'a> DiskEngine<'a> {
    /// Wraps an index (tree + directory + scores) and its on-disk lists.
    /// Harvests the exact directory statistics snapshot here, once —
    /// per-term block counts and footer value spans, no block decodes.
    pub fn new(ix: &'a XmlIndex, store: &'a DiskColumnStore) -> Self {
        let planner = crate::plan::cache::Planner::from_store(ix, store);
        Self { ix, store, planner }
    }

    /// The planner this engine serves specs from.
    pub fn planner(&self) -> &crate::plan::cache::Planner {
        &self.planner
    }
}

impl Executor for DiskEngine<'_> {
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse> {
        let target = crate::plan::ExplainTarget::Disk;
        crate::plan::lower::refuse(req, target)?;
        let (spec, _) = self.planner.spec_for(self.ix, query, req, self.ix.generation(), 0);
        crate::plan::lower::execute_disk_spec(self.ix, self.store, query, req, spec, target.floor())
    }

    fn generation(&self) -> u64 {
        self.ix.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title>\
                       <author>ann</author></paper><paper><title>relational top k join</title>\
                       <author>bob</author></paper></conf>\
                       <conf><paper><title>xml top k</title></paper></conf></bib>";

    #[test]
    fn run_returns_results_and_metrics() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml keyword").unwrap();
        let resp = e.run(&q, &QueryRequest::complete(Semantics::Elca));
        assert_eq!(resp.results.len(), 1);
        assert_eq!(resp.engine, ExecutedEngine::JoinBased);
        assert_eq!(resp.metrics.get("query.results"), 1);
        assert!(resp.metrics.get("join.levels") >= 1);
        assert!(resp.trace.is_none(), "trace off by default");
    }

    #[test]
    fn trace_events_on_request() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("top k").unwrap();
        let req = QueryRequest::top_k(2, Semantics::Elca)
            .with_algorithm(QueryAlgorithm::TopKJoin)
            .with_trace(TraceLevel::Events);
        let resp = e.run(&q, &req);
        let trace = resp.trace.expect("trace requested");
        assert_eq!(trace.of_kind("query_start").len(), 1);
        assert_eq!(trace.of_kind("query_end").len(), 1);
        assert!(!trace.of_kind("topk_emit").is_empty());
        assert!(resp.metrics.get("topk.rows_retrieved") > 0);
    }

    #[test]
    fn auto_resolves_to_a_concrete_engine() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("top k").unwrap();
        let resp = e.run(&q, &QueryRequest::top_k(2, Semantics::Elca));
        assert!(matches!(
            resp.engine,
            ExecutedEngine::TopKJoin | ExecutedEngine::JoinBased
        ));
        assert_eq!(resp.results.len(), 2);
    }

    #[test]
    fn every_algorithm_runs_through_the_one_entry_point() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml top").unwrap();
        for alg in [
            QueryAlgorithm::Auto,
            QueryAlgorithm::JoinBased,
            QueryAlgorithm::StackBased,
            QueryAlgorithm::TopKJoin,
        ] {
            let req = QueryRequest::complete(Semantics::Slca)
                .with_algorithm(alg)
                .unranked();
            let resp = e.run(&q, &req);
            let mut nodes: Vec<_> = resp.results.iter().map(|r| r.node).collect();
            nodes.sort();
            nodes.dedup();
            assert!(!nodes.is_empty(), "{alg:?}");
            assert_eq!(resp.metrics.get("query.results"), resp.results.len() as u64);
        }
    }

    #[test]
    fn disk_engine_matches_in_memory() {
        use xtk_index::disk::{write_index_to, WriteIndexOptions};
        let e = Engine::from_xml(DOC).unwrap();
        let mut image = Vec::new();
        let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
        write_index_to(e.index(), &mut image, opts).unwrap();
        let cache = std::sync::Arc::new(xtk_index::cache::ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(image.into(), cache).unwrap();
        let disk = DiskEngine::new(e.index(), &store);
        let q = e.query("xml top").unwrap();
        for req in [
            QueryRequest::complete(Semantics::Elca),
            QueryRequest::top_k(2, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased),
        ] {
            let mem = e.run(&q, &req);
            let dsk = disk.execute(&q, &req).unwrap();
            assert_eq!(mem.results.len(), dsk.results.len());
            for (a, b) in mem.results.iter().zip(&dsk.results) {
                assert_eq!(a.node, b.node);
                // Both sides run the complete join and sum in query order.
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
            assert!(dsk.metrics.get("store.decodes") > 0 || dsk.metrics.contains("store.decodes"));
        }
        for alg in [QueryAlgorithm::StackBased, QueryAlgorithm::TopKJoin] {
            let req = QueryRequest::top_k(2, Semantics::Elca).with_algorithm(alg);
            assert_eq!(disk.execute(&q, &req).unwrap_err().kind(), io::ErrorKind::Unsupported);
        }
    }
}
