//! Batched query serving: the cross-query execution layer.
//!
//! One [`Engine::run`] call amortizes nothing across queries, but real
//! workloads repeat themselves — the same hot requests arrive over and
//! over, and distinct requests still share term columns.  [`run_batch`]
//! ([`Engine::run_batch`]) exploits both:
//!
//! 1. **Canonicalize + fingerprint** — each `(Query, QueryRequest)` pair
//!    is normalized ([`canonicalize`]: knobs the selected engine provably
//!    ignores are folded to their defaults, `Auto`/`TopKJoin` without `k`
//!    collapse onto the complete join) and hashed (FNV-1a over term ids
//!    and field tags).  Fingerprint matches are confirmed by full
//!    equality, so a 64-bit collision can never alias two requests.
//! 2. **Dedup + result cache** — identical requests in one batch execute
//!    once; repeats across batches are served from a bounded LRU
//!    [`ResultCache`] — a [`StampedCache`], the memo the plan cache also
//!    is — whose entries are stamped with the index *generation*
//!    ([`Executor::generation`]).  Incremental maintenance bumps the
//!    generation (`JDeweyMaintainer::generation` threaded through the
//!    `xtk-index` builders), so stale entries re-execute automatically —
//!    no explicit invalidation calls.
//! 3. **Cross-query prefetch** — the union of term columns needed by the
//!    distinct, uncached queries is warmed and *pinned* in the shared
//!    block cache ([`Executor::prefetch`]) before execution, so the batch
//!    cannot evict its own working set mid-flight.
//! 4. **Parallel execution, input-order output** — distinct queries run
//!    on the existing work-stealing pool and results are reassembled in
//!    request order.  All batch-level scheduling decisions are recorded
//!    through `xtk-obs` with logical sequence numbers from the sequential
//!    planning loop, so batch traces are bit-identical across
//!    [`Parallelism`] settings.

use crate::engine::Engine;
use crate::plan::cache::{Lookup, StampedCache};
use crate::plan::rewrite::RuleSet;
use crate::pool::{parallel_map, Parallelism};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::request::{
    ExecutedEngine, Executor, QueryAlgorithm, QueryRequest, QueryResponse, ScoreMode,
};
use crate::topk::ThresholdKind;
use std::collections::{BTreeSet, HashMap};
use std::io;
use xtk_index::TermId;
use xtk_obs::{EventKind, MetricsRegistry, MetricsSnapshot, Obs, Trace, TraceLevel, Tracer};

/// One slot of a batch: a resolved query plus its execution request.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The resolved keyword query.
    pub query: Query,
    /// How to execute it.
    pub request: QueryRequest,
}

impl BatchItem {
    /// Pairs a query with its request.
    pub fn new(query: Query, request: QueryRequest) -> Self {
        Self { query, request }
    }
}

/// Knobs for one batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads across the batch's *distinct* queries; each query
    /// runs on one of them.  Responses are bit-identical for every
    /// setting.
    pub parallelism: Parallelism,
    /// Run the cross-query prefetch/pin pass before execution (a no-op
    /// for backends without a block layer).
    pub prefetch: bool,
    /// Batch-level observability (per-query traces are requested per
    /// [`QueryRequest`]).
    pub trace: TraceLevel,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self { parallelism: Parallelism::Serial, prefetch: true, trace: TraceLevel::Off }
    }
}

/// Responses in input order plus the batch-level observability payload.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One response per input item, in input order — byte-identical to
    /// running each item through the executor individually.
    pub responses: Vec<QueryResponse>,
    /// Batch scheduling counters (`batch.*`: dedup, result-cache
    /// hits/misses/invalidations, prefetch pin counts, generation).
    pub metrics: MetricsSnapshot,
    /// Batch-level event trace when requested; deterministic across
    /// [`Parallelism`] (all events come from the sequential planner).
    pub trace: Option<Trace>,
}

/// Folds request knobs the selected engine provably ignores to their
/// defaults, so near-duplicate requests share one execution and one cache
/// entry.  Canonicalization never changes what [`Engine::run`] returns
/// for the request — the batch differential test asserts byte-identical
/// responses for the raw and canonical forms.
pub fn canonicalize(req: &QueryRequest) -> QueryRequest {
    let mut c = *req;
    // Complete-set requests through Auto or the top-K star join run the
    // plain complete join (see `run_in_memory`): fold onto JoinBased.
    if c.k.is_none()
        && matches!(c.algorithm, QueryAlgorithm::Auto | QueryAlgorithm::TopKJoin)
    {
        c.algorithm = QueryAlgorithm::JoinBased;
    }
    match c.algorithm {
        // The hybrid planner takes (k, semantics) only.
        QueryAlgorithm::Auto => {
            c.variant = ElcaVariant::default();
            c.threshold = ThresholdKind::default();
            c.scores = ScoreMode::default();
        }
        // The complete join never consults the top-K threshold.
        QueryAlgorithm::JoinBased => {
            c.threshold = ThresholdKind::default();
        }
        // The star join has no ELCA variant knob.
        QueryAlgorithm::TopKJoin => {
            c.variant = ElcaVariant::default();
        }
        // The stack baseline never scores, has no join knobs, and
        // bypasses the plan lowering (rewrite rules cannot apply).
        QueryAlgorithm::StackBased => {
            c.scores = ScoreMode::Unranked;
            c.threshold = ThresholdKind::default();
            c.rules = RuleSet::default();
        }
        // The indexed baseline always uses the formal variant and has no
        // join knobs.
        QueryAlgorithm::IndexBased => {
            c.variant = ElcaVariant::default();
            c.threshold = ThresholdKind::default();
            c.rules = RuleSet::default();
        }
        // RDIL treats a complete-set request as k = usize::MAX, always
        // scores, and ignores every join knob.
        QueryAlgorithm::Rdil => {
            c.k = Some(c.k.unwrap_or(usize::MAX));
            c.variant = ElcaVariant::default();
            c.threshold = ThresholdKind::default();
            c.scores = ScoreMode::default();
            c.rules = RuleSet::default();
        }
    }
    // The ELCA exclusion variant is meaningless under SLCA.
    if c.semantics == Semantics::Slca {
        c.variant = ElcaVariant::default();
    }
    c
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian `u64`s.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(FNV_OFFSET)
    }

    pub(crate) fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

fn tag_semantics(s: Semantics) -> u64 {
    match s {
        Semantics::Elca => 0,
        Semantics::Slca => 1,
    }
}

fn tag_algorithm(a: QueryAlgorithm) -> u64 {
    match a {
        QueryAlgorithm::Auto => 0,
        QueryAlgorithm::JoinBased => 1,
        QueryAlgorithm::StackBased => 2,
        QueryAlgorithm::IndexBased => 3,
        QueryAlgorithm::TopKJoin => 4,
        QueryAlgorithm::Rdil => 5,
    }
}

fn tag_variant(v: ElcaVariant) -> u64 {
    match v {
        ElcaVariant::Operational => 0,
        ElcaVariant::Formal => 1,
    }
}

fn tag_threshold(t: ThresholdKind) -> u64 {
    match t {
        ThresholdKind::Tight => 0,
        ThresholdKind::Classic => 1,
    }
}

fn tag_scores(s: ScoreMode) -> u64 {
    match s {
        ScoreMode::Ranked => 0,
        ScoreMode::Unranked => 1,
    }
}

fn tag_rules(r: RuleSet) -> u64 {
    u64::from(r.prune_columns)
        | u64::from(r.push_probes) << 1
        | u64::from(r.eliminate_noops) << 2
}

fn tag_trace(t: TraceLevel) -> u64 {
    match t {
        TraceLevel::Off => 0,
        TraceLevel::Counters => 1,
        TraceLevel::Events => 2,
    }
}

/// 64-bit FNV-1a fingerprint of a **canonicalized** request.  Used as the
/// dedup/result-cache key; every fingerprint match is confirmed by full
/// `(Query, QueryRequest)` equality before it is trusted.
pub fn fingerprint(query: &Query, req: &QueryRequest) -> u64 {
    let mut f = Fnv::new();
    f.push(query.terms.len() as u64);
    for t in &query.terms {
        f.push(u64::from(t.0));
    }
    f.push(tag_semantics(req.semantics));
    f.push(req.k.map_or(u64::MAX, |k| k as u64));
    f.push(tag_algorithm(req.algorithm));
    f.push(tag_variant(req.variant));
    f.push(tag_threshold(req.threshold));
    f.push(tag_scores(req.scores));
    f.push(tag_rules(req.rules));
    f.push(tag_trace(req.trace));
    f.0
}

/// [`fingerprint`] salted with the executor's physical topology
/// ([`Executor::topology_salt`]).  The batch pipeline keys its dedup map
/// and result cache on this, so answers computed against one shard layout
/// can never be served for another — re-sharding a corpus changes the
/// salt even when the logical index generation does not move.
pub fn fingerprint_salted(query: &Query, req: &QueryRequest, salt: u64) -> u64 {
    let mut f = Fnv(fingerprint(query, req));
    f.push(salt);
    f.0
}

/// The bounded, index-generation-stamped result cache behind
/// [`Engine::run_batch`] and [`BatchExecutor`]: one shard, because its
/// lookups and stores run in [`run_batch`]'s sequential loops.
pub type ResultCache = StampedCache<QueryResponse>;

impl StampedCache<QueryResponse> {
    /// A cache holding at most `capacity` responses (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }
}

impl Default for StampedCache<QueryResponse> {
    /// 1 024 responses: plenty for a serving mix's hot set while keeping
    /// a long-lived engine's memory proportional to the working set.
    fn default() -> Self {
        Self::new(1024)
    }
}

/// One distinct execution class of a batch (identical items collapse).
struct Class {
    query: Query,
    request: QueryRequest,
    fp: u64,
    /// Input index of the first item mapping here (its serve event reads
    /// `"exec"`; later duplicates read `"dedup"`).
    first_item: usize,
    from_cache: bool,
    response: Option<QueryResponse>,
}

/// A response for the impossible unresolved-slot case: keeps the output
/// aligned with the input without panicking.
fn empty_response() -> QueryResponse {
    QueryResponse {
        results: Vec::new(),
        engine: ExecutedEngine::JoinBased,
        metrics: MetricsRegistry::new().snapshot(),
        trace: None,
    }
}

/// The batch pipeline over any [`Executor`]; see the module docs for the
/// four phases.  Shared by [`Engine::run_batch`] and [`BatchExecutor`].
pub fn run_batch<E: Executor + Sync>(
    exec: &E,
    cache: &ResultCache,
    opts: &BatchOptions,
    items: &[BatchItem],
) -> io::Result<BatchReport> {
    let obs = Obs { metrics: MetricsRegistry::new(), tracer: Tracer::for_level(opts.trace) };
    let generation = exec.generation();
    let salt = exec.topology_salt();

    // Phase 1: canonicalize, fingerprint, dedup into classes.  Classes
    // are created in input order, so everything downstream is
    // deterministic regardless of the execution parallelism.
    let mut classes: Vec<Class> = Vec::new();
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut slot_class: Vec<usize> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let request = canonicalize(&item.request);
        let fp = fingerprint_salted(&item.query, &request, salt);
        let found = by_fp.get(&fp).and_then(|cands| {
            cands.iter().copied().find(|&ci| {
                classes
                    .get(ci)
                    .is_some_and(|c| c.query == item.query && c.request == request)
            })
        });
        match found {
            Some(ci) => slot_class.push(ci),
            None => {
                let ci = classes.len();
                classes.push(Class {
                    query: item.query.clone(),
                    request,
                    fp,
                    first_item: i,
                    from_cache: false,
                    response: None,
                });
                by_fp.entry(fp).or_default().push(ci);
                slot_class.push(ci);
            }
        }
    }
    obs.event(EventKind::BatchStart {
        queries: items.len() as u64,
        distinct: classes.len() as u64,
    });

    // Phase 2: resolve classes against the generation-stamped result
    // cache; what remains must execute.
    let mut invalidations = 0u64;
    let mut todo: Vec<usize> = Vec::new();
    for (ci, class) in classes.iter_mut().enumerate() {
        match cache.lookup(class.fp, generation, salt, &class.query, &class.request) {
            Lookup::Hit(resp) => {
                class.from_cache = true;
                class.response = Some(resp);
            }
            Lookup::Stale => {
                invalidations += 1;
                todo.push(ci);
            }
            Lookup::Miss => todo.push(ci),
        }
    }

    // Phase 3: cross-query prefetch over the union of the terms the
    // uncached classes will touch (sorted: BTreeSet), pinning their
    // blocks for the duration of the execution phase.
    let mut term_union: BTreeSet<TermId> = BTreeSet::new();
    for &ci in &todo {
        if let Some(class) = classes.get(ci) {
            term_union.extend(class.query.terms.iter().copied());
        }
    }
    let terms: Vec<TermId> = term_union.into_iter().collect();
    let mut pinned = 0u64;
    if opts.prefetch && !terms.is_empty() {
        pinned = exec.prefetch(&terms)?;
        obs.event(EventKind::BatchPrefetch {
            terms: terms.len() as u64,
            blocks_pinned: pinned,
        });
    }

    // Phase 4: execute the distinct remainder on the pool.  The merge is
    // by index (input order); a worker panic propagates; I/O errors are
    // surfaced after the pins are released.
    let outcomes = parallel_map(opts.parallelism, &todo, |_, &ci| match classes.get(ci) {
        Some(class) => exec.execute(&class.query, &class.request),
        None => Err(io::Error::new(io::ErrorKind::InvalidInput, "batch class out of range")),
    });
    if opts.prefetch && !terms.is_empty() {
        exec.release(&terms);
    }
    let mut executed: Vec<QueryResponse> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        executed.push(outcome?);
    }
    for (&ci, response) in todo.iter().zip(executed) {
        if let Some(class) = classes.get_mut(ci) {
            cache.store(
                class.fp,
                generation,
                salt,
                class.query.clone(),
                class.request,
                response.clone(),
            );
            class.response = Some(response);
        }
    }

    // Reassemble in input order and account per-slot provenance.
    let (mut hits, mut dedups, mut execs) = (0u64, 0u64, 0u64);
    let mut total_results = 0u64;
    let mut responses: Vec<QueryResponse> = Vec::with_capacity(items.len());
    for (i, &ci) in slot_class.iter().enumerate() {
        let class = classes.get(ci);
        let source = match class {
            Some(c) if c.from_cache => "cache",
            Some(c) if c.first_item == i => "exec",
            _ => "dedup",
        };
        match source {
            "cache" => hits += 1,
            "exec" => execs += 1,
            _ => dedups += 1,
        }
        let response = class
            .and_then(|c| c.response.clone())
            .unwrap_or_else(empty_response);
        obs.event(EventKind::BatchServe { index: i as u64, source });
        total_results += response.results.len() as u64;
        responses.push(response);
    }
    obs.event(EventKind::BatchEnd { queries: items.len() as u64, results: total_results });

    obs.metrics.add("batch.queries", items.len() as u64);
    obs.metrics.add("batch.distinct", classes.len() as u64);
    obs.metrics.add("batch.result_hits", hits);
    obs.metrics.add("batch.result_misses", todo.len() as u64);
    obs.metrics.add("batch.dedup_hits", dedups);
    obs.metrics.add("batch.executed", execs);
    obs.metrics.add("batch.invalidations", invalidations);
    obs.metrics.add("batch.generation", generation);
    obs.metrics.add("batch.prefetch_terms", terms.len() as u64);
    obs.metrics.add("batch.prefetch_pinned", pinned);
    obs.metrics.add("batch.results", total_results);
    Ok(BatchReport { responses, metrics: obs.metrics.snapshot(), trace: obs.tracer.finish() })
}

/// A reusable batch driver owning its result cache: wrap any
/// [`Executor`] (the on-disk [`DiskEngine`](crate::request::DiskEngine),
/// a borrowed [`Engine`], …) and feed it batches.
#[derive(Debug)]
pub struct BatchExecutor<E> {
    exec: E,
    cache: ResultCache,
    opts: BatchOptions,
}

impl<E: Executor + Sync> BatchExecutor<E> {
    /// Wraps `exec` with default options and cache capacity.
    pub fn new(exec: E) -> Self {
        Self::with_options(exec, BatchOptions::default())
    }

    /// Wraps `exec` with explicit batch options.
    pub fn with_options(exec: E, opts: BatchOptions) -> Self {
        Self { exec, cache: ResultCache::default(), opts }
    }

    /// Replaces the result cache with one bounded at `capacity` entries.
    pub fn with_result_capacity(mut self, capacity: usize) -> Self {
        self.cache = ResultCache::new(capacity);
        self
    }

    /// The result cache (persistent across [`BatchExecutor::run`] calls).
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// Runs one batch; responses come back in input order.
    pub fn run(&self, items: &[BatchItem]) -> io::Result<BatchReport> {
        run_batch(&self.exec, &self.cache, &self.opts, items)
    }
}

impl Engine {
    /// Executes a batch of requests with dedup, result caching and
    /// cross-query planning; returns one response per item, in input
    /// order, byte-identical to running each item through
    /// [`Engine::run`].  The result cache persists across calls and is
    /// invalidated by index-generation bumps
    /// (see [`Engine::replace_index`]).
    pub fn run_batch(&self, items: &[BatchItem]) -> Vec<QueryResponse> {
        self.run_batch_report(items, &BatchOptions::default()).responses
    }

    /// [`Engine::run_batch`] with explicit options, returning the full
    /// [`BatchReport`] (batch metrics + optional batch trace).
    pub fn run_batch_report(&self, items: &[BatchItem], opts: &BatchOptions) -> BatchReport {
        match run_batch(self, self.result_cache(), opts, items) {
            Ok(report) => report,
            // Unreachable: the in-memory executor is infallible (its
            // `execute` always returns `Ok`) and prefetch is a no-op.
            Err(_) => BatchReport {
                responses: Vec::new(),
                metrics: MetricsRegistry::new().snapshot(),
                trace: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title>\
                       <author>ann</author></paper><paper><title>relational top k join</title>\
                       <author>bob</author></paper></conf>\
                       <conf><paper><title>xml top k</title></paper></conf></bib>";

    fn respond_stub(tagged: u64) -> QueryResponse {
        let reg = MetricsRegistry::new();
        reg.add("stub.tag", tagged);
        QueryResponse {
            results: Vec::new(),
            engine: ExecutedEngine::JoinBased,
            metrics: reg.snapshot(),
            trace: None,
        }
    }

    fn query(terms: &[u32]) -> Query {
        Query { terms: terms.iter().map(|&t| TermId(t)).collect() }
    }

    #[test]
    fn canonical_forms_collapse_near_duplicates() {
        let a = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::Auto);
        let b = QueryRequest::complete(Semantics::Elca)
            .with_algorithm(QueryAlgorithm::TopKJoin)
            .with_threshold(ThresholdKind::Classic);
        let c = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased);
        assert_eq!(canonicalize(&a), canonicalize(&c));
        assert_eq!(canonicalize(&b), canonicalize(&c));
        // SLCA drops the ELCA variant.
        let d = QueryRequest::complete(Semantics::Slca).with_variant(ElcaVariant::Formal);
        let e = QueryRequest::complete(Semantics::Slca);
        assert_eq!(canonicalize(&d), canonicalize(&e));
        // Distinct things stay distinct.
        let f = QueryRequest::top_k(3, Semantics::Elca);
        let g = QueryRequest::top_k(4, Semantics::Elca);
        assert_ne!(canonicalize(&f), canonicalize(&g));
    }

    #[test]
    fn fingerprint_separates_queries_and_requests() {
        let r = canonicalize(&QueryRequest::complete(Semantics::Elca));
        let fp1 = fingerprint(&query(&[1, 2]), &r);
        let fp2 = fingerprint(&query(&[2, 1]), &r);
        let fp3 = fingerprint(&query(&[1, 2]), &canonicalize(&QueryRequest::complete(Semantics::Slca)));
        assert_ne!(fp1, fp2, "term order is significant (scoring order)");
        assert_ne!(fp1, fp3);
        assert_eq!(fp1, fingerprint(&query(&[1, 2]), &r), "stable");
        // Topology salts separate otherwise identical requests.
        let s0 = fingerprint_salted(&query(&[1, 2]), &r, 0);
        let s1 = fingerprint_salted(&query(&[1, 2]), &r, 1);
        assert_ne!(s0, s1);
        assert_eq!(s1, fingerprint_salted(&query(&[1, 2]), &r, 1), "stable");
    }

    #[test]
    fn result_cache_hits_evicts_lru_and_invalidates_on_generation() {
        let cache = ResultCache::new(2);
        let req = canonicalize(&QueryRequest::complete(Semantics::Elca));
        let (q1, q2, q3) = (query(&[1]), query(&[2]), query(&[3]));
        let (f1, f2, f3) =
            (fingerprint(&q1, &req), fingerprint(&q2, &req), fingerprint(&q3, &req));
        cache.store(f1, 0, 0, q1.clone(), req, respond_stub(1));
        cache.store(f2, 0, 0, q2.clone(), req, respond_stub(2));
        match cache.lookup(f1, 0, 0, &q1, &req) {
            Lookup::Hit(r) => assert_eq!(r.metrics.get("stub.tag"), 1),
            _ => unreachable!("expected hit"), // lint-exempt: test code
        }
        // f2 is now LRU; storing f3 evicts it.
        cache.store(f3, 0, 0, q3.clone(), req, respond_stub(3));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(f2, 0, 0, &q2, &req), Lookup::Miss));
        assert!(matches!(cache.lookup(f1, 0, 0, &q1, &req), Lookup::Hit(_)));
        // A lookup under a different topology salt must not alias.
        assert!(matches!(cache.lookup(f1, 0, 7, &q1, &req), Lookup::Miss));
        // Generation bump: entry dropped, reported stale.
        assert!(matches!(cache.lookup(f1, 1, 0, &q1, &req), Lookup::Stale));
        assert!(matches!(cache.lookup(f1, 1, 0, &q1, &req), Lookup::Miss));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn run_batch_dedups_and_reuses_across_calls() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml keyword").unwrap();
        let req = QueryRequest::complete(Semantics::Elca);
        let near = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin);
        let items = vec![
            BatchItem::new(q.clone(), req),
            BatchItem::new(q.clone(), near), // near-duplicate: same class
            BatchItem::new(q.clone(), req),  // exact duplicate
        ];
        let r1 = e.run_batch_report(&items, &BatchOptions::default());
        assert_eq!(r1.responses.len(), 3);
        assert_eq!(r1.metrics.get("batch.queries"), 3);
        assert_eq!(r1.metrics.get("batch.distinct"), 1);
        assert_eq!(r1.metrics.get("batch.executed"), 1);
        assert_eq!(r1.metrics.get("batch.dedup_hits"), 2);
        assert_eq!(r1.metrics.get("batch.result_hits"), 0);
        // Second batch: served entirely from the result cache.
        let r2 = e.run_batch_report(&items, &BatchOptions::default());
        assert_eq!(r2.metrics.get("batch.result_hits"), 3);
        assert_eq!(r2.metrics.get("batch.result_misses"), 0);
        for (a, b) in r1.responses.iter().zip(&r2.responses) {
            assert_eq!(a.results, b.results);
            assert_eq!(a.metrics, b.metrics);
        }
        assert_eq!(e.result_cache().len(), 1);
    }

    #[test]
    fn batch_trace_is_deterministic_and_ordered() {
        let e = Engine::from_xml(DOC).unwrap();
        let q1 = e.query("xml keyword").unwrap();
        let q2 = e.query("top k").unwrap();
        let items = vec![
            BatchItem::new(q1.clone(), QueryRequest::complete(Semantics::Elca)),
            BatchItem::new(q2, QueryRequest::top_k(2, Semantics::Elca)),
            BatchItem::new(q1, QueryRequest::complete(Semantics::Elca)),
        ];
        let opts = |p| BatchOptions { parallelism: p, trace: TraceLevel::Events, ..Default::default() };
        let serial = e.run_batch_report(&items, &opts(Parallelism::Serial));
        let parallel = e.run_batch_report(&items, &opts(Parallelism::Fixed(3)));
        let ts = serial.trace.clone().map(|t| t.to_json_lines()).unwrap_or_default();
        let tp = parallel.trace.clone().map(|t| t.to_json_lines()).unwrap_or_default();
        assert!(!ts.is_empty());
        // The second report ran against a warm result cache, so compare
        // its event *kinds* structure instead of requiring equality with
        // the cold run: batch_start, then serves in input order, then end.
        for report in [&serial, &parallel] {
            let trace = report.trace.clone().unwrap();
            assert_eq!(trace.of_kind("batch_start").len(), 1);
            assert_eq!(trace.of_kind("batch_serve").len(), 3);
            assert_eq!(trace.of_kind("batch_end").len(), 1);
        }
        let _ = (ts, tp);
    }

    #[test]
    fn empty_batch_is_fine() {
        let e = Engine::from_xml(DOC).unwrap();
        let report = e.run_batch_report(&[], &BatchOptions::default());
        assert!(report.responses.is_empty());
        assert_eq!(report.metrics.get("batch.queries"), 0);
        assert_eq!(report.metrics.get("batch.distinct"), 0);
    }
}
