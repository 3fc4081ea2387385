//! Cross-query plan caching: skip parse/bind/rewrite/lower for repeated
//! requests.
//!
//! Planning is pure — the same `(Query, QueryRequest)` against the same
//! index always lowers to the same [`ExecSpec`] — so the finished spec
//! can be memoized across queries exactly like the result cache memoizes
//! answers.  [`PlanCache`] is the bounded, sharded memo; [`Planner`]
//! wraps it together with a statistics snapshot and is what the engines
//! actually call:
//!
//! * keys are the **canonicalized** request fingerprint
//!   ([`canonicalize`] + [`fingerprint_salted`], the batch layer's own
//!   functions), so near-duplicate requests that provably execute the
//!   same way share one plan;
//! * every entry is stamped with the maintainer **generation** and the
//!   executor's **topology salt** — incremental maintenance and
//!   re-sharding invalidate cached plans the same way they invalidate
//!   cached results;
//! * fingerprint matches are confirmed by full equality before being
//!   trusted, so a 64-bit collision can never alias two requests;
//! * the cache is sharded by fingerprint across [`PLAN_CACHE_SHARDS`]
//!   mutexes so concurrent serving threads rarely contend, and each
//!   shard evicts LRU on a deterministic logical clock (never wall
//!   time).
//!
//! Canonical-form lowering is execution-equivalent: the knobs
//! [`canonicalize`] folds are exactly the ones the selected algorithm's
//! execution path never reads, and the batch differential suite asserts
//! byte-identical responses for raw and canonical forms.

use crate::batch::{canonicalize, fingerprint_salted};
use crate::plan::cost::PlanStats;
use crate::plan::lower::{lower_query, ExecSpec};
use crate::query::Query;
use crate::request::QueryRequest;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use xtk_index::XmlIndex;

/// Mutex shards the cache spreads fingerprints over.
pub const PLAN_CACHE_SHARDS: usize = 8;

/// Recovers a poisoned guard: shard state is a plain map whose
/// invariants hold between statements (same argument as the result
/// cache's lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Debug)]
struct Slot {
    generation: u64,
    /// Topology salt the plan was lowered under.
    salt: u64,
    query: Query,
    request: QueryRequest,
    spec: ExecSpec,
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheShard {
    /// `fingerprint -> slot`.
    map: HashMap<u64, Slot>,
    /// `recency stamp -> fingerprint`; first entry is the LRU victim.
    lru: BTreeMap<u64, u64>,
    /// Monotone logical clock.
    clock: u64,
}

/// Counter snapshot of a [`PlanCache`] (all monotone, all exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to plan cold.
    pub misses: u64,
    /// Entries dropped because their generation or salt went stale.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: u64,
}

/// The bounded, sharded, generation-stamped cross-query plan memo.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard entry bound.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default bound: a plan is a few hundred bytes, so this covers any
    /// realistic hot request mix for well under a megabyte.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// A cache holding at most `capacity` plans in total (minimum one
    /// per shard).
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(PLAN_CACHE_SHARDS).max(1);
        let mut shards = Vec::with_capacity(PLAN_CACHE_SHARDS);
        for _ in 0..PLAN_CACHE_SHARDS {
            shards.push(Mutex::new(CacheShard::default()));
        }
        Self {
            shards,
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u64) -> Option<&Mutex<CacheShard>> {
        self.shards.get((fp % PLAN_CACHE_SHARDS as u64) as usize)
    }

    /// Number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (stamping makes this unnecessary for
    /// correctness; exposed for memory pressure, benches and tests).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = lock(s);
            shard.map.clear();
            shard.lru.clear();
        }
    }

    /// The hit/miss/invalidation counters plus the live entry count.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Looks up the cached spec for a canonicalized request.  A stale
    /// entry (generation moved) is dropped and counted; a salt mismatch
    /// or fingerprint collision is a plain miss.
    fn get(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: &Query,
        request: &QueryRequest,
    ) -> Option<ExecSpec> {
        let shard = self.shard(fp)?;
        let mut inner = lock(shard);
        let (matches, stale, stamp) = match inner.map.get(&fp) {
            Some(s) => (
                s.salt == salt && s.query == *query && s.request == *request,
                s.generation != generation,
                s.stamp,
            ),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if !matches {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if stale {
            inner.map.remove(&fp);
            inner.lru.remove(&stamp);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        inner.clock += 1;
        let now = inner.clock;
        inner.lru.remove(&stamp);
        inner.lru.insert(now, fp);
        let spec = match inner.map.get_mut(&fp) {
            Some(s) => {
                s.stamp = now;
                s.spec
            }
            // Unreachable: the slot was present above and the lock is
            // held throughout.
            None => return None,
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(spec)
    }

    /// Read-only membership probe: no counters, no LRU touch, no stale
    /// eviction.  EXPLAIN uses it to report provenance without
    /// perturbing the cache it is describing.
    fn contains(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: &Query,
        request: &QueryRequest,
    ) -> bool {
        let Some(shard) = self.shard(fp) else {
            return false;
        };
        let inner = lock(shard);
        inner.map.get(&fp).is_some_and(|s| {
            s.generation == generation
                && s.salt == salt
                && s.query == *query
                && s.request == *request
        })
    }

    fn put(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: Query,
        request: QueryRequest,
        spec: ExecSpec,
    ) {
        let Some(shard) = self.shard(fp) else {
            return;
        };
        let mut inner = lock(shard);
        inner.clock += 1;
        let now = inner.clock;
        let slot = Slot { generation, salt, query, request, spec, stamp: now };
        if let Some(old) = inner.map.insert(fp, slot) {
            inner.lru.remove(&old.stamp);
        }
        inner.lru.insert(now, fp);
        while inner.map.len() > self.shard_capacity {
            let Some((&stamp, &victim)) = inner.lru.iter().next() else {
                break;
            };
            inner.lru.remove(&stamp);
            inner.map.remove(&victim);
        }
    }
}

/// Where a served plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Planned from scratch (and now cached).
    Cold,
    /// Served from the plan cache.
    Cached,
}

impl PlanSource {
    /// `"cold"` / `"cached"`, for EXPLAIN and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanSource::Cold => "cold",
            PlanSource::Cached => "cached",
        }
    }
}

/// The plan cache an engine plans through, beside a statistics snapshot.
///
/// Built once at index/store open ([`Planner::from_index`] /
/// [`Planner::from_store`]) and consulted per query via
/// [`Planner::spec_for`].  No planning decision reads the snapshot since
/// the cost gate went (every enabled rewrite fires); it is what
/// [`Planner::stats`] hands a caller that wants the directory's numbers.
#[derive(Debug)]
pub struct Planner {
    stats: PlanStats,
    cache: PlanCache,
}

impl Planner {
    /// A planner over the in-memory statistics snapshot (estimated
    /// block counts, exact rows/runs/spans).
    pub fn from_index(ix: &XmlIndex) -> Self {
        Self { stats: PlanStats::from_index(ix), cache: PlanCache::default() }
    }

    /// A planner over the exact on-disk directory snapshot.
    pub fn from_store(ix: &XmlIndex, store: &xtk_index::diskcol::DiskColumnStore) -> Self {
        Self { stats: PlanStats::from_store(ix, store), cache: PlanCache::default() }
    }

    /// Replaces the plan cache with one bounded at `capacity` plans.
    pub fn with_plan_capacity(mut self, capacity: usize) -> Self {
        self.cache = PlanCache::new(capacity);
        self
    }

    /// Recomputes the statistics snapshot from a (new) index and drops
    /// every cached plan; [`Engine::replace_index`] calls this so neither
    /// outlives its index, even though the generation stamp would catch
    /// the plans anyway.
    ///
    /// [`Engine::replace_index`]: crate::Engine::replace_index
    pub fn refresh_from_index(&mut self, ix: &XmlIndex) {
        self.stats = PlanStats::from_index(ix);
        self.cache.clear();
    }

    /// The statistics snapshot.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The plan cache (for counters and capacity introspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Where [`Planner::spec_for`] *would* serve this request from,
    /// without planning or perturbing the cache (EXPLAIN provenance).
    pub fn peek(
        &self,
        query: &Query,
        req: &QueryRequest,
        generation: u64,
        salt: u64,
    ) -> PlanSource {
        let canonical = canonicalize(req);
        let fp = fingerprint_salted(query, &canonical, salt);
        if self.cache.contains(fp, generation, salt, query, &canonical) {
            PlanSource::Cached
        } else {
            PlanSource::Cold
        }
    }

    /// The execution spec for `(query, req)`: served from the plan
    /// cache when a fresh entry exists for this `(generation, salt)`,
    /// otherwise planned cold — canonicalize, fingerprint, bind, rewrite,
    /// lower — and cached.
    pub fn spec_for(
        &self,
        ix: &XmlIndex,
        query: &Query,
        req: &QueryRequest,
        generation: u64,
        salt: u64,
    ) -> (ExecSpec, PlanSource) {
        let canonical = canonicalize(req);
        let fp = fingerprint_salted(query, &canonical, salt);
        if let Some(spec) = self.cache.get(fp, generation, salt, query, &canonical) {
            return (spec, PlanSource::Cached);
        }
        let spec = lower_query(ix, query, &canonical);
        self.cache.put(fp, generation, salt, query.clone(), canonical, spec);
        (spec, PlanSource::Cold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Semantics;
    use crate::request::QueryAlgorithm;
    use crate::Engine;

    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title></paper>\
                       <paper><title>top k search</title></paper></conf></bib>";

    fn setup() -> (Engine, Query, QueryRequest) {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml search").unwrap();
        (e, q, QueryRequest::top_k(2, Semantics::Elca))
    }

    #[test]
    fn cold_then_cached_and_specs_are_identical() {
        let (e, q, req) = setup();
        let planner = Planner::from_index(e.index());
        let (cold, src) = planner.spec_for(e.index(), &q, &req, 0, 0);
        assert_eq!(src, PlanSource::Cold);
        let (warm, src) = planner.spec_for(e.index(), &q, &req, 0, 0);
        assert_eq!(src, PlanSource::Cached);
        assert_eq!(cold, warm, "cached plan must be bit-identical");
        let s = planner.cache().stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn near_duplicate_requests_share_one_plan() {
        let (e, q, _) = setup();
        let planner = Planner::from_index(e.index());
        let a = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::Auto);
        let b = QueryRequest::complete(Semantics::Elca)
            .with_algorithm(QueryAlgorithm::TopKJoin);
        let _ = planner.spec_for(e.index(), &q, &a, 0, 0);
        let (_, src) = planner.spec_for(e.index(), &q, &b, 0, 0);
        assert_eq!(src, PlanSource::Cached, "canonical forms collapse");
        assert_eq!(planner.cache().len(), 1);
    }

    #[test]
    fn generation_and_salt_invalidate() {
        let (e, q, req) = setup();
        let planner = Planner::from_index(e.index());
        let _ = planner.spec_for(e.index(), &q, &req, 0, 0);
        // Generation bump: stale, dropped, replanned.
        let (_, src) = planner.spec_for(e.index(), &q, &req, 1, 0);
        assert_eq!(src, PlanSource::Cold);
        assert_eq!(planner.cache().stats().invalidations, 1);
        // Different topology salt: a different key, never aliased.
        let (_, src) = planner.spec_for(e.index(), &q, &req, 1, 7);
        assert_eq!(src, PlanSource::Cold);
        let (_, src) = planner.spec_for(e.index(), &q, &req, 1, 7);
        assert_eq!(src, PlanSource::Cached);
    }

    #[test]
    fn capacity_bounds_and_eviction() {
        let (e, _, req) = setup();
        let planner = Planner::from_index(e.index()).with_plan_capacity(PLAN_CACHE_SHARDS);
        for text in ["xml", "search", "keyword", "top", "k", "xml search", "top k"] {
            let q = e.query(text).unwrap();
            let _ = planner.spec_for(e.index(), &q, &req, 0, 0);
        }
        assert!(planner.cache().len() <= PLAN_CACHE_SHARDS, "per-shard bound holds");
        planner.cache().clear();
        assert!(planner.cache().is_empty());
    }

    #[test]
    fn ungated_planner_matches_statless_lowering() {
        let (e, q, req) = setup();
        let planner = Planner::from_index(e.index());
        let (spec, _) = planner.spec_for(e.index(), &q, &req, 0, 0);
        assert_eq!(spec, lower_query(e.index(), &q, &canonicalize(&req)));
    }
}
