//! Cross-query plan caching: skip parse/bind/rewrite/lower for repeated
//! requests.
//!
//! Planning is pure — the same `(Query, QueryRequest)` against the same
//! index always lowers to the same [`ExecSpec`] — so the finished spec
//! can be memoized across queries exactly like the result cache memoizes
//! answers.  [`PlanCache`] is that memo — the result cache's own
//! [`StampedCache`] at another value type, over more shards — and
//! [`Planner`] wraps it together with a statistics snapshot and is what
//! the engines actually call:
//!
//! * keys are the **canonicalized** request fingerprint
//!   ([`canonicalize`] + [`fingerprint_salted`], the batch layer's own
//!   functions), so near-duplicate requests that provably execute the
//!   same way share one plan;
//! * every entry is stamped with the maintainer **generation** and the
//!   executor's **topology salt** (0 for every executor in the
//!   workspace) — incremental maintenance invalidates cached plans the
//!   same way it invalidates cached results;
//! * fingerprint matches are confirmed by full equality before being
//!   trusted, so a 64-bit collision can never alias two requests;
//! * the cache is sharded by fingerprint across [`PLAN_CACHE_SHARDS`]
//!   mutexes so concurrent serving threads rarely contend (every
//!   executing worker plans, unlike the result cache's sequential
//!   lookups), and each shard evicts LRU on a deterministic logical
//!   clock (never wall time).
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
use std::sync::atomic::{AtomicU64, Ordering};
use xtk_index::cache::{Lru, Sharded};
use xtk_index::XmlIndex;
use xtk_obs::locks::LockRank;

#[derive(Debug)]
struct Entry<V> {
    generation: u64,
    /// Topology salt the value was computed under; a lookup under
    /// another salt must not alias onto this entry.
    salt: u64,
    query: Query,
    request: QueryRequest,
    value: V,
}

/// What a [`StampedCache::lookup`] found.
#[derive(Debug)]
pub(crate) enum Lookup<V> {
    /// Entry valid for the current generation: a clone of its value.
    Hit(V),
    /// Entry existed but was computed against an older index generation;
    /// it has been dropped and the value must be recomputed.
    Stale,
    /// No entry (or one for another salt, or a fingerprint collision).
    Miss,
}

/// Counter snapshot of a [`StampedCache`] (all monotone, all exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StampedCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Entries dropped because their generation went stale.
    pub invalidations: u64,
    /// Values currently cached.
    pub entries: u64,
}

/// The bounded, generation-stamped memo of a pure function of a
/// canonicalized `(Query, QueryRequest)`: the plan cache ([`PlanCache`])
/// and the result cache ([`ResultCache`](crate::batch::ResultCache)) are
/// this one type at two values.
///
/// Entries are keyed by request [`fingerprint_salted`] (confirmed by full
/// equality, so a 64-bit collision can never alias two requests), stamped
/// with the [`Executor::generation`](crate::Executor::generation) and
/// [`Executor::topology_salt`](crate::Executor::topology_salt) they
/// were computed under, and evicted LRU beyond the per-shard capacity on
/// the workspace's one recency core ([`Lru`]).  A lookup whose generation
/// no longer matches drops the entry and reports it stale — this is how
/// incremental insert/delete through `xtk-xml` maintenance invalidates
/// cached answers and plans.
#[derive(Debug)]
pub struct StampedCache<V> {
    /// Sharded by `fingerprint % shards`.
    shards: Sharded<Lru<u64, Entry<V>>>,
    /// Per-shard entry bound.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl<V: Clone> StampedCache<V> {
    /// A cache of at most `capacity` values in total (minimum one per
    /// shard) over `shards` mutexes.
    pub(crate) fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: Sharded::new(shards, LockRank::StampedCacheShard),
            shard_capacity: capacity.div_ceil(shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of cached values across all shards.
    pub fn len(&self) -> usize {
        self.shards.lock_all().map(|shard| shard.len()).sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (stamping makes this unnecessary for
    /// correctness; exposed for memory pressure, benches and tests).
    pub fn clear(&self) {
        for mut shard in self.shards.lock_all() {
            shard.clear();
        }
    }

    /// The hit/miss/invalidation counters plus the live entry count.
    pub fn stats(&self) -> StampedCacheStats {
        StampedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Looks up the value cached for a canonicalized request.  A hit
    /// refreshes the entry's recency; a stale entry (generation moved) is
    /// dropped and counted; a salt mismatch or fingerprint collision is a
    /// plain miss that leaves the entry for [`StampedCache::store`] to
    /// overwrite.
    pub(crate) fn lookup(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: &Query,
        request: &QueryRequest,
    ) -> Lookup<V> {
        let mut shard = self.shards.lock(fp);
        let fresh = match shard.peek(&fp) {
            Some(e) if e.salt == salt && e.query == *query && e.request == *request => {
                Some(e.generation == generation)
            }
            _ => None,
        };
        let found = match fresh {
            Some(true) => shard.get(&fp).map_or(Lookup::Miss, |e| Lookup::Hit(e.value.clone())),
            Some(false) => {
                shard.remove(&fp);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                Lookup::Stale
            }
            None => Lookup::Miss,
        };
        let counter = if matches!(found, Lookup::Hit(_)) { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Read-only membership probe: no counters, no recency refresh, no
    /// stale eviction.  EXPLAIN uses it to report provenance without
    /// perturbing the cache it is describing.
    pub(crate) fn contains(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: &Query,
        request: &QueryRequest,
    ) -> bool {
        self.shards.lock(fp).peek(&fp).is_some_and(|e| {
            e.generation == generation
                && e.salt == salt
                && e.query == *query
                && e.request == *request
        })
    }

    /// Caches `value` under `fp`, replacing whatever the fingerprint held,
    /// then evicts least-recently-used entries beyond the shard's bound.
    pub(crate) fn store(
        &self,
        fp: u64,
        generation: u64,
        salt: u64,
        query: Query,
        request: QueryRequest,
        value: V,
    ) {
        let mut shard = self.shards.lock(fp);
        shard.insert(fp, Entry { generation, salt, query, request, value });
        while shard.len() > self.shard_capacity && shard.pop_oldest().is_some() {}
    }
}

/// Mutex shards the plan cache spreads fingerprints over.
pub const PLAN_CACHE_SHARDS: usize = 8;

/// The bounded, sharded, generation-stamped cross-query plan memo.
pub type PlanCache = StampedCache<ExecSpec>;

impl Default for StampedCache<ExecSpec> {
    /// 2 048 plans: a plan is a few hundred bytes, so this covers any
    /// realistic hot request mix for well under a megabyte.
    fn default() -> Self {
        Self::with_shards(2048, PLAN_CACHE_SHARDS)
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
        if let Lookup::Hit(spec) = self.cache.lookup(fp, generation, salt, query, &canonical) {
            return (spec, PlanSource::Cached);
        }
        let spec = lower_query(ix, query, &canonical);
        self.cache.store(fp, generation, salt, query.clone(), canonical, spec);
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

    /// The conformance suite of the one stamped memo, run by
    /// `stamped_cache_conformance_at_both_instantiations` over the plan
    /// cache's shape and the result cache's.  `value(n)` builds a value
    /// `tag` reads `n` back from; all keys map to one shard (`fp` a multiple
    /// of `shards`) so the per-shard LRU order is observable.
    fn conformance<V: Clone>(shards: usize, value: fn(u64) -> V, tag: fn(&V) -> u64) {
        let per_shard = |n: usize| StampedCache::<V>::with_shards(n * shards, shards);
        let fp = |i: u64| i * shards as u64;
        let req = canonicalize(&QueryRequest::complete(Semantics::Elca));
        let q = |i: u64| Query { terms: vec![xtk_index::TermId(i as u32)] };
        let hit = |c: &StampedCache<V>, i: u64, generation: u64, salt: u64| {
            match c.lookup(fp(i), generation, salt, &q(i), &req) {
                Lookup::Hit(v) => Some(tag(&v)),
                Lookup::Stale | Lookup::Miss => None,
            }
        };
        let counters = |c: &StampedCache<V>| {
            let s = c.stats();
            (s.hits, s.misses, s.invalidations, s.entries)
        };

        // A hit refreshes recency: with room for two, 1 is touched, so 2
        // is the victim of the third store.
        let c = per_shard(2);
        assert!(c.is_empty());
        c.store(fp(1), 0, 0, q(1), req, value(1));
        c.store(fp(2), 0, 0, q(2), req, value(2));
        assert_eq!(hit(&c, 1, 0, 0), Some(1));
        c.store(fp(3), 0, 0, q(3), req, value(3));
        assert_eq!(c.len(), 2);
        assert_eq!(hit(&c, 2, 0, 0), None, "least recently used entry evicted");
        assert_eq!(hit(&c, 1, 0, 0), Some(1));
        assert_eq!(hit(&c, 3, 0, 0), Some(3));
        assert_eq!(counters(&c), (3, 1, 0, 2));

        // Another salt is a miss that evicts nothing.
        assert!(matches!(c.lookup(fp(1), 0, 7, &q(1), &req), Lookup::Miss));
        assert_eq!(counters(&c), (3, 2, 0, 2));
        assert_eq!(hit(&c, 1, 0, 0), Some(1), "entry survived the foreign lookup");

        // A generation bump reports the entry stale once — dropping it —
        // and a plain miss from then on.
        assert!(matches!(c.lookup(fp(1), 1, 0, &q(1), &req), Lookup::Stale));
        assert_eq!(counters(&c), (4, 3, 1, 1));
        assert!(matches!(c.lookup(fp(1), 1, 0, &q(1), &req), Lookup::Miss));
        assert_eq!(counters(&c), (4, 4, 1, 1));

        // Same fingerprint, different (query, request): a miss that leaves
        // the entry alone, then the store overwrites it.
        let other = canonicalize(&QueryRequest::complete(Semantics::Slca));
        assert!(matches!(c.lookup(fp(3), 0, 0, &q(4), &req), Lookup::Miss));
        assert!(matches!(c.lookup(fp(3), 0, 0, &q(3), &other), Lookup::Miss));
        assert_eq!(hit(&c, 3, 0, 0), Some(3), "colliding lookups evict nothing");
        c.store(fp(3), 0, 0, q(4), req, value(4));
        assert_eq!(c.len(), 1, "one fingerprint, one entry");
        assert_eq!(hit(&c, 3, 0, 0), None, "overwritten");
        assert!(matches!(c.lookup(fp(3), 0, 0, &q(4), &req), Lookup::Hit(v) if tag(&v) == 4));

        // `contains` answers like a lookup would, and moves no counter and
        // no recency: 1 stays the victim although it was probed last.
        let c = per_shard(2);
        c.store(fp(1), 0, 0, q(1), req, value(1));
        c.store(fp(2), 0, 0, q(2), req, value(2));
        assert!(c.contains(fp(1), 0, 0, &q(1), &req));
        assert!(!c.contains(fp(1), 1, 0, &q(1), &req), "stale");
        assert!(!c.contains(fp(1), 0, 7, &q(1), &req), "other salt");
        assert!(!c.contains(fp(1), 0, 0, &q(2), &req), "collision");
        assert!(!c.contains(fp(9), 0, 0, &q(9), &req), "absent");
        assert_eq!(counters(&c), (0, 0, 0, 2));
        c.store(fp(3), 0, 0, q(3), req, value(3));
        assert!(!c.contains(fp(1), 0, 0, &q(1), &req), "the stale probe dropped nothing, LRU did");
        assert!(c.contains(fp(2), 0, 0, &q(2), &req));

        // Capacity 1 (and 0, which rounds up): the newest store wins.
        for capacity in [0, 1] {
            let c = per_shard(capacity);
            for i in 1..=3 {
                c.store(fp(i), 0, 0, q(i), req, value(i));
                assert_eq!(c.len(), 1);
                assert_eq!(hit(&c, i, 0, 0), Some(i));
            }
            assert_eq!(hit(&c, 2, 0, 0), None);
            c.clear();
            assert!(c.is_empty());
            c.store(fp(1), 0, 0, q(1), req, value(1));
            assert_eq!(hit(&c, 1, 0, 0), Some(1), "usable after clear");
        }

        // Fingerprints spread over every shard, each with its own bound.
        let c = per_shard(1);
        for i in 0..2 * shards as u64 {
            c.store(i, 0, 0, q(i), req, value(i));
        }
        assert_eq!(c.len(), shards, "one resident per shard");
    }

    #[test]
    fn stamped_cache_conformance_at_both_instantiations() {
        use crate::plan::lower::TopKExec;
        use crate::request::{ExecutedEngine, QueryResponse};
        conformance::<QueryResponse>(
            1,
            |n| {
                let metrics = xtk_obs::MetricsRegistry::new();
                metrics.add("stub.tag", n);
                QueryResponse {
                    results: Vec::new(),
                    engine: ExecutedEngine::JoinBased,
                    metrics: metrics.snapshot(),
                    trace: None,
                }
            },
            |response| response.metrics.get("stub.tag"),
        );
        conformance::<ExecSpec>(
            PLAN_CACHE_SHARDS,
            |n| ExecSpec {
                topk: TopKExec::Complete { elided: false },
                semantics: Semantics::Elca,
                variant: Default::default(),
                threshold: Default::default(),
                scored: true,
                truncate: Some(n as usize),
            },
            |spec| spec.truncate.map_or(0, |n| n as u64),
        );
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
        let planner = Planner {
            cache: PlanCache::with_shards(PLAN_CACHE_SHARDS, PLAN_CACHE_SHARDS),
            ..Planner::from_index(e.index())
        };
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
