//! Sharded scatter-gather serving: partition a corpus into N document
//! ranges and answer queries by merging per-range top-K candidates
//! through a global TA-style threshold.
//!
//! # Layout
//!
//! A "document" is one child subtree of the corpus root (a `<paper>`
//! under `<bib>`, say).  [`write_sharded`] splits the root's children
//! into N contiguous, balanced ranges and writes one directory:
//!
//! ```text
//! <dir>/MANIFEST    # text manifest: version, topology, one document range per shard
//! <dir>/index.bin   # the corpus column store, as `write_index` writes it
//! ```
//!
//! A shard is a row range of that one store, its [`Slice`]: JDewey
//! numbers are unique per level and monotone in parent order (§III-A), so
//! contiguous documents hold one row range of every term's lists, and
//! below level 1 no run crosses the range's edge (a run at level 2 or
//! deeper lies inside one document).  [`ShardedEngine`] opens the store
//! once beside the corpus index and keeps per range only its nodes and,
//! per corpus [`TermId`] with a posting there, the term's deepest level
//! and largest score in the range.
//!
//! # Global scores, local execution
//!
//! tf-idf weights depend on corpus-global statistics.  A range's rows are
//! the corpus's, scored by the corpus, and Algorithm 1 runs in the range
//! over a [`DiskSource`] windowed to its rows: each column narrowed to
//! the runs starting in them, its values the corpus's JDewey numbers.
//! Result scores are then bit-identical no matter which range computed
//! them, and a block two ranges share is decoded once for both.
//!
//! Results at level 1 (the corpus root) are partition artifacts — a
//! cross-document LCA exists only in the unsharded tree — so a range
//! never enters level 1, and the unsharded reference the engine is
//! differentially tested against drops its level-1 results.  Every
//! deeper result lives inside a single document and is computed by
//! exactly one range.
//!
//! # TA-style merge
//!
//! A range's best possible result score is bounded by the sum, over the
//! query terms, of the term's maximum occurrence score (damping is
//! `λ^Δl ≤ 1`, and a result takes the max damped occurrence per
//! keyword).  [`ShardedEngine::execute`] orders ranges by that bound and
//! runs them one after another on the calling thread; before each range
//! it compares the range's bound against the current k-th candidate
//! score: strictly below means no remaining range can alter the top-K,
//! so the gather stops early.  The threshold is the classic TA stopping
//! rule lifted from rows to shards.

use crate::diskexec::{DiskJoinSpec, DiskSource};
use crate::joinbased::{algorithm1, JoinOptions, KeywordRows};
use crate::query::Query;
use crate::request::{
    ExecutedEngine, Executor, QueryAlgorithm, QueryRequest, QueryResponse, ScoreMode,
};
use crate::result::{rank_top, ScoredResult};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::disk::{write_index, WriteIndexOptions};
use xtk_index::diskcol::{DiskColumnStore, IoSession};
use xtk_index::{Slice, TermId, XmlIndex};
use xtk_obs::{EventKind, MetricsRegistry, MetricsSnapshot, Obs, Tracer};
use xtk_xml::NodeId;

/// Manifest file name inside a sharded-corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// The corpus store's file name inside a sharded-corpus directory.
pub const STORE_FILE: &str = "index.bin";
/// Manifest header magic + version; bump on layout changes.  Versions 1
/// and 2 (one store per shard) are refused by name.
pub const MANIFEST_HEADER: &str = "xtk-shard-manifest v3";

/// Directory name of shard `id` in the version 1 and 2 layouts, which
/// wrote one store per shard; a version 3 directory has none.
pub fn shard_dir_name(id: u32) -> String {
    format!("shard-{id:04}")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The corpus root's children — the shardable "documents".
fn doc_roots(ix: &XmlIndex) -> &[NodeId] {
    let tree = ix.tree();
    if tree.is_empty() {
        &[]
    } else {
        tree.children(tree.root())
    }
}

/// Balanced contiguous document ranges: `min(shards, docs)` non-empty
/// ranges (a single empty range for an empty corpus), earlier ranges
/// taking the remainder — deterministic, so the writer and every later
/// open agree on the partition.
fn doc_partition(docs: usize, shards: usize) -> Vec<Range<usize>> {
    let n = shards.max(1).min(docs.max(1));
    let base = docs / n;
    let extra = docs % n;
    let mut out = Vec::with_capacity(n);
    let mut lo = 0usize;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// The nodes of documents `docs`: from the first one's root to the next
/// document's (the tree's end after the last document).
fn doc_nodes(ix: &XmlIndex, docs: &Range<usize>) -> Range<NodeId> {
    let end = NodeId(ix.tree().len() as u32);
    let root = |d: usize| doc_roots(ix).get(d).copied().unwrap_or(end);
    root(docs.start)..root(docs.end)
}

/// Partitions `ix` into (at most) `shards` document ranges under `dir`:
/// the corpus column store `index.bin` (scores included, current format)
/// plus a text `MANIFEST` of the ranges.  Corpora with fewer documents
/// than `shards` get one range per document; an empty corpus gets a
/// single empty range.  Returns the number of ranges written.
pub fn write_sharded(ix: &XmlIndex, dir: &Path, shards: usize) -> io::Result<usize> {
    write_sharded_with(
        ix,
        dir,
        shards,
        WriteIndexOptions { include_scores: true, ..Default::default() },
    )
}

/// [`write_sharded`] with explicit [`WriteIndexOptions`] for the store,
/// which is byte for byte the file [`write_index`] writes with them.  The
/// manifest does not record them; the store carries its own magic.
/// `include_scores` only sizes the file: the [`ShardedEngine`] reads no
/// score section — the scores are the corpus index's — so a store
/// written without scores serves ranked requests exactly as one written
/// with them.
pub fn write_sharded_with(
    ix: &XmlIndex,
    dir: &Path,
    shards: usize,
    options: WriteIndexOptions,
) -> io::Result<usize> {
    let docs = doc_roots(ix).len();
    let parts = doc_partition(docs, shards);
    std::fs::create_dir_all(dir)?;
    write_index(ix, &dir.join(STORE_FILE), options)?;
    let mut manifest = format!(
        "{MANIFEST_HEADER}\nshards {}\nnodes {}\ndocs {}\n",
        parts.len(),
        ix.tree().len(),
        docs,
    );
    for (id, part) in parts.iter().enumerate() {
        // lint:allow(L8, build-time manifest line per range; write_sharded is not on the query path)
        manifest.push_str(&format!("range {id} {} {}\n", part.start, part.end));
    }
    std::fs::write(dir.join(MANIFEST_FILE), manifest)?;
    Ok(parts.len())
}

struct Manifest {
    shards: usize,
    nodes: usize,
    docs: usize,
    /// The document range of each shard, in shard order.
    ranges: Vec<Range<usize>>,
}

fn parse_usize(tok: Option<&str>, what: &str) -> io::Result<usize> {
    tok.and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| invalid(what))
}

fn parse_manifest(text: &str) -> io::Result<Manifest> {
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        Some(old @ ("xtk-shard-manifest v1" | "xtk-shard-manifest v2")) => {
            let version = old.trim_start_matches("xtk-shard-manifest ");
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported shard manifest version {version} (one store per shard; this \
                     reader accepts v3): rewrite the directory with write_sharded"
                ),
            ));
        }
        _ => return Err(invalid("unrecognized shard manifest header/version")),
    }
    let mut field = |name: &str| -> io::Result<usize> {
        let line = lines.next().ok_or_else(|| invalid("truncated shard manifest"))?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some(name) {
            return Err(invalid("malformed shard manifest field"));
        }
        let v = parse_usize(toks.next(), "malformed shard manifest value")?;
        if toks.next().is_some() {
            return Err(invalid("trailing tokens in shard manifest field"));
        }
        Ok(v)
    };
    let shards = field("shards")?;
    let nodes = field("nodes")?;
    let docs = field("docs")?;
    let mut ranges = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let mut toks = line.split_whitespace();
        if toks.next() != Some("range") {
            return Err(invalid("malformed shard manifest range"));
        }
        if parse_usize(toks.next(), "malformed shard range id")? != ranges.len() {
            return Err(invalid("shard manifest ranges out of order"));
        }
        let lo = parse_usize(toks.next(), "malformed shard document range")?;
        let hi = parse_usize(toks.next(), "malformed shard document range")?;
        if toks.next().is_some() {
            return Err(invalid("trailing tokens in shard manifest range"));
        }
        ranges.push(lo..hi);
    }
    if ranges.len() != shards {
        return Err(invalid("shard manifest range count mismatch"));
    }
    Ok(Manifest { shards, nodes, docs, ranges })
}

/// The one open check of the store: it holds every corpus term, at the
/// term's [`TermId`], with the term's levels and level-1 row count — the
/// store [`write_index`] writes of `ix`.
fn check_store(ix: &XmlIndex, store: &DiskColumnStore) -> io::Result<()> {
    for (id, t) in ix.terms() {
        let st = id.0 as usize;
        let rows = store.term_column(st, 1).map_or(0, |c| c.row_count());
        let held = store.term_index(t.name()) == Some(st) && store.term_levels(st) == t.max_len();
        if !held || rows != t.len() {
            return Err(invalid("shard store does not match the corpus index"));
        }
    }
    Ok(())
}

/// One document range of the opened corpus: its nodes and what the TA
/// bound and the join read of each term there.
struct DocRange {
    slice: Slice,
    /// The corpus terms with a posting in the range, ascending: each with
    /// its deepest level and its largest score in the range, the term's
    /// share of the range's TA bound.
    terms: Vec<(TermId, u16, f32)>,
}

impl DocRange {
    fn new(ix: &XmlIndex, slice: Slice) -> Self {
        let mut terms = Vec::new();
        for (id, t) in ix.terms() {
            let rows = slice.rows(t.postings());
            let postings = t.postings().get(rows.clone()).unwrap_or_default();
            let Some(levels) = postings.iter().map(|&n| ix.tree().depth(n)).max() else {
                continue;
            };
            let scores = t.scores().get(rows).unwrap_or_default();
            terms.push((id, levels, scores.iter().copied().max_by(f32::total_cmp).unwrap_or(0.0)));
        }
        Self { slice, terms }
    }

    /// Corpus term `t`'s entry in [`terms`](Self::terms), if held here.
    fn held(&self, t: TermId) -> Option<&(TermId, u16, f32)> {
        self.terms.binary_search_by_key(&t, |e| e.0).ok().and_then(|i| self.terms.get(i))
    }

    /// Corpus term `t`'s store term and rows as the range reads them:
    /// every posting (the store's runs address corpus rows), to the
    /// range's deepest level; neither when it has no posting here.
    fn keyword<'a>(&self, ix: &'a XmlIndex, t: TermId) -> (Option<usize>, KeywordRows<'a>) {
        let Some(&(_, levels, _)) = self.held(t) else {
            return (None, KeywordRows::default());
        };
        let term = ix.term(t);
        let rows = KeywordRows { postings: term.postings(), scores: term.scores(), levels };
        (Some(t.0 as usize), rows)
    }
}

/// The scatter-gather executor over a sharded corpus directory.
///
/// Implements [`Executor`], so [`run_batch`](crate::batch::run_batch),
/// [`BatchExecutor`](crate::batch::BatchExecutor), result caching,
/// `--trace` and the metrics pipeline all work unchanged.  Supports
/// [`QueryAlgorithm::Auto`] and [`QueryAlgorithm::JoinBased`] with
/// ranked scores (per-shard emission order is not meaningful globally,
/// so unranked requests, the stack baseline and the star join return
/// [`io::ErrorKind::Unsupported`]).
///
/// Responses are bit-identical to a single-shard (and to a filtered
/// unsharded) run for every shard count and block-cache configuration —
/// the differential suite in `tests/shard_differential` asserts exactly
/// that.
pub struct ShardedEngine<'a> {
    ix: &'a XmlIndex,
    store: DiskColumnStore,
    ranges: Vec<DocRange>,
    prune: bool,
    salt: u64,
    /// Plans against the *global* index statistics (shard-invariant, so
    /// the cached spec — keyed by the topology salt — stays
    /// bit-identical across shard layouts).
    planner: crate::plan::cache::Planner,
}

impl std::fmt::Debug for ShardedEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.ranges.len())
            .field("prune", &self.prune)
            .field("salt", &self.salt)
            .finish()
    }
}

impl<'a> ShardedEngine<'a> {
    /// Opens a sharded corpus written by [`write_sharded`] with a fresh
    /// unbounded shared block cache.
    pub fn open(ix: &'a XmlIndex, dir: &Path) -> io::Result<Self> {
        Self::open_with_cache(ix, dir, Arc::new(ShardedLruCache::unbounded()))
    }

    /// Opens a sharded corpus with an explicit [`BlockCache`] for its
    /// store (shared with other stores, their keys never collide: each
    /// opened store draws a distinct store id).
    ///
    /// The directory is validated against the live corpus index: a
    /// missing/garbled/version-mismatched manifest, ranges that are not
    /// the corpus's partition, or a store that is not the corpus index's
    /// all return `Err` (never panic).
    pub fn open_with_cache(
        ix: &'a XmlIndex,
        dir: &Path,
        cache: Arc<dyn BlockCache>,
    ) -> io::Result<Self> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let m = parse_manifest(&text)?;
        let docs = doc_roots(ix).len();
        if m.nodes != ix.tree().len() || m.docs != docs {
            return Err(invalid("shard manifest does not match the corpus index"));
        }
        let parts = doc_partition(docs, m.shards);
        if parts != m.ranges {
            return Err(invalid("shard manifest ranges do not match the partition"));
        }
        let store = DiskColumnStore::open_with_cache(&dir.join(STORE_FILE), cache)?;
        check_store(ix, &store)?;
        let mut salt = crate::batch::Fnv::new();
        salt.push(1);
        salt.push(parts.len() as u64);
        for (id, part) in parts.iter().enumerate() {
            salt.push(id as u64);
            salt.push(part.start as u64);
            salt.push(part.end as u64);
        }
        let ranges = parts.iter().map(|part| DocRange::new(ix, ix.slice(doc_nodes(ix, part))));
        let ranges = ranges.collect();
        let planner = crate::plan::cache::Planner::from_index(ix);
        Ok(Self { ix, store, ranges, prune: true, salt: salt.0, planner })
    }

    /// The planner this engine serves specs from.
    pub fn planner(&self) -> &crate::plan::cache::Planner {
        &self.planner
    }

    /// Enables/disables the TA early stop (builder style; default on).
    /// Disabling it turns the merge into the naive full gather — the
    /// reference the early-stop property test compares against.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Number of shards in the opened topology.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// Logical-plan EXPLAIN for this topology: the bound plan (with the
    /// scatter-gather `Merge` stage), the rewrite log, and the physical
    /// plan each shard lowers to — byte-stable, without executing.
    /// Reports whether the next execution would plan cold or serve the
    /// spec from this topology's plan cache.
    pub fn explain_plan(&self, query: &Query, req: &QueryRequest) -> crate::PlanExplain {
        let mut ex = crate::plan::lower::explain(
            self.ix,
            query,
            req,
            crate::plan::lower::ExplainTarget::Sharded {
                shards: self.ranges.len(),
                ta_prune: self.prune,
            },
        );
        ex.provenance =
            Some(self.planner.peek(query, req, self.ix.generation(), self.salt).as_str());
        ex
    }

    /// Executes `query` inside one document range.  The physical spec
    /// is lowered once per query from the logical plan (against the
    /// global index) and shared by every range.
    fn run_range(
        &self,
        range: &DocRange,
        query: &Query,
        spec: &DiskJoinSpec,
        req: &QueryRequest,
    ) -> io::Result<ShardOutcome> {
        let obs = Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::for_level(req.trace),
        };
        let session = IoSession::default();
        let terms = query.terms.iter().map(|&t| range.keyword(self.ix, t)).collect();
        let mut src = DiskSource::over(&self.store, terms, Some(&range.slice), spec, &session);
        let (mut results, _) = algorithm1(self.ix, query, &spec.join, &mut src, &obs)?;
        rank_top(&mut results, req.k);
        Ok(ShardOutcome {
            results,
            metrics: obs.metrics.snapshot(),
            trace_events: obs.tracer.finish().map(|t| t.events).unwrap_or_default(),
        })
    }
}

struct ShardOutcome {
    results: Vec<ScoredResult>,
    metrics: MetricsSnapshot,
    trace_events: Vec<xtk_obs::TraceEvent>,
}

/// One scatter-plan slot: the range, its shard id and its TA score upper
/// bound.
struct Planned<'s> {
    data: &'s DocRange,
    shard: usize,
    bound: f32,
}

impl Executor for ShardedEngine<'_> {
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse> {
        if !matches!(req.algorithm, QueryAlgorithm::Auto | QueryAlgorithm::JoinBased) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the sharded executor implements the join-based algorithm only",
            ));
        }
        if req.scores == ScoreMode::Unranked {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the sharded executor merges by score and cannot serve unranked requests",
            ));
        }
        if query.terms.iter().any(|t| t.0 as usize >= self.ix.vocab_size()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "query term id out of range for the corpus index",
            ));
        }
        let obs = Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::for_level(req.trace),
        };

        // Plan once against the global index — served from the plan
        // cache when this (query, request, generation, topology salt)
        // was planned before; every shard executes the same physical
        // spec (planned from the global index, so the spec — and the
        // merged response — is shard-topology-invariant).
        let (lowered, _) =
            self.planner.spec_for(self.ix, query, req, self.ix.generation(), self.salt);
        let spec = DiskJoinSpec {
            join: JoinOptions {
                semantics: lowered.semantics,
                variant: lowered.variant,
                with_scores: true,
            },
            block_skip: lowered.block_skip,
            prescan: lowered.prescan,
        };

        // Plan: a range missing any term cannot produce a conjunctive
        // match and is skipped outright.
        // Eligible ranges are ordered by their TA upper bound (sum of
        // per-term max occurrence scores; damping ≤ 1 keeps it an upper
        // bound on any result score), ties broken by shard id.
        let mut skipped = 0u64;
        let mut planned: Vec<Planned> = Vec::new();
        for (si, shard) in self.ranges.iter().enumerate() {
            let mut bound = Some(0.0f32);
            for &t in &query.terms {
                bound = bound.zip(shard.held(t)).map(|(b, e)| b + e.2);
            }
            match bound {
                Some(bound) => planned.push(Planned { data: shard, shard: si, bound }),
                None => skipped += 1,
            }
        }
        planned.sort_by(|a, b| b.bound.total_cmp(&a.bound).then(a.shard.cmp(&b.shard)));

        // Scatter-gather one shard at a time; stop before the first shard
        // whose bound is strictly below the k-th candidate score.
        let mut candidates: Vec<ScoredResult> = Vec::new();
        let mut merged = MetricsRegistry::new().snapshot();
        let mut executed = 0u64;
        let mut pruned = 0u64;
        for (next, p) in planned.iter().enumerate() {
            if let Some(k) = req.k.filter(|_| self.prune) {
                // The k best so far, in rank order.
                rank_top(&mut candidates, Some(k));
                let kth = k.checked_sub(1).and_then(|i| candidates.get(i));
                if kth.is_some_and(|kth| p.bound.total_cmp(&kth.score).is_lt()) {
                    pruned = (planned.len() - next) as u64;
                    break;
                }
            }
            obs.event(EventKind::ShardScatter {
                shard: p.shard as u32,
                bound_bits: p.bound.to_bits(),
            });
            let out = self.run_range(p.data, query, &spec, req)?;
            executed += 1;
            for ev in out.trace_events {
                // The store id is a process-global open counter; replace
                // it with the shard id so the merged trace says which
                // range read what, as a pure function of the topology.
                let kind = match ev.kind {
                    EventKind::StoreIo { decodes, .. } => {
                        EventKind::StoreIo { store: p.shard as u32, decodes }
                    }
                    kind => kind,
                };
                obs.event(kind);
            }
            obs.event(EventKind::ShardGather {
                shard: p.shard as u32,
                results: out.results.len() as u64,
            });
            merged.merge(&out.metrics);
            candidates.extend(out.results);
        }
        obs.event(EventKind::ShardStop { executed, pruned, skipped });
        rank_top(&mut candidates, req.k);

        let driver = MetricsRegistry::new();
        driver.add("shard.shards", self.ranges.len() as u64);
        driver.add("shard.eligible", planned.len() as u64);
        driver.add("shard.executed", executed);
        driver.add("shard.pruned", pruned);
        driver.add("shard.skipped", skipped);
        driver.add("query.results", candidates.len() as u64);
        let mut metrics = driver.snapshot();
        metrics.merge(&merged);
        Ok(QueryResponse {
            results: candidates,
            engine: ExecutedEngine::JoinBased,
            metrics,
            trace: obs.tracer.finish(),
        })
    }

    fn generation(&self) -> u64 {
        self.ix.generation()
    }

    fn prefetch(&self, terms: &[TermId]) -> io::Result<u64> {
        terms.iter().map(|t| self.store.prefetch_term(t.0 as usize)).sum()
    }

    fn release(&self, terms: &[TermId]) {
        for t in terms {
            self.store.unpin_term(t.0 as usize);
        }
    }

    fn topology_salt(&self) -> u64 {
        self.salt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Semantics;
    use crate::result::sort_ranked;
    use xtk_xml::parse;

    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title>\
                       <author>ann</author></paper><paper><title>relational top k join</title>\
                       <author>bob</author></paper></conf>\
                       <conf><paper><title>xml top k</title></paper></conf>\
                       <conf><paper><title>keyword top search</title></paper></conf></bib>";

    fn tmp(tag: &str) -> xtk_xml::testutil::TempPath {
        xtk_xml::testutil::TempPath::new(&format!("xtk_shard_unit_{tag}"))
    }

    fn corpus() -> XmlIndex {
        XmlIndex::build(parse(DOC).unwrap())
    }

    #[test]
    fn partition_is_balanced_and_total() {
        assert_eq!(doc_partition(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(doc_partition(2, 8), vec![0..1, 1..2]);
        assert_eq!(doc_partition(0, 4), vec![0..0]);
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let ix = corpus();
        let dir = tmp("manifest");
        let written = write_sharded(&ix, &dir, 2).unwrap();
        assert_eq!(written, 2);
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let m = parse_manifest(&text).unwrap();
        assert_eq!(m.shards, 2);
        assert_eq!(m.nodes, ix.tree().len());
        assert_eq!(m.ranges, doc_partition(m.docs, 2));
        assert!(parse_manifest("xtk-shard-manifest v9\nshards 1\n").is_err());
        assert!(parse_manifest("").is_err());
    }

    #[test]
    fn sharded_matches_filtered_unsharded() {
        let ix = corpus();
        let dir = tmp("match");
        write_sharded(&ix, &dir, 3).unwrap();
        let engine = ShardedEngine::open(&ix, &dir).unwrap();
        assert_eq!(engine.shard_count(), 3);
        let q = Query::from_words(&ix, &["top", "k"]).unwrap();
        let req = QueryRequest::top_k(2, Semantics::Elca);
        let resp = engine.execute(&q, &req).unwrap();
        // Reference: unsharded complete join, level-1 filtered.
        let eng = crate::engine::Engine::from_index(corpus());
        let mut reference = eng
            .run(&q, &QueryRequest::complete(Semantics::Elca))
            .results
            .into_iter()
            .filter(|r| r.level > 1)
            .collect::<Vec<_>>();
        sort_ranked(&mut reference);
        reference.truncate(2);
        assert_eq!(resp.results.len(), reference.len());
        for (a, b) in resp.results.iter().zip(&reference) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.level, b.level);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(resp.metrics.get("shard.shards"), 3);
        assert_eq!(
            resp.metrics.get("query.results"),
            resp.results.len() as u64
        );
    }

    #[test]
    fn unsupported_requests_err() {
        let ix = corpus();
        let dir = tmp("unsupported");
        write_sharded(&ix, &dir, 2).unwrap();
        let engine = ShardedEngine::open(&ix, &dir).unwrap();
        let q = Query::from_words(&ix, &["xml"]).unwrap();
        let unranked = QueryRequest::complete(Semantics::Elca).unranked();
        assert_eq!(
            engine.execute(&q, &unranked).unwrap_err().kind(),
            io::ErrorKind::Unsupported
        );
        let stack = QueryRequest::top_k(2, Semantics::Elca)
            .with_algorithm(QueryAlgorithm::StackBased);
        assert_eq!(
            engine.execute(&q, &stack).unwrap_err().kind(),
            io::ErrorKind::Unsupported
        );
    }

    #[test]
    fn topology_salt_distinguishes_shard_counts() {
        let ix = corpus();
        let (da, db) = (tmp("salt_a"), tmp("salt_b"));
        write_sharded(&ix, &da, 2).unwrap();
        write_sharded(&ix, &db, 4).unwrap();
        let a = ShardedEngine::open(&ix, &da).unwrap();
        let b = ShardedEngine::open(&ix, &db).unwrap();
        assert_ne!(a.topology_salt(), b.topology_salt());
        assert_eq!(
            a.topology_salt(),
            ShardedEngine::open(&ix, &da).unwrap().topology_salt(),
            "salt is a pure function of the topology"
        );
    }
}
