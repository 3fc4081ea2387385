//! Sharded scatter-gather serving: partition a corpus into N document
//! shards and answer queries by merging per-shard top-K candidates
//! through a global TA-style threshold.
//!
//! # Layout
//!
//! A "document" is one child subtree of the corpus root (a `<paper>`
//! under `<bib>`, say).  [`write_sharded`] splits the root's children
//! into N contiguous, balanced ranges and materializes each range as a
//! tenant-style directory:
//!
//! ```text
//! <dir>/MANIFEST            # text manifest: version, topology, spans
//! <dir>/shard-0000/index.bin   # a full JDewey index + column store
//! <dir>/shard-0001/index.bin
//! ...
//! ```
//!
//! Each shard is an ordinary [`XmlIndex`] + [`DiskColumnStore`] pair
//! built over the *subforest* of its documents
//! ([`XmlTree::subforest`](xtk_xml::XmlTree::subforest)), so the whole
//! existing disk executor runs unchanged inside a shard.  Because every
//! opened store draws a fresh store id, the shared [`BlockCache`] keys of
//! different shards are disjoint by construction.
//!
//! # Score invariance
//!
//! tf-idf weights depend on corpus-global statistics, so a shard-local
//! build would score the same occurrence differently in different
//! topologies.  [`write_sharded`] therefore stamps the *global* scores
//! onto every shard term ([`XmlIndex::override_scores`]): a local posting
//! maps back to its global node by a constant offset (contiguous
//! children of the root keep their pre-order layout), and the global
//! score is copied bit-for-bit.  Result scores are then bit-identical no
//! matter which shard computed them.
//!
//! Results at level 1 (the synthetic shard root) are partition artifacts
//! — a cross-document LCA exists only in the unsharded tree — so the
//! engine excludes level-1 results, and the unsharded reference it is
//! differentially tested against applies the same filter.  Every deeper
//! result lives inside a single document and is computed by exactly one
//! shard.
//!
//! # TA-style merge
//!
//! A shard's best possible result score is bounded by the sum, over the
//! query terms, of the term's maximum occurrence score (damping is
//! `λ^Δl ≤ 1`, and a result takes the max damped occurrence per
//! keyword).  [`ShardedEngine::execute`] orders shards by that bound,
//! scatters them in fixed-size waves over the existing work-stealing
//! pool, and after each wave compares the next unexecuted shard's bound
//! against the current k-th candidate score: strictly below means no
//! remaining shard can alter the top-K, so the gather stops early.  The
//! threshold is the classic TA stopping rule lifted from rows to shards.

use crate::diskexec::{join_search_disk_spec, prefetch_terms, release_terms, DiskJoinSpec};
use crate::joinbased::JoinOptions;
use crate::pool::{parallel_map, Parallelism};
use crate::query::Query;
use crate::request::{
    ExecutedEngine, Executor, QueryAlgorithm, QueryRequest, QueryResponse, ScoreMode,
};
use crate::result::{rank_top, sort_ranked, ScoredResult};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::disk::{write_index, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::{IndexOptions, TermId, XmlIndex};
use xtk_obs::{EventKind, MetricsRegistry, MetricsSnapshot, Obs, Tracer};
use xtk_xml::NodeId;

/// Manifest file name inside a sharded-corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Store file name inside each shard directory.
pub const STORE_FILE: &str = "index.bin";
/// Manifest header magic + version; bump on layout changes.
pub const MANIFEST_HEADER: &str = "xtk-shard-manifest v1";
/// Shards dispatched per scatter wave.  A fixed constant (never derived
/// from the pool width) so the wave boundaries — and therefore the TA
/// stopping decision and the merged trace — are parallelism-invariant.
const SCATTER_WAVE: usize = 4;

/// Directory name of shard `id`.
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

/// Builds the in-memory index of one shard: the subforest of its
/// documents, indexed normally, then re-stamped with the corpus-global
/// occurrence scores.  Returns the index plus the global-node offset
/// (local id `j ≥ 1` ↔ global id `offset + j − 1`).
fn build_shard_index(ix: &XmlIndex, docs: &Range<usize>) -> io::Result<(XmlIndex, u32)> {
    let all = doc_roots(ix);
    let roots: &[NodeId] = all.get(docs.clone()).unwrap_or(&[]);
    let offset = roots.first().map_or(1, |r| r.0);
    let sub = ix.tree().subforest(roots);
    let opts = IndexOptions { damping: ix.damping().clone(), ..Default::default() };
    let mut six = XmlIndex::build_with(sub, opts);
    // Stamped term by term through one buffer: no second copy of every
    // term's scores.
    let mut scores = Vec::new();
    for i in 0..six.vocab_size() {
        let tid = TermId(i as u32);
        let t = six.term(tid);
        let Some(gt) = ix.term_by_str(t.name()) else {
            return Err(invalid("shard term missing from the corpus vocabulary"));
        };
        scores.clear();
        for p in t.postings() {
            let global = NodeId(offset + p.0 - 1);
            let Ok(pos) = gt.postings().binary_search(&global) else {
                return Err(invalid("shard posting missing from the corpus"));
            };
            let Some(&s) = gt.scores().get(pos) else {
                return Err(invalid("corpus index has no scores for a shard posting"));
            };
            scores.push(s);
        }
        if !six.override_scores(tid, &scores) {
            return Err(invalid("shard score override misaligned"));
        }
    }
    six.set_generation(ix.generation());
    Ok((six, offset))
}

/// Partitions `ix` into (at most) `shards` document shards under `dir`:
/// one `shard-NNNN/index.bin` column store per shard (scores included,
/// current format) plus a text `MANIFEST` describing the topology.
/// Corpora with fewer documents than `shards` get one shard per
/// document; an empty corpus gets a single empty shard.  Returns the
/// number of shards written.
pub fn write_sharded(ix: &XmlIndex, dir: &Path, shards: usize) -> io::Result<usize> {
    write_sharded_with(
        ix,
        dir,
        shards,
        WriteIndexOptions { include_scores: true, ..Default::default() },
    )
}

/// [`write_sharded`] with explicit [`WriteIndexOptions`] applied to every
/// shard store.  The manifest does not record them; each shard file
/// carries its own magic.  `include_scores` only sizes the files: the
/// [`ShardedEngine`] reads no score section — shard scores are stamped
/// from the corpus-global index — so stores written without scores
/// serve ranked requests exactly as stores written with them.
pub fn write_sharded_with(
    ix: &XmlIndex,
    dir: &Path,
    shards: usize,
    options: WriteIndexOptions,
) -> io::Result<usize> {
    let docs = doc_roots(ix).len();
    let parts = doc_partition(docs, shards);
    std::fs::create_dir_all(dir)?;
    let mut manifest = format!(
        "{MANIFEST_HEADER}\nshards {}\nnodes {}\ndocs {}\n",
        parts.len(),
        ix.tree().len(),
        docs,
    );
    for (id, part) in parts.iter().enumerate() {
        let (six, _offset) = build_shard_index(ix, part)?;
        let sdir = dir.join(shard_dir_name(id as u32));
        std::fs::create_dir_all(&sdir)?;
        write_index(&six, &sdir.join(STORE_FILE), options)?;
        // lint:allow(L8, build-time manifest line per shard; write_sharded is not on the query path)
        manifest.push_str(&format!(
            "shard {id} {} {} {} {}\n",
            part.start,
            part.end,
            six.tree().len(),
            six.vocab_size(),
        ));
    }
    std::fs::write(dir.join(MANIFEST_FILE), manifest)?;
    Ok(parts.len())
}

struct ManifestEntry {
    id: u64,
    docs: Range<usize>,
    nodes: usize,
    vocab: usize,
}

struct Manifest {
    shards: usize,
    nodes: usize,
    docs: usize,
    entries: Vec<ManifestEntry>,
}

fn parse_usize(tok: Option<&str>, what: &str) -> io::Result<usize> {
    tok.and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| invalid(what))
}

fn parse_manifest(text: &str) -> io::Result<Manifest> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(invalid("unrecognized shard manifest header/version"));
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
    let mut entries = Vec::with_capacity(shards);
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        if toks.next() != Some("shard") {
            return Err(invalid("malformed shard manifest entry"));
        }
        let id = parse_usize(toks.next(), "malformed shard id")? as u64;
        let lo = parse_usize(toks.next(), "malformed shard doc range")?;
        let hi = parse_usize(toks.next(), "malformed shard doc range")?;
        let nodes = parse_usize(toks.next(), "malformed shard node count")?;
        let vocab = parse_usize(toks.next(), "malformed shard vocab size")?;
        if toks.next().is_some() {
            return Err(invalid("trailing tokens in shard manifest entry"));
        }
        entries.push(ManifestEntry { id, docs: lo..hi, nodes, vocab });
    }
    if entries.len() != shards {
        return Err(invalid("shard manifest entry count mismatch"));
    }
    Ok(Manifest { shards, nodes, docs, entries })
}

/// One opened shard: its rebuilt in-memory index, its on-disk column
/// store, and where its nodes start in the corpus.
struct Shard {
    ix: XmlIndex,
    store: DiskColumnStore,
    /// Global node id of the first document root (the local↔global
    /// offset; see [`build_shard_index`]).
    offset: u32,
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
/// unsharded) run for every shard count, `Parallelism`, and block-cache
/// configuration — the differential suite in `tests/shard_differential`
/// asserts exactly that.
pub struct ShardedEngine<'a> {
    ix: &'a XmlIndex,
    shards: Vec<Shard>,
    parallelism: Parallelism,
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
            .field("shards", &self.shards.len())
            .field("parallelism", &self.parallelism)
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

    /// Opens a sharded corpus with an explicit shared [`BlockCache`].
    /// All shards share `cache`; their keys never collide because each
    /// opened store draws a distinct store id.
    ///
    /// The manifest is validated against the live corpus index: a
    /// missing/garbled/version-mismatched manifest, a partition that
    /// does not match the corpus, or a shard store that does not match
    /// its rebuilt index all return `Err` (never panic).
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
        if parts.len() != m.entries.len() {
            return Err(invalid("shard manifest topology mismatch"));
        }
        let mut shards = Vec::with_capacity(parts.len());
        let mut salt = crate::batch::Fnv::new();
        salt.push(1);
        salt.push(parts.len() as u64);
        for (id, (part, entry)) in parts.iter().zip(&m.entries).enumerate() {
            if entry.id != id as u64 || entry.docs != *part {
                return Err(invalid("shard manifest entry does not match the partition"));
            }
            let (six, offset) = build_shard_index(ix, part)?;
            if six.tree().len() != entry.nodes || six.vocab_size() != entry.vocab {
                return Err(invalid("shard manifest spans do not match the corpus"));
            }
            let path = dir.join(shard_dir_name(id as u32)).join(STORE_FILE);
            let store = DiskColumnStore::open_with_cache(&path, Arc::clone(&cache))?;
            if store.term_names().len() != six.vocab_size() {
                return Err(invalid("shard store does not match its index"));
            }
            salt.push(id as u64);
            salt.push(part.start as u64);
            salt.push(part.end as u64);
            shards.push(Shard { ix: six, store, offset });
        }
        let planner = crate::plan::cache::Planner::from_index(ix);
        Ok(Self { ix, shards, parallelism: Parallelism::Serial, prune: true, salt: salt.0, planner })
    }

    /// The planner this engine serves specs from.
    pub fn planner(&self) -> &crate::plan::cache::Planner {
        &self.planner
    }

    /// Sets the scatter fan-out across shards (builder style).  Inside a
    /// shard execution stays serial, so per-shard metrics and traces are
    /// deterministic; responses are bit-identical for every setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
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
        self.shards.len()
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
                shards: self.shards.len(),
                ta_prune: self.prune,
            },
        );
        ex.provenance =
            Some(self.planner.peek(query, req, self.ix.generation(), self.salt).as_str());
        ex
    }

    /// The term string of a global term id, if valid for this corpus.
    fn word(&self, t: TermId) -> Option<&str> {
        if (t.0 as usize) < self.ix.vocab_size() {
            Some(self.ix.term(t).name())
        } else {
            None
        }
    }

    /// Executes `local` inside one shard (serial), translating results
    /// back to global node ids and dropping level-1 partition artifacts.
    /// The physical spec is lowered once per query from the logical plan
    /// (against the global index) and shared by every shard.
    fn run_shard(
        &self,
        shard: &Shard,
        local: &Query,
        spec: &DiskJoinSpec,
        req: &QueryRequest,
    ) -> io::Result<ShardOutcome> {
        let obs = Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::for_level(req.trace),
        };
        let (rs, _, _) = join_search_disk_spec(&shard.ix, &shard.store, local, spec, &obs)?;
        let mut results = Vec::with_capacity(rs.len());
        for r in rs {
            if r.level <= 1 {
                continue;
            }
            results.push(ScoredResult {
                node: NodeId(shard.offset + r.node.0 - 1),
                level: r.level,
                score: r.score,
            });
        }
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

/// One scatter-plan slot: shard index, the query translated to the
/// shard's term ids, and the shard's TA score upper bound.
struct Planned {
    shard: usize,
    local: Query,
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
        let mut words = Vec::with_capacity(query.terms.len());
        for &t in &query.terms {
            let Some(w) = self.word(t) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "query term id out of range for the corpus index",
                ));
            };
            words.push(w);
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

        // Plan: translate the query per shard; a shard missing any term
        // cannot produce a conjunctive match and is skipped outright.
        // Eligible shards are ordered by their TA upper bound (sum of
        // per-term max occurrence scores; damping ≤ 1 keeps it an upper
        // bound on any result score), ties broken by shard id.
        let mut skipped = 0u64;
        let mut planned: Vec<Planned> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let mut local = Vec::with_capacity(words.len());
            let mut bound = 0.0f32;
            let mut eligible = true;
            for w in &words {
                match shard.ix.term_id(w) {
                    Some(tid) => {
                        bound += shard.ix.term(tid).max_score();
                        local.push(tid);
                    }
                    None => {
                        eligible = false;
                        break;
                    }
                }
            }
            if eligible {
                planned.push(Planned { shard: si, local: Query { terms: local }, bound });
            } else {
                skipped += 1;
            }
        }
        planned.sort_by(|a, b| b.bound.total_cmp(&a.bound).then(a.shard.cmp(&b.shard)));

        // Scatter-gather in fixed-size waves; stop when the next
        // unexecuted bound is strictly below the k-th candidate score.
        let mut candidates: Vec<ScoredResult> = Vec::new();
        let mut merged = MetricsRegistry::new().snapshot();
        let mut executed = 0u64;
        let mut pruned = 0u64;
        let mut waves = 0u64;
        let mut next = 0usize;
        while next < planned.len() {
            let end = (next + SCATTER_WAVE).min(planned.len());
            let wave = planned.get(next..end).unwrap_or(&[]);
            for p in wave {
                obs.event(EventKind::ShardScatter {
                    shard: p.shard as u32,
                    bound_bits: p.bound.to_bits(),
                });
            }
            let outcomes = parallel_map(self.parallelism, wave, |_, p| {
                match self.shards.get(p.shard) {
                    Some(shard) => self.run_shard(shard, &p.local, &spec, req),
                    None => Err(invalid("scatter plan shard out of range")),
                }
            });
            waves += 1;
            for (p, outcome) in wave.iter().zip(outcomes) {
                let out = outcome?;
                executed += 1;
                for ev in out.trace_events {
                    // Store ids are process-global open counters; replace
                    // them with the shard id so the merged trace is a pure
                    // function of the topology, not of open order.
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
            next = end;
            if self.prune && next < planned.len() {
                if let Some(k) = req.k {
                    sort_ranked(&mut candidates);
                    let kth = k.checked_sub(1).and_then(|i| candidates.get(i));
                    let dominated = match (kth, planned.get(next)) {
                        (Some(kth), Some(p)) => p.bound.total_cmp(&kth.score).is_lt(),
                        _ => false,
                    };
                    if dominated {
                        pruned = (planned.len() - next) as u64;
                        break;
                    }
                }
            }
        }
        obs.event(EventKind::ShardStop { executed, pruned, skipped });
        rank_top(&mut candidates, req.k);

        let driver = MetricsRegistry::new();
        driver.add("shard.shards", self.shards.len() as u64);
        driver.add("shard.eligible", planned.len() as u64);
        driver.add("shard.executed", executed);
        driver.add("shard.pruned", pruned);
        driver.add("shard.skipped", skipped);
        driver.add("shard.waves", waves);
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
        let mut pinned = 0u64;
        let mut local: Vec<TermId> = Vec::with_capacity(terms.len());
        for shard in &self.shards {
            local.clear();
            local.extend(
                terms.iter().filter_map(|&t| self.word(t).and_then(|w| shard.ix.term_id(w))),
            );
            pinned += prefetch_terms(&shard.ix, &shard.store, &local)?;
        }
        Ok(pinned)
    }

    fn release(&self, terms: &[TermId]) {
        let mut local: Vec<TermId> = Vec::with_capacity(terms.len());
        for shard in &self.shards {
            local.clear();
            local.extend(
                terms.iter().filter_map(|&t| self.word(t).and_then(|w| shard.ix.term_id(w))),
            );
            release_terms(&shard.ix, &shard.store, &local);
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
