//! The sharded serving engine: one Algorithm-1 pass over one store
//! that leaves out the corpus root.
//!
//! A sharded directory holds the corpus column store and nothing else:
//!
//! ```text
//! <dir>/index.bin   # the corpus column store, as `write_index` writes it
//! ```
//!
//! [`ShardedEngine`] opens it beside the corpus index and answers a
//! request exactly as [`DiskEngine`](crate::DiskEngine) does — the
//! complete join over a [`DiskSource`](crate::diskexec::DiskSource),
//! ranked and cut at `k` — except that the level loop stops at level 2.
//! JDewey numbers are unique per level (§III-A), so below the root one
//! pass already separates the documents (the root's children); the
//! root's own results, the cross-document LCAs, are the one thing left
//! out.  A response is the in-memory complete join's minus its level-1
//! results, bit for bit.
//!
//! A "shard" was once a document range of the store, run one after
//! another with a sum-of-max-scores stop test between them; the test
//! never pruned on the serving workload and the ranges cost a quarter of
//! its throughput, so they went (DESIGN §11).  [`write_sharded_with`]
//! keeps its shard-count argument, ignored, for its existing callers.

use crate::query::Query;
use crate::request::{Executor, QueryRequest, QueryResponse};
use std::io;
use std::path::Path;
use std::sync::Arc;
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::disk::{write_index, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

/// The corpus store's file name inside a sharded-corpus directory.
pub const STORE_FILE: &str = "index.bin";

/// Directory name of shard `id` in the version 1 and 2 layouts, which
/// wrote one store per shard; no directory written today has one.
pub fn shard_dir_name(id: u32) -> String {
    format!("shard-{id:04}")
}

/// Writes the sharded directory `dir` of `ix`: the corpus column store
/// `index.bin`, scores included, and returns its size in bytes.
/// `shards` is ignored (see the module docs).
pub fn write_sharded(ix: &XmlIndex, dir: &Path, shards: usize) -> io::Result<u64> {
    write_sharded_with(
        ix,
        dir,
        shards,
        WriteIndexOptions { include_scores: true, ..Default::default() },
    )
}

/// [`write_sharded`] with explicit [`WriteIndexOptions`]: `<dir>/index.bin`
/// is byte for byte the file [`write_index`] writes with them.  `shards`
/// is ignored.  `include_scores` only sizes the file: the scores the
/// engine ranks by are the corpus index's.
pub fn write_sharded_with(
    ix: &XmlIndex,
    dir: &Path,
    _shards: usize,
    options: WriteIndexOptions,
) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    write_index(ix, &dir.join(STORE_FILE), options)
}

/// The one open check of the store: it holds every corpus term, at the
/// term's [`TermId`](xtk_index::TermId), with the term's levels and
/// level-1 row count — the store [`write_index`] writes of `ix`.
fn check_store(ix: &XmlIndex, store: &DiskColumnStore) -> io::Result<()> {
    for (id, t) in ix.terms() {
        let st = id.0 as usize;
        let rows = store.term_column(st, 1).map_or(0, |c| c.row_count());
        let held = store.term_index(t.name()) == Some(st) && store.term_levels(st) == t.max_len();
        if !held || rows != t.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shard store does not match the corpus index",
            ));
        }
    }
    Ok(())
}

/// The executor over a sharded corpus directory.
///
/// Implements [`Executor`], so [`run_batch`](crate::batch::run_batch),
/// [`BatchExecutor`](crate::batch::BatchExecutor), result caching,
/// `--trace` and the metrics pipeline all work unchanged.  Supports
/// [`QueryAlgorithm::Auto`] and [`QueryAlgorithm::JoinBased`] with
/// ranked scores; unranked requests, the stack baseline and the star
/// join return [`io::ErrorKind::Unsupported`].
pub struct ShardedEngine<'a> {
    ix: &'a XmlIndex,
    store: DiskColumnStore,
    planner: crate::plan::cache::Planner,
}

impl std::fmt::Debug for ShardedEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine").field("store", &self.store.store_id()).finish()
    }
}

impl<'a> ShardedEngine<'a> {
    /// Opens a sharded corpus written by [`write_sharded`] with a fresh
    /// unbounded block cache.
    pub fn open(ix: &'a XmlIndex, dir: &Path) -> io::Result<Self> {
        Self::open_with_cache(ix, dir, Arc::new(ShardedLruCache::unbounded()))
    }

    /// Opens a sharded corpus with an explicit [`BlockCache`] for its
    /// store (shared with other stores, their keys never collide: each
    /// opened store draws a distinct store id).  A missing or garbled
    /// store, or one that is not the corpus index's, returns `Err`
    /// (never a panic).
    pub fn open_with_cache(
        ix: &'a XmlIndex,
        dir: &Path,
        cache: Arc<dyn BlockCache>,
    ) -> io::Result<Self> {
        let store = DiskColumnStore::open_with_cache(&dir.join(STORE_FILE), cache)?;
        check_store(ix, &store)?;
        let planner = crate::plan::cache::Planner::from_index(ix);
        Ok(Self { ix, store, planner })
    }

    /// The planner this engine serves specs from.
    pub fn planner(&self) -> &crate::plan::cache::Planner {
        &self.planner
    }
}

impl Executor for ShardedEngine<'_> {
    fn execute(&self, query: &Query, req: &QueryRequest) -> io::Result<QueryResponse> {
        let target = crate::plan::ExplainTarget::Sharded;
        crate::plan::lower::refuse(req, target)?;
        if query.terms.iter().any(|t| t.0 as usize >= self.ix.vocab_size()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "query term id out of range for the corpus index",
            ));
        }
        let (spec, _) = self.planner.spec_for(self.ix, query, req, self.ix.generation(), 0);
        let floor = target.floor();
        crate::plan::lower::execute_disk_spec(self.ix, &self.store, query, req, spec, floor)
    }

    fn generation(&self) -> u64 {
        self.ix.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Semantics;
    use crate::request::QueryAlgorithm;
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
    fn sharded_matches_filtered_unsharded() {
        let ix = corpus();
        let dir = tmp("match");
        write_sharded(&ix, &dir, 3).unwrap();
        let engine = ShardedEngine::open(&ix, &dir).unwrap();
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
}
