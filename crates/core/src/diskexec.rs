//! Disk-resident columns for Algorithm 1 (paper §III-B: "Algorithm 1 is
//! I/O optimized ... the algorithm does not read the whole JDewey
//! sequences from the disk at once").
//!
//! [`DiskSource`] is the [`ColumnSource`] over a [`DiskColumnStore`]; the
//! join itself is [`algorithm1`], shared with the in-memory columns.  Per
//! level the driving (smallest) column is read whole; under `block_skip`
//! a larger column is read through a cursor over its block directory that
//! fetches a block only when a lookup lands in its `[first, last]` value
//! range, without it every block in order.  The loop
//! starts at `l_0 = min_i l_m^i`, so the leaf-most blocks of deeper lists
//! are never touched.

use crate::joinbased::{algorithm1, ColumnSource, JoinOptions, JoinStats};
use crate::query::Query;
use crate::result::ScoredResult;
use std::io;
use xtk_index::diskcol::{BlockFeed, DiskColumn, DiskColumnStore, IoSession};
use xtk_index::{TermData, TermId, XmlIndex};
use xtk_obs::{EventKind, Obs};

/// The physical access-path configuration the plan lowering hands the
/// disk executor (see `plan::lower`).
#[derive(Debug, Clone, Copy)]
pub struct DiskJoinSpec {
    /// Semantics, variant and scoring of the join.
    pub join: JoinOptions,
    /// Let join steps pass over the blocks no probe falls in (by the v2/v3
    /// `[first, last]` footers; on v1 a step stops at the first block above
    /// its last probe).  Off reproduces the plain full-scan join (the
    /// `push-probes` rule disabled).
    pub block_skip: bool,
    /// Decode every block of every level of every keyword before joining
    /// — the paper's §III-B whole-sequence strawman (the `prune-columns`
    /// rule disabled).  Results are unchanged; only I/O grows.
    pub prescan: bool,
}

/// The on-disk [`ColumnSource`]: lazily decoded [`DiskColumn`]s whose
/// accesses count toward one query's [`IoSession`], so concurrent queries
/// on a shared store cannot inflate each other's `store.*` deltas.
pub struct DiskSource<'a> {
    store: &'a DiskColumnStore,
    session: &'a IoSession,
    /// The index's lists, in query order: the store is keyed by their
    /// text and must stay within their rows.
    terms: Vec<&'a TermData>,
    /// The current level's column handles, in query order.
    cols: Vec<DiskColumn<'a>>,
    block_skip: bool,
    prescan: bool,
}

impl<'a> DiskSource<'a> {
    /// A source over `query`'s lists in `store` (keyed by term text).
    pub fn new(
        ix: &'a XmlIndex,
        store: &'a DiskColumnStore,
        query: &Query,
        spec: &DiskJoinSpec,
        session: &'a IoSession,
    ) -> Self {
        let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
        let cols = Vec::with_capacity(terms.len());
        Self { store, session, terms, cols, block_skip: spec.block_skip, prescan: spec.prescan }
    }
}

impl<'a> ColumnSource for DiskSource<'a> {
    type Error = io::Error;
    type Feed = BlockFeed<'a>;

    fn begin(&mut self) -> io::Result<()> {
        if self.prescan {
            // Whole-sequence materialization: every level of every keyword,
            // including the levels above `l0` the join never consumes.
            for t in &self.terms {
                for l in 1..=self.store.levels_of(&t.term) {
                    if let Some(col) = self.store.column(&t.term, l) {
                        col.scoped(self.session).scan()?;
                    }
                }
            }
        }
        Ok(())
    }

    fn enter(&mut self, level: u16) -> io::Result<()> {
        self.cols.clear();
        for t in &self.terms {
            // The index directory says the term reaches `level`.
            let col = self.store.column(&t.term, level).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "store lacks a column the index lists")
            })?;
            self.cols.push(col.scoped(self.session));
        }
        Ok(())
    }

    /// Present rows at the level (the directory's lengths array).
    fn size(&self, kw: usize) -> usize {
        self.cols.get(kw).map_or(0, |c| c.row_count())
    }

    /// Under `block_skip` a join step lands only the blocks a probe falls
    /// in; the driver and the plain join read every block.  A block
    /// reaching past the index's posting list — a store written from
    /// another corpus — is refused: the driver scores by row.
    fn feed(&self, kw: usize, step: bool) -> io::Result<BlockFeed<'a>> {
        let (Some(col), Some(term)) = (self.cols.get(kw), self.terms.get(kw)) else {
            return Err(io::Error::other("no column entered"));
        };
        Ok(col.feed(step && self.block_skip, term.len()))
    }

    fn end(&self, obs: &Obs) {
        let io = self.session.stats();
        obs.event(EventKind::StoreIo { store: self.store.store_id() as u32, decodes: io.decodes });
        io.publish(&obs.metrics);
    }
}

/// Runs Algorithm 1 against an on-disk columnar index: `ix` supplies the
/// document tree and the scoring data, the lists are read from `store`.
/// Returns the results, the join statistics and the number of
/// cache-missing block decodes.  I/O errors and corrupt blocks surface as
/// `Err` instead of panicking.
pub fn join_search_disk(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    opts: &JoinOptions,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    join_search_disk_obs(ix, store, query, opts, &Obs::default())
}

/// [`join_search_disk`] with observability: the `join.*` counters and
/// level/step events of the in-memory executor, plus the per-query I/O
/// delta under `store.*` and one `store_io` event, with `block_skip` on
/// and `prescan` off — the optimized pipeline.
pub fn join_search_disk_obs(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    opts: &JoinOptions,
    obs: &Obs,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let spec = DiskJoinSpec { join: *opts, block_skip: true, prescan: false };
    join_search_disk_spec(ix, store, query, &spec, obs)
}

/// [`join_search_disk_obs`] with the full access-path spec.  Results are
/// bit-identical across every spec; only the I/O counters move.
pub fn join_search_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    spec: &DiskJoinSpec,
    obs: &Obs,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let session = IoSession::default();
    let mut src = DiskSource::new(ix, store, query, spec, &session);
    let (results, stats) = algorithm1(ix, query, &spec.join, &mut src, obs)?;
    Ok((results, stats, session.stats().decodes))
}

/// The cross-query prefetch pass: warms and pins every column block of the
/// given terms (a batch passes the union of its distinct queries' terms)
/// so execution cannot evict its own working set.  Returns the number of
/// blocks pinned.  Balance with [`release_terms`].
pub fn prefetch_terms(ix: &XmlIndex, store: &DiskColumnStore, terms: &[TermId]) -> io::Result<u64> {
    let mut pinned = 0u64;
    for &t in terms {
        pinned += store.prefetch_term(&ix.term(t).term)?;
    }
    Ok(pinned)
}

/// Releases the pins taken by [`prefetch_terms`] (same term set).
pub fn release_terms(ix: &XmlIndex, store: &DiskColumnStore, terms: &[TermId]) {
    for &t in terms {
        store.unpin_term(&ix.term(t).term);
    }
}
