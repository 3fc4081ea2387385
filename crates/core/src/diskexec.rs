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

use crate::joinbased::{algorithm1, ColumnSource, JoinOptions, JoinStats, KeywordRows};
use crate::query::Query;
use crate::result::ScoredResult;
use std::io;
use xtk_index::diskcol::{BlockFeed, DiskColumn, DiskColumnStore, IoSession};
use xtk_index::{Slice, XmlIndex};
use xtk_obs::{EventKind, Obs};

/// The physical access-path configuration the plan lowering hands the
/// disk executor (see `plan::lower`).
#[derive(Debug, Clone, Copy)]
pub struct DiskJoinSpec {
    /// Semantics, variant and scoring of the join.
    pub join: JoinOptions,
    /// Let join steps pass over the blocks no probe falls in (by the
    /// directory's `[first, last]` footers).  Off reproduces the plain
    /// full-scan join (the `push-probes` rule disabled).
    pub block_skip: bool,
    /// Decode every block of every level of every keyword before joining
    /// — the paper's §III-B whole-sequence strawman (the `prune-columns`
    /// rule disabled).  Results are unchanged; only I/O grows.
    pub prescan: bool,
}

/// The on-disk [`ColumnSource`]: lazily decoded [`DiskColumn`]s whose
/// accesses count toward one query's [`IoSession`], so concurrent queries
/// on a shared store cannot inflate each other's `store.*` deltas.  The
/// store holds a whole index (bases 0) or a [`Slice`](xtk_index::Slice)
/// of one (a shard).
pub struct DiskSource<'a> {
    store: &'a DiskColumnStore,
    session: &'a IoSession,
    /// Per keyword, in query order: its store term (`None` where the store
    /// lacks it) and the rows its columns must stay within.
    terms: Vec<(Option<usize>, KeywordRows<'a>)>,
    /// What the store holds of the index.
    slice: &'a Slice,
    /// The current level's column handles, in query order.
    cols: Vec<DiskColumn<'a>>,
    block_skip: bool,
    prescan: bool,
}

impl<'a> DiskSource<'a> {
    /// A source over `query`'s lists in a store of the whole of `ix`.
    pub fn new(
        ix: &'a XmlIndex,
        store: &'a DiskColumnStore,
        query: &Query,
        spec: &DiskJoinSpec,
        session: &'a IoSession,
    ) -> Self {
        static WHOLE: Slice = Slice::whole();
        let term = |t| (store.term_index(ix.term(t).name()), KeywordRows::of(ix.term(t)));
        Self::over(store, query.terms.iter().map(|&t| term(t)).collect(), &WHOLE, spec, session)
    }

    /// A source over store terms and their rows, in a store of `slice`.
    pub fn over(
        store: &'a DiskColumnStore,
        terms: Vec<(Option<usize>, KeywordRows<'a>)>,
        slice: &'a Slice,
        spec: &DiskJoinSpec,
        session: &'a IoSession,
    ) -> Self {
        let cols = Vec::with_capacity(terms.len());
        Self { store, session, terms, slice, cols, block_skip: spec.block_skip, prescan: spec.prescan }
    }
}

impl<'a> ColumnSource<'a> for DiskSource<'a> {
    type Error = io::Error;
    type Feed = BlockFeed<'a>;

    fn rows(&self, kw: usize) -> KeywordRows<'a> {
        self.terms.get(kw).map_or_else(KeywordRows::default, |t| t.1)
    }

    fn base(&self, level: u16) -> u32 {
        self.slice.base(level)
    }

    fn begin(&mut self) -> io::Result<()> {
        if self.prescan {
            // Whole-sequence materialization: every level of every keyword,
            // including the levels above `l0` the join never consumes.
            for t in self.terms.iter().filter_map(|t| t.0) {
                for l in 1..=self.store.term_levels(t) {
                    if let Some(col) = self.store.term_column(t, l) {
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
            // The rows say the term reaches `level`.
            let col = t.0.and_then(|t| self.store.term_column(t, level)).ok_or_else(|| {
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
    /// reaching past the keyword's rows — a store written from another
    /// corpus — is refused: scoring reads the rows' postings.
    fn feed(&self, kw: usize, step: bool) -> io::Result<BlockFeed<'a>> {
        let (Some(col), Some(term)) = (self.cols.get(kw), self.terms.get(kw)) else {
            return Err(io::Error::other("no column entered"));
        };
        Ok(col.feed(step && self.block_skip, term.1.postings.len()))
    }

    fn end(&self, obs: &Obs) {
        let io = self.session.stats();
        obs.event(EventKind::StoreIo { store: self.store.store_id() as u32, decodes: io.decodes });
        io.publish(&obs.metrics);
    }
}

/// Runs Algorithm 1 against an on-disk columnar index: `ix` supplies the
/// document tree and the scoring data, the lists are read from `store`,
/// with `block_skip` on and `prescan` off — the optimized pipeline.
/// Returns the results, the join statistics and the number of
/// cache-missing block decodes.  I/O errors and corrupt blocks surface as
/// `Err` instead of panicking.
pub fn join_search_disk(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    opts: &JoinOptions,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let spec = DiskJoinSpec { join: *opts, block_skip: true, prescan: false };
    join_search_disk_spec(ix, store, query, &spec, &Obs::default())
}

/// [`join_search_disk`] with the full access-path spec and observability:
/// the `join.*` counters and level/step events of the in-memory executor,
/// plus the per-query I/O delta under `store.*` and one `store_io` event.
/// Results are bit-identical across every spec; only the I/O counters
/// move.
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
