//! Disk-resident columns for Algorithm 1 (paper §III-B: "Algorithm 1 is
//! I/O optimized ... the algorithm does not read the whole JDewey
//! sequences from the disk at once").
//!
//! [`DiskSource`] is the [`ColumnSource`] over a [`DiskColumnStore`]; the
//! join itself is [`algorithm1`], shared with the in-memory columns.  Per
//! level the driving (smallest) column is read whole; every larger column
//! is read through a cursor over its block directory that fetches a block
//! only when a lookup lands in its `[first, last]` value range.  The loop
//! starts at `l_0 = min_i l_m^i`, so the leaf-most blocks of deeper lists
//! are never touched.

use crate::joinbased::{algorithm1, ColumnSource, JoinOptions, JoinStats, KeywordRows};
use crate::query::Query;
use crate::result::ScoredResult;
use std::io;
use xtk_index::diskcol::{BlockFeed, DiskColumn, DiskColumnStore, IoSession};
use xtk_index::XmlIndex;
use xtk_obs::{EventKind, Obs};

/// The on-disk [`ColumnSource`]: lazily decoded [`DiskColumn`]s whose
/// accesses count toward one query's [`IoSession`], so concurrent queries
/// on a shared store cannot inflate each other's `store.*` deltas.
pub struct DiskSource<'a> {
    store: &'a DiskColumnStore,
    session: &'a IoSession,
    /// Per keyword, in query order: its store term (`None` where the store
    /// lacks it) and the rows its columns address.
    terms: Vec<(Option<usize>, KeywordRows<'a>)>,
    /// The shallowest level read: 1, or 2 to leave out the corpus root.
    floor: u16,
    /// The current level's column handles, in query order.
    cols: Vec<DiskColumn<'a>>,
}

impl<'a> DiskSource<'a> {
    /// A source over `query`'s lists in a store of the whole of `ix`,
    /// read from level `floor` down.
    pub fn new(
        ix: &'a XmlIndex,
        store: &'a DiskColumnStore,
        query: &Query,
        floor: u16,
        session: &'a IoSession,
    ) -> Self {
        let term = |t| (store.term_index(ix.term(t).name()), KeywordRows::of(ix.term(t)));
        let terms = query.terms.iter().map(|&t| term(t)).collect::<Vec<_>>();
        let cols = Vec::with_capacity(terms.len());
        Self { store, session, terms, floor, cols }
    }
}

impl<'a> ColumnSource<'a> for DiskSource<'a> {
    type Error = io::Error;
    type Feed = BlockFeed<'a>;

    fn rows(&self, kw: usize) -> KeywordRows<'a> {
        self.terms.get(kw).map_or_else(KeywordRows::default, |t| t.1)
    }

    fn floor(&self) -> u16 {
        self.floor
    }

    fn enter(&mut self, level: u16) -> io::Result<()> {
        self.cols.clear();
        for &(term, _) in &self.terms {
            // The rows say the term reaches `level`.
            let col = term.and_then(|t| self.store.term_column(t, level)).ok_or_else(|| {
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

    /// A join step lands only the blocks a probe falls in; the driver
    /// reads every block.  A block
    /// reaching past the keyword's rows — a store written from another
    /// corpus — is refused: scoring reads the rows' postings.
    fn feed(&self, kw: usize, step: bool) -> io::Result<BlockFeed<'a>> {
        let (Some(col), Some(term)) = (self.cols.get(kw), self.terms.get(kw)) else {
            return Err(io::Error::other("no column entered"));
        };
        Ok(col.feed(step, term.1.postings.len()))
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
    join_search_disk_spec(ix, store, query, opts, &Obs::default())
}

/// [`join_search_disk`] with observability: the `join.*` counters and
/// level/step events of the in-memory executor, plus the per-query I/O
/// delta under `store.*` and one `store_io` event.
pub fn join_search_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    opts: &JoinOptions,
    obs: &Obs,
) -> io::Result<(Vec<ScoredResult>, JoinStats, u64)> {
    let session = IoSession::default();
    let mut src = DiskSource::new(ix, store, query, 1, &session);
    let (results, stats) = algorithm1(ix, query, opts, &mut src, obs)?;
    Ok((results, stats, session.stats().decodes))
}
