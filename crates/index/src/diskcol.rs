//! Disk-resident column access (paper §III-B, §V).
//!
//! The paper stores the inverted lists "directly on the disk" and runs on
//! a hot cache; crucially, Algorithm 1 "does not read the whole JDewey
//! sequences from the disk at once" — it touches one column at a time,
//! starting from `l_0 = min l_m^i`, and within a column the index join
//! touches only the blocks the sparse index points at.
//!
//! [`DiskColumnStore`] provides exactly that access pattern over the file
//! written by [`crate::disk::write_index`]: per term and level it exposes
//! a [`DiskColumn`], read through one forward position over its block
//! directory ([`BlockFeed`]) that decodes a block only when a lookup lands
//! in it — `find` decodes **at most one block** (located via the block
//! directory alone), `scan` every block in order, and a join step's
//! cursor the blocks its probes reach.  A term of the Zipf tail, stored
//! as one inline record, reads as columns of one block each.
//!
//! Decoded blocks live in a shared, thread-safe [`BlockCache`]
//! (see [`crate::cache`]): by default an unbounded one per store — the
//! paper's hot-cache regime — but [`DiskColumnStore::open_with_cache`]
//! lets several stores and all `Parallelism` workers share one bounded
//! LRU.  The store itself is `Sync`: the file image is an immutable
//! [`ColumnBytes`] sliced zero-copy per block (no seeks, no per-block
//! read buffer), cold decodes run through the per-thread
//! [`DecodeScratch`](crate::codec::DecodeScratch) arena behind a small
//! decode lock that keeps the decode-once discipline, and the counters
//! are atomic — so parallel executors can probe one store from many
//! workers without duplicating decodes.

use crate::bytes::ColumnBytes;
use crate::cache::{Block, BlockCache, CacheStats, ShardedLruCache};
use crate::codec::{decode_block_into, with_decode_scratch, DecodeScratch};
use crate::columnar::{gallop_partition_point, Feed, Run, RunCursor};
use crate::disk::{bad, parse_directory, ColumnDirectory, Directory, InlineColumn};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xtk_obs::locks::{lock, LockRank};

/// Distinguishes stores sharing one cache (see `block_key`).
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-store I/O accounting, attributed to *this* store even when the
/// block cache is shared across stores (the shared [`CacheStats`]
/// conflates every store touching the cache; these counters do not).
///
/// One logical block access counts exactly once: a lookup that finds the
/// block — on the first probe or on the double-checked probe under the
/// decode lock — is a `hit`, anything else is a `miss` followed by one
/// decode, so `misses == decodes` always.  Under an unbounded cache the
/// counts are parallelism-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that required a decode (`== decodes`).
    pub misses: u64,
    /// Blocks decoded from disk by this store.
    pub decodes: u64,
}

impl StoreIoStats {
    /// Component-wise `self - earlier`, for per-query deltas.
    pub fn since(&self, earlier: &StoreIoStats) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            decodes: self.decodes.saturating_sub(earlier.decodes),
        }
    }

    /// Publishes the counters into a [`MetricsRegistry`](xtk_obs::MetricsRegistry)
    /// under the `store.*` names (add-semantics).
    pub fn publish(&self, metrics: &xtk_obs::MetricsRegistry) {
        metrics.add("store.cache_hits", self.hits);
        metrics.add("store.cache_misses", self.misses);
        metrics.add("store.decodes", self.decodes);
    }
}

/// A per-query I/O counting scope.
///
/// The store's own counters are process-lifetime totals; a "per-query
/// delta" read off them (`io_stats` before/after) silently absorbs the
/// accesses of every *other* query running on the store in the same
/// window — exactly what happens when a batch executes distinct queries
/// in parallel.  A session is instead handed to the column handles of
/// one query ([`DiskColumn::scoped`]) and counts only the accesses made
/// through them, so concurrent queries cannot contaminate each other's
/// numbers.  (The counters are atomics because the column handles hold
/// the session by shared reference; one query counts on one thread.)
///
/// With one query on the store at a time a session counts the same
/// increments as the global delta did, bit for bit.
#[derive(Debug, Default)]
pub struct IoSession {
    hits: AtomicU64,
    misses: AtomicU64,
    decodes: AtomicU64,
}

impl IoSession {
    /// Snapshot of the accesses counted by this session so far.
    pub fn stats(&self) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
        }
    }
}

/// A read-only, block-granular, thread-safe view of a columnar index file.
#[derive(Debug)]
pub struct DiskColumnStore {
    /// Resident file image; every cold block decode slices it zero-copy.
    bytes: ColumnBytes,
    /// Serializes cold decodes so concurrent workers missing on the same
    /// block decode it exactly once (the double-checked `peek` below).
    /// It guards the decode-once *discipline*, not the bytes — those are
    /// immutable and read without locking.
    decode_lock: Mutex<()>,
    dir: Directory,
    cache: Arc<dyn BlockCache>,
    /// Cache-missing block decodes performed by this store.
    decodes: AtomicU64,
    /// Block lookups served from the cache for this store.
    hits: AtomicU64,
    /// Block lookups that required a decode by this store.
    misses: AtomicU64,
    /// Disambiguates cache keys when several stores share one cache.
    store_id: u64,
}

impl DiskColumnStore {
    /// Opens an index file with a private unbounded cache — the paper's
    /// hot-cache regime, where every block decodes at most once.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with_cache(path, Arc::new(ShardedLruCache::unbounded()))
    }

    /// Opens an index file backed by the given block cache.  Pass the same
    /// `Arc` to several stores (or executors) to share one bounded budget;
    /// keys never collide across stores.
    pub fn open_with_cache(path: &Path, cache: Arc<dyn BlockCache>) -> io::Result<Self> {
        Self::open_bytes(ColumnBytes::from_file(path)?, cache)
    }

    /// Opens a store over an already-resident file image — the zero-copy
    /// entry point: the same [`ColumnBytes::Shared`] buffer can back any
    /// number of stores without duplicating the payload.
    pub fn open_bytes(bytes: ColumnBytes, cache: Arc<dyn BlockCache>) -> io::Result<Self> {
        Ok(Self {
            dir: parse_directory(bytes.as_slice())?,
            bytes,
            decode_lock: Mutex::new(()),
            cache,
            decodes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The terms available in the store, in sorted order (the backing map
    /// is hashed, so sorting keeps every listing deterministic).
    pub fn term_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.dir.names().collect();
        names.sort_unstable();
        names
    }

    /// The index of `term` in the store: the key of the `term_*` accessors.
    pub fn term_index(&self, term: &str) -> Option<usize> {
        self.dir.term(term)
    }

    /// Number of levels stored for `term` (0 when absent).
    pub fn levels_of(&self, term: &str) -> u16 {
        self.term_index(term).map_or(0, |t| self.term_levels(t))
    }

    /// Number of levels stored for store term `t`.
    pub fn term_levels(&self, t: usize) -> u16 {
        self.dir.levels(t)
    }

    /// A lazy view over one term's column.
    pub fn column(&self, term: &str, level: u16) -> Option<DiskColumn<'_>> {
        self.term_column(self.term_index(term)?, level)
    }

    /// A lazy view over store term `t`'s column of `level`.
    pub fn term_column(&self, t: usize, level: u16) -> Option<DiskColumn<'_>> {
        let lists = match self.dir.inline_term(self.bytes.as_slice(), t) {
            Some(term) => Lists::Inline(term.column(level)?),
            None => {
                let cols = self.dir.columns(t);
                let c = cols.start + usize::from(level.checked_sub(1)?);
                Lists::Blocks(self.dir.column(c).filter(|_| c < cols.end)?)
            }
        };
        Some(DiskColumn { store: self, lists, session: None })
    }

    /// Lazy views over every column of `term`, level 1 first (none when
    /// absent).
    pub fn columns(&self, term: &str) -> impl Iterator<Item = DiskColumn<'_>> {
        self.term_columns(self.term_index(term).unwrap_or(usize::MAX))
    }

    /// [`columns`](Self::columns) of store term `t`: an inline term's
    /// from one walk over its record.
    fn term_columns(&self, t: usize) -> impl Iterator<Item = DiskColumn<'_>> {
        let blocks = self.dir.columns(t).filter_map(|c| self.dir.column(c)).map(Lists::Blocks);
        let inline = self.dir.inline_term(self.bytes.as_slice(), t);
        let inline = inline.into_iter().flat_map(|term| term.columns()).map(Lists::Inline);
        blocks.chain(inline).map(|lists| DiskColumn { store: self, lists, session: None })
    }

    /// Total cache-missing block decodes performed by this store.
    pub fn reads(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Per-store I/O counters (see [`StoreIoStats`] for the attribution
    /// rules).  Unlike [`cache_stats`](Self::cache_stats) these never mix
    /// in accesses made by other stores sharing the cache.
    pub fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
        }
    }

    /// The id salting this store's cache keys; also used to label
    /// per-store trace events.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// Counters of the backing block cache (shared counters when the
    /// cache is shared).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The backing cache, for sharing with further stores.
    pub fn shared_cache(&self) -> Arc<dyn BlockCache> {
        Arc::clone(&self.cache)
    }

    /// Cache key for the block starting at file offset `start`: offsets
    /// identify blocks within a file, the store id separates files.
    fn block_key(&self, start: u64) -> u64 {
        (self.store_id << 48) ^ start
    }

    /// One cache-served block lookup: counted in the store totals and,
    /// when the access happens inside a query scope, in its session.
    fn count_hit(&self, session: Option<&IoSession>) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = session {
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One cold block lookup (miss + decode), same dual attribution.
    fn count_miss(&self, session: Option<&IoSession>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.decodes.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = session {
            s.misses.fetch_add(1, Ordering::Relaxed);
            s.decodes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lands block `b` of `lists` (cache-aware): one access, and on a miss
    /// one decode.  A column's block is its payload slice decoded with the
    /// rows its directory entry covers; an inline column's one block is
    /// its level of the record.
    ///
    /// The block bytes are a zero-copy slice of the resident file image,
    /// decoded through the per-thread scratch arena and frozen into the
    /// cached `Arc<[Run]>` only once finished.  The decode lock is held
    /// across decode + insert, so concurrent workers missing on the same
    /// block decode it exactly once — `reads()` stays deterministic under
    /// an unbounded cache no matter the worker count.
    fn land_block(
        &self,
        lists: &Lists<'_>,
        b: usize,
        session: Option<&IoSession>,
    ) -> io::Result<Block> {
        let start = match lists {
            Lists::Blocks(meta) => meta.start(b),
            Lists::Inline(col) => (b == 0).then(|| col.key()),
        };
        let key = self.block_key(start.ok_or_else(|| bad("block index out of range"))?);
        if let Some(runs) = self.cache.get(key) {
            self.count_hit(session);
            return Ok(runs);
        }
        let _decode = lock(&self.decode_lock, LockRank::DecodeTicket);
        // Double-check: another worker may have decoded this block while
        // we waited for the decode lock.  `peek` so the shared cache does
        // not count the same logical access twice.
        if let Some(runs) = self.cache.peek(key) {
            self.count_hit(session);
            return Ok(runs);
        }
        self.count_miss(session);
        let block: Block = with_decode_scratch(|scratch| {
            scratch.runs.clear();
            match lists {
                Lists::Blocks(meta) => self.decode_payload(meta, b, scratch),
                Lists::Inline(col) => col.decode_into(scratch),
            }
            .map(|()| Block::from(scratch.runs.as_slice()))
        })?;
        self.cache.insert(key, Arc::clone(&block));
        Ok(block)
    }

    /// Decodes block `b`'s payload into `scratch.runs`; the rows it covers
    /// come from the directory's row prefix in O(1), its first and last
    /// value from the directory entry.
    fn decode_payload(
        &self,
        meta: &ColumnDirectory<'_>,
        b: usize,
        scratch: &mut DecodeScratch,
    ) -> io::Result<()> {
        let (Some(start), Some(&first), Some(&last)) =
            (meta.start(b), meta.firsts.get(b), meta.lasts.get(b))
        else {
            return Err(bad("block index out of range"));
        };
        let end = meta.start(b + 1).unwrap_or(meta.end);
        let len = end.checked_sub(start).ok_or_else(|| bad("block offsets not ascending"))?;
        let len = usize::try_from(len).map_err(|_| bad("block length overflow"))?;
        let block_bytes = self.bytes.slice(start, len).ok_or_else(|| bad("block beyond file"))?;
        // The directory says which rows the block covers; a payload that
        // decodes to another count is as corrupt as one that does not
        // decode.
        let Some(&[row_base, row_end]) = meta.row_at.get(b..b + 2) else {
            return Err(bad("row prefix out of range"));
        };
        let rows = meta
            .present_rows
            .get(row_base as usize..row_end as usize)
            .ok_or_else(|| bad("block rows beyond lengths array"))?;
        decode_block_into(meta.scheme, (first, last), block_bytes, rows, scratch)
            .ok_or_else(|| bad("inconsistent block payload"))
    }
}

/// What a column reads from: its block directory, or — for a term stored
/// inline — one level of the term's record, which answers as a column of
/// one block would.
#[derive(Clone, Copy)]
enum Lists<'a> {
    Blocks(ColumnDirectory<'a>),
    Inline(InlineColumn<'a>),
}

impl Lists<'_> {
    /// Per block, its last and its first value.
    fn bounds(&self) -> (&[u32], &[u32]) {
        match self {
            Lists::Blocks(meta) => (meta.lasts, meta.firsts),
            Lists::Inline(col) => (std::slice::from_ref(&col.last), std::slice::from_ref(&col.first)),
        }
    }
}

/// Lazy view over one on-disk column.
#[derive(Clone, Copy)]
pub struct DiskColumn<'a> {
    store: &'a DiskColumnStore,
    lists: Lists<'a>,
    /// Query scope the accesses through this handle are attributed to
    /// (besides the store totals); `None` outside query execution.
    session: Option<&'a IoSession>,
}

impl<'a> DiskColumn<'a> {
    /// Attributes every access through this handle to `session` (in
    /// addition to the store totals) — one session per query execution
    /// keeps per-query I/O deltas exact even when several queries run on
    /// the store concurrently.
    pub fn scoped(mut self, session: &'a IoSession) -> DiskColumn<'a> {
        self.session = Some(session);
        self
    }

    /// Number of blocks (1 for an inline column).
    pub fn block_count(&self) -> usize {
        self.lists.bounds().1.len()
    }

    /// Rows present at this level.
    pub fn row_count(&self) -> usize {
        match &self.lists {
            Lists::Blocks(meta) => meta.present_rows.len(),
            Lists::Inline(col) => col.rows as usize,
        }
    }

    /// The `[first, last]` JDewey value range this column covers, read
    /// from the directory (or the inline record) without decoding
    /// anything.  `None` for empty columns.
    pub fn value_span(&self) -> Option<(u32, u32)> {
        let (lasts, firsts) = self.lists.bounds();
        Some((*firsts.first()?, *lasts.last()?))
    }

    /// A forward position at the column's first block — the one access
    /// path; [`scan`](Self::scan), [`find`](Self::find) and the join's
    /// cursors are all reads through it.  With `skip` it lands only blocks
    /// whose `[first, last]` value range holds the value looked up;
    /// without, every block in order.  `rows` is the reader's posting-list
    /// length: a block reaching past it is refused.
    pub fn feed(&self, skip: bool, rows: usize) -> BlockFeed<'a> {
        BlockFeed { col: *self, next: 0, skip, rows }
    }

    /// Decodes the whole column in block order.  Corrupt blocks surface as
    /// `InvalidData` errors.
    pub fn scan(&self) -> io::Result<Vec<Run>> {
        let mut out = Vec::new();
        let mut feed = self.feed(false, usize::MAX);
        while let Some(block) = feed.land(0)? {
            out.extend_from_slice(block.as_ref());
        }
        Ok(out)
    }

    /// Finds the run for a JDewey `value`, decoding **at most one block**:
    /// the block's row prefix comes from the directory in O(1), and a
    /// probe outside every block's `[first, last]` value range returns
    /// `None` without decoding anything.
    pub fn find(&self, value: u32) -> io::Result<Option<Run>> {
        RunCursor::new(self.feed(true, usize::MAX)).seek(value)
    }
}

/// A forward position over one column's block directory: the [`Feed`]
/// behind every disk access path.  A landed block is one cache access
/// (and at most one decode), whatever the number of lookups it serves.
pub struct BlockFeed<'a> {
    col: DiskColumn<'a>,
    /// The next block to land.
    next: usize,
    skip: bool,
    rows: usize,
}

/// The guard against a store that disagrees with its reader: readers
/// address postings and scores by row, so a block reaching past `rows`
/// (or past `u32`) is refused.  Runs ascend by row — the last bounds all.
fn check_rows(block: &[Run], rows: usize) -> io::Result<()> {
    match block.last().map(|last| last.start.checked_add(last.len)) {
        Some(Some(end)) if end as usize <= rows => Ok(()),
        None => Ok(()),
        Some(_) => Err(bad("column reaches past the reader's posting list")),
    }
}

impl Feed for BlockFeed<'_> {
    type Stretch = Block;
    type Error = io::Error;

    fn land(&mut self, v: u32) -> io::Result<Option<Block>> {
        let lists = &self.col.lists;
        let (lasts, firsts) = lists.bounds();
        if self.skip {
            // Blocks wholly below `v` are passed over undecoded.
            self.next = gallop_partition_point(lasts, self.next, |&last| last < v);
        }
        let Some(&first) = firsts.get(self.next) else {
            return Ok(None);
        };
        // Below the block's first value, `v` sits in the gap before it.
        if self.skip && v < first {
            return Ok(None);
        }
        let block = self.col.store.land_block(lists, self.next, self.col.session)?;
        check_rows(&block, self.rows)?;
        self.next += 1;
        Ok(Some(block))
    }

    fn finish(&mut self) -> io::Result<()> {
        while !self.skip && self.land(0)?.is_some() {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::XmlIndex;
    use crate::cache::CacheCapacity;
    use crate::disk::{write_index_to, WriteIndexOptions};
    use xtk_xml::parse;

    fn corpus() -> XmlIndex {
        let mut xml = String::from("<r>");
        for i in 0..500 {
            xml.push_str(&format!("<p><t>w{} shared</t></p>", i % 37));
        }
        xml.push_str("</r>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    /// The file `write_index` would produce, off the filesystem.
    fn image_of(ix: &XmlIndex, opts: WriteIndexOptions) -> Arc<[u8]> {
        let mut image = Vec::new();
        write_index_to(ix, &mut image, opts).unwrap();
        image.into()
    }

    fn open_image(image: &Arc<[u8]>, cache: Arc<dyn BlockCache>) -> DiskColumnStore {
        DiskColumnStore::open_bytes(ColumnBytes::from(Arc::clone(image)), cache).unwrap()
    }

    fn open_unbounded(image: &Arc<[u8]>) -> DiskColumnStore {
        open_image(image, Arc::new(ShardedLruCache::unbounded()))
    }

    fn store() -> (XmlIndex, DiskColumnStore, Arc<[u8]>) {
        let ix = corpus();
        let image = image_of(&ix, WriteIndexOptions { include_scores: true, ..Default::default() });
        let store = open_unbounded(&image);
        (ix, store, image)
    }

    /// `dense` in 50 000 `<p><t>` leaves, each `<t>` followed by a `<u/>`:
    /// its level-3 column is 50 000 one-row runs two numbers apart — a
    /// delta column of 2-bit lanes over four blocks.
    fn dense_corpus() -> XmlIndex {
        let mut xml = String::from("<r>");
        for _ in 0..50_000 {
            xml.push_str("<p><t>dense</t><u/></p>");
        }
        xml.push_str("</r>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    #[test]
    fn store_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<DiskColumnStore>();
    }

    #[test]
    fn scan_matches_in_memory_columns() {
        let (ix, store, _image) = store();
        for (_, term) in ix.terms() {
            for (li, col) in term.columns().enumerate() {
                let dc = store.column(term.name(), (li + 1) as u16).unwrap();
                assert_eq!(dc.scan().unwrap(), col.runs, "term {} level {}", term.name(), li + 1);
            }
        }
    }

    #[test]
    fn skipping_cursor_lands_only_blocks_that_hold_a_probe() {
        let ix = dense_corpus();
        let col = &ix.term_by_str("dense").unwrap().column(3).unwrap();
        let store = open_unbounded(&image_of(&ix, WriteIndexOptions::default()));
        let dc = store.column("dense", 3).unwrap();
        let blocks = dc.block_count() as u64;
        assert!(blocks > 2, "corpus must span several blocks");
        // Every 7th value plus misses between them: all blocks land,
        // each once, and every lookup answers as the memory column.
        let mut probes: Vec<u32> = col.runs.iter().step_by(7).map(|r| r.value).collect();
        probes.extend(col.runs.iter().step_by(11).map(|r| r.value + 1));
        probes.sort_unstable();
        probes.dedup();
        let mut cursor = RunCursor::new(dc.feed(true, usize::MAX));
        for &v in &probes {
            assert_eq!(cursor.seek(v).unwrap(), col.find(v).copied(), "{v}");
        }
        assert_eq!(store.io_stats().misses, blocks);
        assert_eq!(store.io_stats().hits, 0, "one access per landed block");
        // Only the last value: the directory jumps to its block.  Past
        // the end nothing more lands.
        let last = col.runs.last().unwrap();
        let before = store.io_stats();
        let mut cursor = RunCursor::new(dc.feed(true, usize::MAX));
        assert_eq!(cursor.seek(last.value).unwrap(), Some(*last));
        assert_eq!(cursor.seek(last.value + 1).unwrap(), None);
        cursor.finish().unwrap();
        assert_eq!(store.io_stats().since(&before).hits, 1);
        // A scanning cursor reads to the end of the column whatever
        // the probes.
        let before = store.io_stats();
        let mut cursor = RunCursor::new(dc.feed(false, usize::MAX));
        assert_eq!(cursor.seek(col.runs[0].value).unwrap(), Some(col.runs[0]));
        cursor.finish().unwrap();
        assert_eq!(store.io_stats().since(&before).hits, blocks);
    }

    #[test]
    fn block_past_the_readers_rows_is_refused_without_wrapping() {
        let run = |start, len| Run { value: 1, start, len };
        assert!(check_rows(&[], 0).is_ok());
        assert!(check_rows(&[run(0, 4), run(4, 6)], 10).is_ok());
        for (block, rows) in [
            (vec![run(0, 4), run(4, 7)], 10),
            // `start + len` wraps to 3: under any limit, were it not checked.
            (vec![run(u32::MAX - 1, 5)], usize::MAX),
            (vec![run(u32::MAX, 1)], usize::MAX),
        ] {
            let err = check_rows(&block, rows).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{block:?}");
        }
    }

    #[test]
    fn find_matches_in_memory_find() {
        let (ix, store, _image) = store();
        let term = ix.term_by_str("shared").unwrap();
        let dc = store.column("shared", 3).unwrap();
        for run in term.column(3).unwrap().runs {
            assert_eq!(dc.find(run.value).unwrap(), Some(*run));
        }
        assert_eq!(dc.find(999_999).unwrap(), None);
    }

    /// The run-straddling corpus (ROADMAP item 0b): 6 000 `<c>` nodes,
    /// every third holding one `<d>w</d>` and the others two, so `w`'s
    /// level-2 column has runs of one and two rows and still chooses
    /// delta; 600 empty siblings after every 64th spread the level-2
    /// numbers, so the lanes (10 bits a row) fill several blocks.  A
    /// cutter that ends a block by size alone cuts a run of this column
    /// in two, with or without a row count in the block header.
    fn straddling_corpus() -> XmlIndex {
        let mut xml = String::from("<r>");
        for i in 0..6000u32 {
            let leaves = if i % 3 == 0 { "<d>w</d>" } else { "<d>w</d><d>w</d>" };
            xml.push_str(&format!("<c>{leaves}</c>"));
            if i % 64 == 0 {
                xml.push_str(&"<x/>".repeat(600));
            }
        }
        xml.push_str("</r>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    #[test]
    fn run_cut_by_a_block_boundary_reads_row_for_row_as_the_memory_column() {
        // Delta blocks end at run boundaries, so the store hands back the
        // memory column run for run: `scan` equals it, and `find` returns
        // each whole run.
        let ix = straddling_corpus();
        let col = &ix.term_by_str("w").unwrap().column(2).unwrap();
        assert_eq!(crate::codec::choose_scheme(col.runs), crate::codec::Scheme::Delta);
        assert!(col.runs.iter().any(|r| r.len > 1), "the column has multi-row runs");
        let store = open_unbounded(&image_of(&ix, WriteIndexOptions::default()));
        let dc = store.column("w", 2).unwrap();
        assert!(dc.block_count() > 1, "the column spans several blocks");
        assert_eq!(dc.scan().unwrap(), col.runs);
        for run in col.runs {
            assert_eq!(dc.find(run.value).unwrap(), Some(*run));
        }
    }

    #[test]
    fn block_reads_are_counted_and_cached() {
        let (_ix, store, _image) = store();
        let dc = store.column("shared", 3).unwrap();
        dc.scan().unwrap();
        let first = store.reads();
        assert!(first >= 1);
        dc.scan().unwrap();
        assert_eq!(store.reads(), first, "second scan served from cache");
        let stats = store.cache_stats();
        assert!(stats.hits >= first, "{stats:?}");
    }

    #[test]
    fn cold_find_decodes_at_most_one_block() {
        // A probe must not decode the preceding blocks of the column to
        // locate its row prefix.
        let ix = dense_corpus();
        let store = open_unbounded(&image_of(&ix, WriteIndexOptions::default()));
        let dc = store.column("dense", 3).unwrap();
        assert!(dc.block_count() > 1, "corpus must span several blocks");
        // Probe a value that lives in the LAST block of a cold store.
        let target = ix.term_by_str("dense").unwrap().column(3).unwrap().runs.last().unwrap().value;
        assert!(dc.find(target).unwrap().is_some());
        assert_eq!(store.reads(), 1, "cold probe decodes exactly one block");
        // A probe beyond every stored value decodes nothing: the footers
        // prove the last block cannot contain it.
        let reads = store.reads();
        assert_eq!(dc.find(target + 1).unwrap(), None);
        assert_eq!(store.reads(), reads, "out-of-range probe is free");
    }

    #[test]
    fn value_gap_probe_skips_decode() {
        // A probe that falls between a block's last value and the next
        // block's first value must return None with zero decodes.
        let mut xml = String::from("<r>");
        for i in 0..6000 {
            // Even node numbers only, so odd probes can miss.
            xml.push_str(&format!("<p><t>gap g{i}</t></p>"));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let store = open_unbounded(&image_of(&ix, WriteIndexOptions::default()));
        // Level 1 of "gap" is a single highly-duplicated run; use the
        // leaf level, where block boundaries leave value gaps.
        let levels = store.levels_of("gap");
        let dc = store.column("gap", levels).unwrap();
        let col = ix.term_by_str("gap").unwrap().column(levels).unwrap();
        // Find a value absent from the column.
        let absent = (0..u32::MAX).find(|v| col.find(*v).is_none()).unwrap();
        let before = store.reads();
        let r = dc.find(absent).unwrap();
        assert_eq!(r, None);
        // Either skipped via footers (0 decodes) or decoded exactly one
        // block (when the absent value falls inside a block's range).
        assert!(store.reads() - before <= 1);
    }

    #[test]
    fn shared_cache_and_parallel_probes_decode_once() {
        let (ix, _unused, image) = store();
        let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::new(CacheCapacity::Unbounded));
        let store = open_image(&image, Arc::clone(&cache));
        let term = ix.term_by_str("shared").unwrap();
        let values: Vec<u32> = term.column(3).unwrap().runs.iter().map(|r| r.value).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = &store;
                let values = &values;
                s.spawn(move || {
                    let dc = store.column("shared", 3).unwrap();
                    for &v in values {
                        assert!(dc.find(v).unwrap().is_some());
                    }
                });
            }
        });
        let dc = store.column("shared", 3).unwrap();
        assert!(
            store.reads() <= dc.block_count() as u64,
            "4 workers probing every value decode each block at most once: {} reads, {} blocks",
            store.reads(),
            dc.block_count()
        );
    }

    #[test]
    fn bounded_cache_still_returns_exact_results() {
        let (ix, _unused, image) = store();
        for cache in [
            Arc::new(ShardedLruCache::with_block_capacity(1)) as Arc<dyn BlockCache>,
            Arc::new(ShardedLruCache::with_byte_capacity(1 << 14)) as Arc<dyn BlockCache>,
        ] {
            let store = open_image(&image, cache);
            for (_, term) in ix.terms() {
                for (li, col) in term.columns().enumerate() {
                    let dc = store.column(term.name(), (li + 1) as u16).unwrap();
                    assert_eq!(dc.scan().unwrap(), col.runs);
                    for run in col.runs.iter().take(8) {
                        assert_eq!(dc.find(run.value).unwrap(), Some(*run));
                    }
                }
            }
            let stats = store.cache_stats();
            assert!(stats.evictions > 0, "tiny cache must evict: {stats:?}");
        }
    }

    #[test]
    fn one_logical_access_counts_once() {
        // Regression for the PR-4 satellite bugfix: the double-checked
        // lookup under the file lock used to record a *second* miss per
        // decode, so a serial cold scan reported misses == 2 * decodes.
        let (_ix, store, _image) = store();
        let dc = store.column("shared", 3).unwrap();
        dc.scan().unwrap();
        let io = store.io_stats();
        assert_eq!(io.misses, io.decodes, "misses must equal decodes: {io:?}");
        assert_eq!(io.hits, 0, "cold scan has no hits: {io:?}");
        let cs = store.cache_stats();
        assert_eq!(cs.misses, io.misses, "shared-cache misses match per-store: {cs:?}");
        dc.scan().unwrap();
        let io2 = store.io_stats();
        assert_eq!(io2.decodes, io.decodes, "warm scan decodes nothing");
        assert!(io2.hits > 0);
        assert_eq!(io2.since(&io).misses, 0);
    }

    #[test]
    fn per_store_attribution_with_shared_cache() {
        // Two stores over the same file sharing one cache: the shared
        // CacheStats conflates them (salted keys), io_stats() does not.
        let (_ix, first, image) = store();
        let second = open_image(&image, first.shared_cache());
        first.column("shared", 3).unwrap().scan().unwrap();
        second.column("shared", 3).unwrap().scan().unwrap();
        let a = first.io_stats();
        let b = second.io_stats();
        assert_eq!(a.decodes, b.decodes, "same column, same block count");
        assert!(a.decodes > 0);
        let shared = first.cache_stats();
        assert_eq!(shared.misses, a.misses + b.misses, "{shared:?}");
        let reg = xtk_obs::MetricsRegistry::new();
        a.publish(&reg);
        b.publish(&reg);
        assert_eq!(reg.snapshot().get("store.decodes"), a.decodes + b.decodes);
    }

    #[test]
    fn shared_file_image_backs_many_stores() {
        // Zero-copy open: two stores over one Arc'd file image, no
        // per-store copy of the payload, identical results.
        let (ix, _unused, image) = store();
        let cache: Arc<dyn BlockCache> = Arc::new(ShardedLruCache::unbounded());
        let a = open_image(&image, Arc::clone(&cache));
        let b = open_image(&image, cache);
        let col = &ix.term_by_str("shared").unwrap().column(3).unwrap();
        assert_eq!(a.column("shared", 3).unwrap().scan().unwrap(), col.runs);
        assert_eq!(b.column("shared", 3).unwrap().scan().unwrap(), col.runs);
        assert_ne!(a.store_id(), b.store_id(), "cache keys stay disjoint");
    }

    /// The seeded inversion: `decode_block` takes a block-cache shard
    /// inside the decode ticket, so the ticket taken inside a shard is
    /// the lock order turned round.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "taking DecodeTicket while holding [BlockCacheShard]")]
    fn the_decode_ticket_under_a_block_cache_shard_panics() {
        let (_ix, store, _image) = store();
        let shard = crate::cache::Sharded::<()>::new(1, LockRank::BlockCacheShard);
        let _held = shard.lock(0);
        let _ticket = lock(&store.decode_lock, LockRank::DecodeTicket);
    }

    #[test]
    fn missing_term_or_level() {
        let (_ix, store, _image) = store();
        assert!(store.column("zzz_nope", 1).is_none());
        assert!(store.column("shared", 99).is_none());
        assert_eq!(store.levels_of("zzz_nope"), 0);
    }
}
