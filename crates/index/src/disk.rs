//! On-disk persistence of the columnar JDewey index.
//!
//! The paper stores inverted lists "directly on the disk" rather than in a
//! column store, because the vocabulary is huge and most lists are short.
//! This module owns that file format: one vocabulary section and, per
//! term, the posting depths (lengths array), optional local scores, and
//! then either
//!
//! * each column as a block directory — one [`BlockEntry`] per block —
//!   followed by the self-contained compressed blocks (see
//!   [`crate::codec`]) it points into, or
//! * for a term with at most [`INLINE_MAX_POSTINGS`] postings — the Zipf
//!   tail — one inline record holding its JDewey numbers posting by
//!   posting, prefix-shared, with no block, directory entry or column
//!   header: the way inverted files keep short lists in the dictionary.
//!
//! There is one format, one writer ([`write_index_to`]) and one reader:
//! [`parse_directory`], behind the lazy
//! [`DiskColumnStore`](crate::diskcol::DiskColumnStore) the disk and
//! sharded engines execute off, decides what a valid file is, and
//! [`InlineWalk`] is the one decoder of an inline record.  The score
//! section is validated and skipped: it has no reader until the disk
//! engine opens from the file alone (ROADMAP item 11b's catalog).

use crate::builder::XmlIndex;
use crate::codec::{
    choose_scheme, encode_column, try_read_varint, varint_len, write_varint, BlockEntry,
    DecodeScratch, RunEmitter, Scheme,
};
use crate::columnar::Run;
use crate::terms::TermData;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The one error of a file that is not a valid index.
pub(crate) fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt index file: {what}"))
}

/// Bounded reader over the raw file bytes: every primitive read reports
/// truncation as `io::Error` instead of panicking, so corrupted files are
/// rejected cleanly.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn varint(&mut self, what: &str) -> io::Result<u32> {
        try_read_varint(self.bytes, &mut self.pos).ok_or_else(|| bad(what))
    }

    fn byte(&mut self, what: &str) -> io::Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| bad(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad(what))?;
        let out = self.bytes.get(self.pos..end).ok_or_else(|| bad(what))?;
        self.pos = end;
        Ok(out)
    }

    /// A term's lengths array, each depth handed to `depth`, then its
    /// scores skipped when the file has them.  Returns the posting count.
    /// The one read of a term's postings: [`parse_directory`] calls it for
    /// every term, [`Directory::inline_term`] for an inline term it serves.
    fn postings(&mut self, with_scores: bool, mut depth: impl FnMut(u16)) -> io::Result<usize> {
        let n = self.varint("posting count")? as usize;
        for _ in 0..n {
            let d = u16::try_from(self.varint("depth")?).ok().filter(|&d| d > 0);
            depth(d.ok_or_else(|| bad("bad depth"))?);
        }
        if with_scores {
            self.take(n.checked_mul(4).ok_or_else(|| bad("scores"))?, "scores")?;
        }
        Ok(n)
    }

    /// An inline record: its byte length, then the bytes.
    fn inline_record(&mut self) -> io::Result<(&'a [u8], u64)> {
        let len = self.varint("inline record length")? as usize;
        let at = self.pos as u64;
        Ok((self.take(len, "inline record")?, at))
    }
}

/// File magic: "XTK" + format version 5 — bit-packed blocks whose row
/// counts and first values live in the directory alone, and the short
/// lists inline.  Versions 1–4 are refused by name.
pub(crate) const MAGIC: u32 = 0x58544B05;

/// The most postings a term may have and still be written as one inline
/// record instead of column records.  Every column of such a term would
/// be one block of at most eight rows, so an inline column answers every
/// access as that block would; the value is the largest of 1, 2, 4 and 8
/// by file size (DESIGN §8).
pub const INLINE_MAX_POSTINGS: usize = 8;

/// The on-disk format: there is one, and it writes version 5.  The type
/// and [`WriteIndexOptions::format`] select nothing; they stay because
/// perfbench's `STORE_OPTIONS` names them, and go with the PR that next
/// edits perfbench (ROADMAP item 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// The one format (file version 5).
    #[default]
    V3,
}

/// Options for writing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteIndexOptions {
    /// Include per-posting local scores (the top-K flavor of the index).
    pub include_scores: bool,
    /// The one format (see [`FormatVersion`]).
    pub format: FormatVersion,
}

/// Encodes one column record into `buf` — scheme byte, block count, the
/// directory entries `(offset, first value, row count, last − first)` as
/// varints (values inside a block are non-decreasing, so the last-value
/// delta stays short), payload length, payload — and returns the block
/// count.
fn encode_column_record(runs: &[Run], buf: &mut Vec<u8>) -> usize {
    let scheme = choose_scheme(runs);
    let cc = encode_column(runs, scheme);
    buf.push(match scheme {
        Scheme::Delta => 0,
        Scheme::Rle => 1,
    });
    write_varint(cc.blocks.len() as u32, buf);
    for b in &cc.blocks {
        write_varint(b.offset, buf);
        write_varint(b.first, buf);
        write_varint(b.rows, buf);
        write_varint(b.last.saturating_sub(b.first), buf);
    }
    write_varint(cc.bytes.len() as u32, buf);
    buf.extend_from_slice(&cc.bytes);
    cc.blocks.len()
}

/// Encodes `term`'s inline record into `buf`: its byte length, then per
/// posting the number of leading JDewey numbers it shares with the
/// posting before it and its other numbers, all varints.  A posting's
/// depth is the lengths array's, so the record does not repeat it.
fn encode_inline_record(term: TermData<'_>, buf: &mut Vec<u8>) {
    // Posting `row`'s numbers, level 1 first; none for no row.
    let numbers = |row: Option<u32>| {
        term.columns().map_while(move |col| row.and_then(|r| col.value_of_row(r)))
    };
    let record = |put: &mut dyn FnMut(u32)| {
        for row in 0..term.len() as u32 {
            let prev = numbers(row.checked_sub(1));
            let shared = numbers(Some(row)).zip(prev).take_while(|(a, b)| a == b).count();
            put(shared as u32);
            numbers(Some(row)).skip(shared).for_each(&mut *put);
        }
    };
    let mut len = 0;
    record(&mut |v| len += varint_len(v));
    write_varint(len as u32, buf);
    record(&mut |v| write_varint(v, buf));
}

/// Encodes what follows `term`'s column count: its inline record when it
/// has at most [`INLINE_MAX_POSTINGS`] postings, else one column record
/// per level.  Returns the number of blocks written (none inline).  The
/// writer's lists and, through [`crate::sizes`], Table I's bytes and
/// sparse entries: there is no second model of them.
pub(crate) fn encode_lists(term: TermData<'_>, buf: &mut Vec<u8>) -> usize {
    if term.len() <= INLINE_MAX_POSTINGS {
        encode_inline_record(term, buf);
        return 0;
    }
    term.columns().map(|col| encode_column_record(col.runs, buf)).sum()
}

/// Encodes `term`'s record (vocabulary entry, lengths array, optional
/// scores, column count and lists) into `buf`.
fn encode_term_record(
    ix: &XmlIndex,
    term: TermData<'_>,
    opts: WriteIndexOptions,
    buf: &mut Vec<u8>,
) {
    let postings = term.postings();
    write_varint(term.name().len() as u32, buf);
    buf.extend_from_slice(term.name().as_bytes());
    write_varint(postings.len() as u32, buf);
    // Lengths array.
    for &n in postings {
        write_varint(u32::from(ix.tree().depth(n)), buf);
    }
    if opts.include_scores {
        for &s in term.scores() {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    write_varint(u32::from(term.max_len()), buf);
    encode_lists(term, buf);
}

/// Serializes the columnar part of `ix` into any sink and returns the
/// bytes written — the one header + term-record loop behind
/// [`write_index`] (a file), [`persisted_file_bytes`] (a counting sink)
/// and in-memory images (`&mut Vec<u8>`, for
/// [`DiskColumnStore::open_bytes`](crate::diskcol::DiskColumnStore::open_bytes)).
pub fn write_index_to<W: Write>(ix: &XmlIndex, sink: W, opts: WriteIndexOptions) -> io::Result<u64> {
    let mut w = CountingWriter { inner: sink, written: 0 };
    let mut buf = Vec::new();
    write_varint(MAGIC, &mut buf);
    write_varint(ix.vocab_size() as u32, &mut buf);
    buf.push(opts.include_scores as u8);
    w.write_all(&buf)?;
    for (_, term) in ix.terms() {
        buf.clear();
        encode_term_record(ix, term, opts, &mut buf);
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(w.written)
}

/// Serializes the columnar part of `ix` to `path`.  Returns bytes written.
pub fn write_index(ix: &XmlIndex, path: &Path, opts: WriteIndexOptions) -> io::Result<u64> {
    write_index_to(ix, BufWriter::new(File::create(path)?), opts)
}

/// Exact size in bytes of the file [`write_index`] would produce, without
/// touching the filesystem.  Built on the same encoders as the writer,
/// so the Table I accounting in [`crate::sizes`] can be checked against
/// the genuine article.
pub fn persisted_file_bytes(ix: &XmlIndex, opts: WriteIndexOptions) -> u64 {
    // `io::sink` accepts every write, so the count always comes back.
    write_index_to(ix, io::sink(), opts).unwrap_or(0)
}

/// An inline record, read level by level: the one decoder of the record
/// [`encode_inline_record`] writes.  [`new`](Self::new) checks its
/// framing — one shared count per posting, no larger than this posting's
/// depth or the previous one's, every number inside `u32`, the record's
/// length exact — and each [`next_level`](Self::next_level) reads one
/// number per posting reaching the level and refuses numbers that
/// descend.  Holds no allocation: a term has at most
/// [`INLINE_MAX_POSTINGS`] postings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlineWalk<'a> {
    record: &'a [u8],
    n: usize,
    depths: [u16; INLINE_MAX_POSTINGS],
    /// Per posting: the leading numbers it shares with the posting before.
    shared: [u16; INLINE_MAX_POSTINGS],
    /// Per posting: where its next unread number starts in `record`.
    at: [usize; INLINE_MAX_POSTINGS],
    /// Per posting: its number at `level`, where it reaches `level`.
    values: [u32; INLINE_MAX_POSTINGS],
    level: u16,
}

impl<'a> InlineWalk<'a> {
    /// A walk before level 1 of the record of postings `depths`.
    pub(crate) fn new(depths: &[u16], record: &'a [u8]) -> io::Result<Self> {
        if depths.len() > INLINE_MAX_POSTINGS {
            return Err(bad("inline term has too many postings"));
        }
        let mut walk = Self {
            record,
            n: depths.len(),
            depths: [0; INLINE_MAX_POSTINGS],
            shared: [0; INLINE_MAX_POSTINGS],
            at: [0; INLINE_MAX_POSTINGS],
            values: [0; INLINE_MAX_POSTINGS],
            level: 0,
        };
        let (mut pos, mut prev) = (0, 0u16);
        let slots = walk.depths.iter_mut().zip(&mut walk.shared).zip(&mut walk.at);
        for (((depth, shared), at), &d) in slots.zip(depths) {
            let s = try_read_varint(record, &mut pos).ok_or_else(|| bad("inline shared count"))?;
            let s = u16::try_from(s).ok().filter(|&s| s <= prev.min(d));
            *shared = s.ok_or_else(|| bad("inline shared count exceeds a posting's depth"))?;
            (*depth, *at, prev) = (d, pos, d);
            for _ in *shared..d {
                try_read_varint(record, &mut pos).ok_or_else(|| bad("inline number"))?;
            }
        }
        if pos != record.len() {
            return Err(bad("inline record length disagrees with its postings"));
        }
        Ok(walk)
    }

    /// Steps to the next level, reading each number there; `false` past
    /// the deepest posting.
    pub(crate) fn next_level(&mut self) -> io::Result<bool> {
        let level = self.level.checked_add(1).ok_or_else(|| bad("inline level"))?;
        self.level = level;
        // The previous posting's number here, if it reaches the level;
        // the largest number so far at the level.
        let (mut prev, mut largest) = (None, None);
        let postings = self.depths.iter().zip(&self.shared).zip(&mut self.at).zip(&mut self.values);
        for (((&depth, &shared), at), value) in postings.take(self.n) {
            if depth < level {
                prev = None;
                continue;
            }
            let v = if level <= shared {
                prev.ok_or_else(|| bad("inline shared count exceeds a posting's depth"))?
            } else {
                try_read_varint(self.record, at).ok_or_else(|| bad("inline number"))?
            };
            if largest.is_some_and(|l| v < l) {
                return Err(bad("inline numbers descend within a level"));
            }
            (*value, prev, largest) = (v, Some(v), Some(v));
        }
        Ok(largest.is_some())
    }

    /// The postings reaching the current level, as `(row, number)` in row
    /// order.
    pub(crate) fn present(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let level = self.level;
        let rows = self.depths.iter().zip(&self.values).take(self.n).zip(0u32..);
        rows.filter(move |((&d, _), _)| d >= level).map(|((_, &v), row)| (row, v))
    }

    /// Walks to `level`; `None` when the term does not reach it.
    pub(crate) fn to_level(mut self, level: u16) -> io::Result<Option<Self>> {
        while self.level < level {
            if !self.next_level()? {
                return Ok(None);
            }
        }
        Ok((self.level == level && level > 0).then_some(self))
    }

    /// Appends the current level's runs to `scratch.runs`: equal numbers
    /// of adjacent rows form one run, as in a decoded block.
    pub(crate) fn decode_into(&self, scratch: &mut DecodeScratch) {
        let mut em = RunEmitter::default();
        for (row, value) in self.present() {
            em.one(&mut scratch.runs, value, row);
        }
        em.finish(&mut scratch.runs);
    }
}

/// An inline term as the store serves it: its depths and record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlineTerm<'a> {
    depths: [u16; INLINE_MAX_POSTINGS],
    n: usize,
    record: &'a [u8],
    /// File offset of the record: level `l`'s cache key is `at + l − 1`,
    /// a byte of the record itself (every level has a number of its own
    /// in the record, a byte at least), so no block of the file starts
    /// there.
    at: u64,
}

impl<'a> InlineTerm<'a> {
    fn walk(&self) -> io::Result<InlineWalk<'a>> {
        InlineWalk::new(self.depths.get(..self.n).unwrap_or_default(), self.record)
    }

    /// The column of `level`, its rows and value span read off the record.
    pub(crate) fn column(&self, level: u16) -> Option<InlineColumn<'a>> {
        let walk = self.walk().ok()?.to_level(level).ok()??;
        InlineColumn::at(*self, &walk)
    }

    /// Every column, level 1 first, from one walk over the record.
    pub(crate) fn columns(&self) -> impl Iterator<Item = InlineColumn<'a>> {
        let (term, mut walk) = (*self, self.walk().ok());
        std::iter::from_fn(move || {
            let w = walk.as_mut()?;
            match w.next_level() {
                Ok(true) => InlineColumn::at(term, w),
                _ => None,
            }
        })
    }
}

/// One level of an inline term: the one-block column the record stands
/// for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlineColumn<'a> {
    term: InlineTerm<'a>,
    level: u16,
    pub(crate) rows: u32,
    /// The first and the last number, as a block entry holds them.
    pub(crate) first: u32,
    pub(crate) last: u32,
}

impl<'a> InlineColumn<'a> {
    fn at(term: InlineTerm<'a>, walk: &InlineWalk<'a>) -> Option<Self> {
        let mut present = walk.present().map(|(_, v)| v);
        let first = present.next()?;
        let (rows, last) = present.fold((1, first), |(n, _), v| (n + 1, v));
        Some(Self { term, level: walk.level, rows, first, last })
    }

    /// The file offset naming this column's one block in the cache.
    pub(crate) fn key(&self) -> u64 {
        self.term.at + u64::from(self.level) - 1
    }

    /// Appends the column's runs to `scratch.runs`.
    pub(crate) fn decode_into(&self, scratch: &mut DecodeScratch) -> io::Result<()> {
        let walk = self.term.walk()?.to_level(self.level)?;
        walk.ok_or_else(|| bad("inline level"))?.decode_into(scratch);
        Ok(())
    }
}

/// Every column's block directory in the layout the store keeps resident:
/// one flat array of `u32` words for the whole file, addressed CSR-style.
/// Term `t`'s columns are `term_cols[t]..term_cols[t + 1]` (level `l` is
/// the `l`-th), and column `c` is the run of words
/// `words[col_at[c]..col_at[c + 1]]`: a [`HEADER`]-word header (scheme,
/// block count `n`, payload base as two words, payload length), then the
/// column's [`BlockEntry`]s split into the arrays the hot path walks — `n`
/// last values, `n` first values, `n` payload offsets, `n + 1` row
/// prefixes — and last the column's present rows.  One column's words
/// are contiguous, so a block access touches one region of memory, as a
/// per-column allocation would, without the allocation.  An inline term
/// has no columns here and no words: one `u64` in `inline`.  Built only
/// by [`parse_directory`], which guarantees every column's words have
/// this shape, that its blocks cover exactly the rows the lengths array
/// puts at its level, and that every inline record walks.
#[derive(Debug)]
pub(crate) struct Directory {
    /// Term text → term index.
    names: HashMap<Box<str>, u32>,
    term_cols: Vec<u32>,
    col_at: Vec<u32>,
    words: Vec<u32>,
    /// Per term: 0 for a term with column records; for an inline term,
    /// the file offset of its posting count in the low [`INLINE_AT_BITS`]
    /// bits and its level count above them.
    inline: Vec<u64>,
    /// Whether every term's lengths array is followed by its scores.
    with_scores: bool,
}

/// Bits of an inline entry that hold the file offset (256 TiB).
const INLINE_AT_BITS: u32 = 48;

/// Words before a column's block arrays (see [`Directory`]).
const HEADER: usize = 5;

/// One column's block directory: a view into the [`Directory`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnDirectory<'a> {
    pub(crate) scheme: Scheme,
    /// File offset of the column's payload; block offsets count from it.
    base: u64,
    /// One past the last payload byte of the column.
    pub(crate) end: u64,
    /// Largest value per block — contiguous, because the skip rule
    /// gallops over it alone.
    pub(crate) lasts: &'a [u32],
    /// First value per block.
    pub(crate) firsts: &'a [u32],
    /// Payload-relative offset per block.
    offsets: &'a [u32],
    /// Per block, plus one: the block's first entry of `present_rows`.
    pub(crate) row_at: &'a [u32],
    /// Rows present at this level (global row ids), needed to reconstruct
    /// run coordinates: 4 bytes per present row, the same information
    /// the lengths array encodes.
    pub(crate) present_rows: &'a [u32],
}

impl ColumnDirectory<'_> {
    /// File offset of block `b`.
    pub(crate) fn start(&self, b: usize) -> Option<u64> {
        self.offsets.get(b).map(|&o| self.base + u64::from(o))
    }
}

impl Directory {
    /// The index of `term`, if the file holds it.
    pub(crate) fn term(&self, term: &str) -> Option<usize> {
        self.names.get(term).map(|&t| t as usize)
    }

    /// The term texts, in no particular order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        #[expect(clippy::disallowed_methods, reason = "the one caller sorts")]
        self.names.keys().map(|k| &**k)
    }

    /// The columns of term `t` (index into `col_at`); none for an inline
    /// term.
    pub(crate) fn columns(&self, t: usize) -> std::ops::Range<usize> {
        match self.term_cols.get(t..).and_then(|at| at.get(..2)) {
            Some(&[a, b]) => a as usize..b as usize,
            _ => 0..0,
        }
    }

    /// Term `t`'s levels: its columns, or its inline record's.
    pub(crate) fn levels(&self, t: usize) -> u16 {
        match self.inline.get(t) {
            Some(&e) if e != 0 => (e >> INLINE_AT_BITS) as u16,
            _ => self.columns(t).len() as u16,
        }
    }

    /// Term `t`'s inline record in the file image `bytes` the directory
    /// was parsed from; `None` for a term with column records.
    pub(crate) fn inline_term<'a>(&self, bytes: &'a [u8], t: usize) -> Option<InlineTerm<'a>> {
        let &e = self.inline.get(t).filter(|&&e| e != 0)?;
        let mut r = ByteReader { bytes, pos: (e & ((1 << INLINE_AT_BITS) - 1)) as usize };
        let (mut depths, mut n) = ([0u16; INLINE_MAX_POSTINGS], 0);
        r.postings(self.with_scores, |d| {
            if let Some(slot) = depths.get_mut(n) {
                *slot = d;
            }
            n += 1;
        })
        .ok()?;
        r.varint("column count").ok()?;
        let (record, at) = r.inline_record().ok()?;
        (n <= INLINE_MAX_POSTINGS).then_some(InlineTerm { depths, n, record, at })
    }

    /// The directory of column `c`.
    pub(crate) fn column(&self, c: usize) -> Option<ColumnDirectory<'_>> {
        let (&from, &to) = (self.col_at.get(c)?, self.col_at.get(c + 1)?);
        let words = self.words.get(from as usize..to as usize)?;
        let (&[scheme, n, base_lo, base_hi, len], rest) = words.split_first_chunk::<HEADER>()?;
        let n = n as usize;
        let (lasts, rest) = rest.split_at_checked(n)?;
        let (firsts, rest) = rest.split_at_checked(n)?;
        let (offsets, rest) = rest.split_at_checked(n)?;
        let (row_at, present_rows) = rest.split_at_checked(n + 1)?;
        let base = u64::from(base_lo) | u64::from(base_hi) << 32;
        Some(ColumnDirectory {
            scheme: if scheme == 0 { Scheme::Delta } else { Scheme::Rle },
            base,
            end: base + u64::from(len),
            lasts,
            firsts,
            offsets,
            row_at,
            present_rows,
        })
    }
}

/// Reads one directory entry (see [`encode_column_record`]).
fn read_entry(r: &mut ByteReader<'_>) -> io::Result<BlockEntry> {
    let offset = r.varint("block offset")?;
    let first = r.varint("block first value")?;
    let rows = r.varint("block row count")?;
    let last = first
        .checked_add(r.varint("block last-value delta")?)
        .ok_or_else(|| bad("block last value overflow"))?;
    Ok(BlockEntry { offset, first, rows, last })
}

/// A CSR offset: the length of the array it points into, refused past
/// `u32`.
fn offset(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| bad("directory exceeds u32 entries"))
}

/// Reads one column record into the resident directory, skipping over the
/// payload (sliced per block later, never copied).  `depths` is the
/// term's lengths array: the rows present at `level` are the postings at
/// least that deep, and the directory's row counts must add up to them.
fn parse_column(
    r: &mut ByteReader<'_>,
    dir: &mut Directory,
    depths: &[u16],
    level: usize,
) -> io::Result<()> {
    let scheme = match r.byte("scheme")? {
        0 => 0,
        1 => 1,
        x => return Err(bad(&format!("bad scheme byte {x}"))),
    };
    let n_blocks = r.varint("block count")? as usize;
    // An entry is four varints, a byte each at least: a count the rest of
    // the file cannot back is corrupt, and sizes no allocation.
    if n_blocks > r.bytes.len().saturating_sub(r.pos) / 4 {
        return Err(bad("block count too large"));
    }
    let from = dir.words.len();
    let arrays = HEADER + 4 * n_blocks + 1;
    dir.words.try_reserve(arrays).map_err(|_| bad("block count too large"))?;
    dir.words.resize(from + arrays, 0);
    // The arrays just sized: `HEADER` words, then three of `n_blocks` and
    // the row prefixes.
    let words = dir.words.get_mut(from..).unwrap_or_default();
    let Some((head, rest)) = words.split_first_chunk_mut::<HEADER>() else {
        return Err(bad("directory layout"));
    };
    let Some((lasts, rest)) = rest.split_at_mut_checked(n_blocks) else {
        return Err(bad("directory layout"));
    };
    let Some((firsts, rest)) = rest.split_at_mut_checked(n_blocks) else {
        return Err(bad("directory layout"));
    };
    let Some((offsets, row_at)) = rest.split_at_mut_checked(n_blocks) else {
        return Err(bad("directory layout"));
    };
    let mut rows = 0u32;
    let entries = lasts.iter_mut().zip(firsts.iter_mut()).zip(offsets.iter_mut());
    for (((last, first), offset), row_end) in entries.zip(row_at.iter_mut().skip(1)) {
        let entry = read_entry(r)?;
        (*last, *first, *offset) = (entry.last, entry.first, entry.offset);
        rows = rows
            .checked_add(entry.rows)
            .ok_or_else(|| bad("block row counts exceed lengths array"))?;
        *row_end = rows;
    }
    let payload_len = r.varint("payload length")?;
    let base = r.pos as u64;
    r.take(payload_len as usize, "payload")?;
    if offsets.last().is_some_and(|&offset| offset >= payload_len.max(1)) {
        return Err(bad("block offset beyond payload"));
    }
    *head = [scheme, n_blocks as u32, base as u32, (base >> 32) as u32, payload_len];
    let present_from = dir.words.len();
    dir.words.extend(
        depths
            .iter()
            .enumerate()
            .filter(|(_, &d)| usize::from(d) >= level)
            .map(|(i, _)| i as u32),
    );
    // A directory that disagrees with the lengths array would misplace
    // rows silently.
    if rows as usize != dir.words.len() - present_from {
        return Err(bad("block row counts disagree with lengths array"));
    }
    dir.col_at.push(offset(dir.words.len())?);
    Ok(())
}

/// The one parse of an index file: a single bounds-checked pass over the
/// sequential format that validates everything an open can know without
/// decoding a block — the magic (a version this reader does not support
/// is named), every depth in `1..=u16::MAX`, one column per level down to
/// the term's deepest posting, the scheme byte, a block count the file
/// can back, last values inside `u32`, the last block offset inside the
/// payload, the payload inside the file, row counts that add up to the
/// lengths array, and every inline record walked level by level (see
/// [`InlineWalk`]).  Corrupt files fail with `InvalidData`, never a
/// panic.  Block payloads and scores stay unread.  Returns every term's
/// columns (level 1 first) and inline records in one [`Directory`].
pub(crate) fn parse_directory(bytes: &[u8]) -> io::Result<Directory> {
    let mut r = ByteReader { bytes, pos: 0 };
    match r.varint("magic")? {
        MAGIC => {}
        m if m >> 8 == MAGIC >> 8 => {
            let version = m & 0xff;
            return Err(bad(&format!(
                "unsupported format version {version} (this reader accepts 5; rebuild the index file)"
            )));
        }
        _ => return Err(bad("bad index magic")),
    }
    let n_terms = r.varint("term count")? as usize;
    let with_scores = r.byte("score flag")? != 0;
    let mut dir = Directory {
        names: HashMap::new(),
        term_cols: vec![0],
        col_at: vec![0],
        words: Vec::new(),
        inline: Vec::new(),
        with_scores,
    };
    // A term record takes three bytes at least: a count the file cannot
    // back sizes no allocation.
    dir.inline.try_reserve_exact(n_terms.min(bytes.len() / 3)).map_err(|_| bad("term count"))?;
    // The lengths array of the term being read, reused term to term.
    let mut depths = Vec::new();
    for _ in 0..n_terms {
        let tlen = r.varint("term length")? as usize;
        let term = std::str::from_utf8(r.take(tlen, "term text")?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let at = r.pos as u64;
        depths.clear();
        let n_postings = r.postings(with_scores, |d| depths.push(d))?;
        let n_cols = r.varint("column count")? as usize;
        if n_cols != depths.iter().copied().max().map_or(0, usize::from) {
            return Err(bad("column count inconsistent with posting depths"));
        }
        if n_postings <= INLINE_MAX_POSTINGS {
            let mut walk = InlineWalk::new(&depths, r.inline_record()?.0)?;
            while walk.next_level()? {}
            if at >> INLINE_AT_BITS != 0 {
                return Err(bad("inline term beyond 2^48 bytes"));
            }
            dir.inline.push(at | (n_cols as u64) << INLINE_AT_BITS);
        } else {
            for level in 1..=n_cols {
                parse_column(&mut r, &mut dir, &depths, level)?;
            }
            dir.inline.push(0);
        }
        // A repeated name keeps the last record, as a map insert did.
        dir.names.insert(term.into(), offset(dir.term_cols.len() - 1)?);
        dir.term_cols.push(offset(dir.col_at.len() - 1)?);
    }
    dir.words.shrink_to_fit();
    dir.col_at.shrink_to_fit();
    Ok(dir)
}

struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskcol::DiskColumnStore;
    use xtk_xml::parse;
    use xtk_xml::testutil::TempPath;

    fn tmp(name: &str) -> TempPath {
        TempPath::new(&format!("xtk_disk_test_{name}"))
    }

    /// Every column of `ix` reads back from the store at `path` as the
    /// memory column, and its directory entry — rows, blocks, value span —
    /// is the memory column's: every level holds the rows the lengths
    /// array says reach it, in the blocks the encoder cut.
    fn assert_store_matches(ix: &XmlIndex, path: &Path) {
        let store = DiskColumnStore::open(path).unwrap();
        assert_eq!(store.term_names().len(), ix.vocab_size());
        for (_, term) in ix.terms() {
            assert_eq!(store.levels_of(term.name()), term.max_len());
            assert_eq!(store.columns(term.name()).count(), usize::from(term.max_len()));
            for (col, level) in term.columns().zip(1u16..) {
                let what = format!("{} level {level}", term.name());
                let dc = store.column(term.name(), level).unwrap();
                assert_eq!(dc.scan().unwrap(), col.runs, "{what}");
                let deep = term.postings().iter().filter(|&&n| ix.tree().depth(n) >= level).count();
                assert_eq!(dc.row_count(), deep, "{what}");
                assert_eq!(dc.row_count() as u64, col.row_count(), "{what}");
                let blocks = encode_column(col.runs, choose_scheme(col.runs)).block_count();
                assert_eq!(dc.block_count(), blocks, "{what}");
                let span = col.runs.first().zip(col.runs.last()).map(|(f, l)| (f.value, l.value));
                assert_eq!(dc.value_span(), span, "{what}");
            }
        }
        assert_eq!(store.levels_of("no such term"), 0);
        assert!(store.column("no such term", 1).is_none());
        assert_eq!(store.columns("no such term").count(), 0);
    }

    #[test]
    fn roundtrip_columns_and_scores() {
        let ix = XmlIndex::build(
            parse("<r><a><p>xml data</p><q>xml</q></a><b><s>data xml</s></b></r>").unwrap(),
        );
        let path = tmp("roundtrip");
        let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
        let bytes = write_index(&ix, &path, opts).unwrap();
        assert!(bytes > 0);
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(bytes, persisted_file_bytes(&ix, opts));
        assert_store_matches(&ix, &path);
        // The score section is one f32 per posting.
        let postings: u64 = ix.terms().map(|(_, t)| t.postings().len() as u64).sum();
        let without = WriteIndexOptions { include_scores: false, ..opts };
        assert_eq!(bytes, persisted_file_bytes(&ix, without) + 4 * postings);
    }

    #[test]
    fn directory_matches_memory_across_many_blocks() {
        // Long delta and RLE columns over many blocks, beside short ones.
        let mut xml = String::from("<r>");
        for i in 0..30_000 {
            xml.push_str(&format!("<p><t>dense w{} x{}</t><u/></p>", i % 3, i % 200));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let path = tmp("many_blocks");
        write_index(&ix, &path, WriteIndexOptions { include_scores: true, ..Default::default() })
            .unwrap();
        let store = DiskColumnStore::open(&path).unwrap();
        assert!(store.column("dense", 3).unwrap().block_count() > 1, "a column spans blocks");
        assert_store_matches(&ix, &path);
    }

    #[test]
    fn roundtrip_without_scores() {
        let ix = XmlIndex::build(parse("<r><a>w w w</a><b>w</b></r>").unwrap());
        let path = tmp("noscores");
        write_index(&ix, &path, WriteIndexOptions::default()).unwrap();
        assert_store_matches(&ix, &path);
    }

    #[test]
    fn persisted_file_bytes_matches_writer() {
        let ix = XmlIndex::build(
            parse("<r><a><p>exact size</p></a><b>size accounting exact</b></r>").unwrap(),
        );
        for include_scores in [false, true] {
            let opts = WriteIndexOptions { include_scores, ..Default::default() };
            let path = tmp(&format!("sz_{include_scores}"));
            let written = write_index(&ix, &path, opts).unwrap();
            assert_eq!(written, std::fs::metadata(&path).unwrap().len());
            assert_eq!(written, persisted_file_bytes(&ix, opts), "{opts:?}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, [1, 2, 3, 4, 5]).unwrap();
        assert!(DiskColumnStore::open(&path).is_err());
    }
}
