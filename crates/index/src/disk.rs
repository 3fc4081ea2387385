//! On-disk persistence of the columnar JDewey index.
//!
//! The paper stores inverted lists "directly on the disk" rather than in a
//! column store, because the vocabulary is huge and most lists are short.
//! This module owns that file format: one vocabulary section and, per
//! term, the posting depths (lengths array), optional local scores, and
//! each column as a block directory — one [`BlockEntry`] per block —
//! followed by the self-contained compressed blocks (see [`crate::codec`])
//! it points into.
//!
//! There is one format, one writer ([`write_index_to`]) and one reader:
//! [`parse_directory`], behind the lazy
//! [`DiskColumnStore`](crate::diskcol::DiskColumnStore) the disk and
//! sharded engines execute off, decides what a valid file is.  The score
//! section is validated and skipped: it has no reader until the disk
//! engine opens from the file alone (ROADMAP item 6b's catalog).

use crate::builder::XmlIndex;
use crate::codec::{choose_scheme, encode_column, try_read_varint, write_varint, BlockEntry, Scheme};
use crate::columnar::Column;
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
}

/// File magic: "XTK" + format version 4 — bit-packed blocks whose row
/// counts live in the directory alone.  Versions 1–3 are refused by name.
pub(crate) const MAGIC: u32 = 0x58544B04;

/// The on-disk format: there is one, and it writes version 4.  The type
/// and [`WriteIndexOptions::format`] select nothing; they stay because
/// perfbench's `STORE_OPTIONS` names them, and go with the PR that next
/// edits perfbench (ROADMAP item 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Bit-packed blocks (file version 4).
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

/// Encodes the file header into `buf`.
fn encode_header(ix: &XmlIndex, opts: WriteIndexOptions, buf: &mut Vec<u8>) {
    write_varint(MAGIC, buf);
    write_varint(ix.vocab_size() as u32, buf);
    buf.push(opts.include_scores as u8);
}

/// Encodes one column record into `buf` — scheme byte, block count, the
/// directory entries `(offset, first value, row count, last − first)` as
/// varints (values inside a block are non-decreasing, so the last-value
/// delta stays short), payload length, payload — and returns the block
/// count.  The writer's record and, through [`crate::sizes`], Table I's
/// bytes: there is no second model of it.
pub(crate) fn encode_column_record(col: &Column, buf: &mut Vec<u8>) -> usize {
    let scheme = choose_scheme(col);
    let cc = encode_column(col, scheme);
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

/// Encodes one term record (vocabulary entry, lengths array, optional
/// scores, and every column record) into `buf`.
fn encode_term_record(
    ix: &XmlIndex,
    term: &crate::builder::TermData,
    opts: WriteIndexOptions,
    buf: &mut Vec<u8>,
) {
    write_varint(term.term.len() as u32, buf);
    buf.extend_from_slice(term.term.as_bytes());
    write_varint(term.postings.len() as u32, buf);
    // Lengths array.
    for &n in &term.postings {
        write_varint(ix.tree().depth(n) as u32, buf);
    }
    if opts.include_scores {
        for &s in &term.scores {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    write_varint(term.columns.len() as u32, buf);
    for col in &term.columns {
        encode_column_record(col, buf);
    }
}

/// Serializes the columnar part of `ix` into any sink and returns the
/// bytes written — the one header + term-record loop behind
/// [`write_index`] (a file), [`persisted_file_bytes`] (a counting sink)
/// and in-memory images (`&mut Vec<u8>`, for
/// [`DiskColumnStore::open_bytes`](crate::diskcol::DiskColumnStore::open_bytes)).
pub fn write_index_to<W: Write>(ix: &XmlIndex, sink: W, opts: WriteIndexOptions) -> io::Result<u64> {
    let mut w = CountingWriter { inner: sink, written: 0 };
    let mut buf = Vec::new();
    encode_header(ix, opts, &mut buf);
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

/// [`write_index`] plus observability: records `disk.write_bytes` and
/// `disk.write_terms` into the registry so index-build runs report
/// through the same substrate as the query path.
pub fn write_index_obs(
    ix: &XmlIndex,
    path: &Path,
    opts: WriteIndexOptions,
    metrics: &xtk_obs::MetricsRegistry,
) -> io::Result<u64> {
    let written = write_index(ix, path, opts)?;
    metrics.add("disk.write_bytes", written);
    metrics.add("disk.write_terms", ix.vocab_size() as u64);
    Ok(written)
}

/// Exact size in bytes of the file [`write_index`] would produce, without
/// touching the filesystem.  Built on the same encoders as the writer,
/// so the Table I accounting in [`crate::sizes`] can be checked against
/// the genuine article.
pub fn persisted_file_bytes(ix: &XmlIndex, opts: WriteIndexOptions) -> u64 {
    // `io::sink` accepts every write, so the count always comes back.
    write_index_to(ix, io::sink(), opts).unwrap_or(0)
}

/// One column's block directory in the layout the store keeps resident:
/// [`BlockEntry`]s split into the arrays the hot path walks.  Built only
/// by [`parse_directory`], which guarantees one `lasts` entry per block,
/// one more `row_prefix` entry than blocks, and a `row_prefix` total equal
/// to `present_rows.len()`.
#[derive(Debug)]
pub(crate) struct ColumnDirectory {
    pub(crate) scheme: Scheme,
    /// `(file offset, first value)` per block.
    pub(crate) blocks: Vec<(u64, u32)>,
    /// One past the last payload byte of the column.
    pub(crate) end: u64,
    /// Largest value stored in each block — contiguous, because the skip
    /// rule gallops over it alone.
    pub(crate) lasts: Vec<u32>,
    /// `row_prefix[b]` = number of present rows in blocks `0..b`; one
    /// extra entry at the end holding the column total.
    pub(crate) row_prefix: Vec<u32>,
    /// Rows present at this level (global row ids), needed to reconstruct
    /// run coordinates.  Kept in memory: 4 bytes per present row, the same
    /// information the lengths array encodes.
    pub(crate) present_rows: Vec<u32>,
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

/// Reads one column record into its resident directory, skipping over the
/// payload (sliced per block later, never copied).  `depths` is the
/// term's lengths array: the rows present at `level` are the postings at
/// least that deep, and the directory's row counts must add up to them.
fn parse_column(r: &mut ByteReader<'_>, depths: &[u16], level: usize) -> io::Result<ColumnDirectory> {
    let scheme = match r.byte("scheme")? {
        0 => Scheme::Delta,
        1 => Scheme::Rle,
        // lint:allow(L8, error construction on the corrupt-file bail-out)
        x => return Err(bad(&format!("bad scheme byte {x}"))),
    };
    let n_blocks = r.varint("block count")? as usize;
    // A corrupt count must not size an allocation: reserve for what a
    // real file can hold, let a longer directory grow as it is read.
    let reserve = n_blocks.min(1 << 22);
    // lint:allow(L8, open-time directory parse — per-column directory vecs, never on the block-decode path)
    let (mut blocks, mut lasts, mut row_prefix) = (Vec::new(), Vec::new(), Vec::new());
    let reserved = blocks.try_reserve_exact(reserve).is_ok()
        && lasts.try_reserve_exact(reserve).is_ok()
        && row_prefix.try_reserve_exact(reserve + 1).is_ok();
    if !reserved {
        return Err(bad("block count too large"));
    }
    let mut rows = 0u64;
    row_prefix.push(0);
    for _ in 0..n_blocks {
        let entry = read_entry(r)?;
        // Payload-relative until the payload's own offset is known.
        blocks.push((u64::from(entry.offset), entry.first));
        lasts.push(entry.last);
        rows += u64::from(entry.rows);
        row_prefix
            .push(u32::try_from(rows).map_err(|_| bad("block row counts exceed lengths array"))?);
    }
    let payload_len = r.varint("payload length")? as usize;
    let base = r.pos as u64;
    r.take(payload_len, "payload")?;
    if blocks.last().is_some_and(|&(offset, _)| offset >= payload_len.max(1) as u64) {
        return Err(bad("block offset beyond payload"));
    }
    for (offset, _) in &mut blocks {
        *offset += base;
    }
    let present_rows: Vec<u32> = depths
        .iter()
        .enumerate()
        .filter(|(_, &d)| usize::from(d) >= level)
        .map(|(i, _)| i as u32)
        // lint:allow(L8, open-time directory parse — the per-level lengths array is built once per open)
        .collect();
    // A directory that disagrees with the lengths array would misplace
    // rows silently.
    if rows != present_rows.len() as u64 {
        return Err(bad("block row counts disagree with lengths array"));
    }
    Ok(ColumnDirectory {
        scheme,
        blocks,
        end: base + payload_len as u64,
        lasts,
        row_prefix,
        present_rows,
    })
}

/// The one parse of an index file: a single bounds-checked pass over the
/// sequential format that validates everything an open can know without
/// decoding a block — the magic (a version this reader does not support
/// is named), every depth in `1..=u16::MAX`, one column per level down to
/// the term's deepest posting, the scheme byte, a block count the file
/// can back, last values inside `u32`, the last block offset inside the
/// payload, the payload inside the file, and row counts that add up to
/// the lengths array.  Corrupt files fail with `InvalidData`, never a
/// panic.  Block payloads and scores stay unread.  Returns, per term, its
/// columns (level 1 first).
pub(crate) fn parse_directory(bytes: &[u8]) -> io::Result<HashMap<String, Vec<ColumnDirectory>>> {
    let mut r = ByteReader { bytes, pos: 0 };
    match r.varint("magic")? {
        MAGIC => {}
        m if m >> 8 == MAGIC >> 8 => {
            let version = m & 0xff;
            return Err(bad(&format!(
                "unsupported format version {version} (this reader accepts 4; rebuild the index file)"
            )));
        }
        _ => return Err(bad("bad index magic")),
    }
    let n_terms = r.varint("term count")? as usize;
    let with_scores = r.byte("score flag")? != 0;
    let mut terms = HashMap::new();
    for _ in 0..n_terms {
        let tlen = r.varint("term length")? as usize;
        let term = std::str::from_utf8(r.take(tlen, "term text")?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        let n_postings = r.varint("posting count")? as usize;
        // lint:allow(L8, open-time directory parse — one vec per term, never on the block-decode path)
        let mut depths = Vec::new();
        depths
            .try_reserve(n_postings.min(1 << 24))
            .map_err(|_| bad("posting count too large"))?;
        for _ in 0..n_postings {
            let depth = u16::try_from(r.varint("depth")?).ok().filter(|&d| d > 0);
            depths.push(depth.ok_or_else(|| bad("bad depth"))?);
        }
        if with_scores {
            r.take(4 * n_postings, "scores")?;
        }
        let n_cols = r.varint("column count")? as usize;
        if n_cols != depths.iter().copied().max().map_or(0, usize::from) {
            return Err(bad("column count inconsistent with posting depths"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for level in 1..=n_cols {
            columns.push(parse_column(&mut r, &depths, level)?);
        }
        terms.insert(term, columns);
    }
    Ok(terms)
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
    /// memory column, and every level holds the rows the lengths array
    /// says reach it.
    fn assert_store_matches(ix: &XmlIndex, path: &Path) {
        let store = DiskColumnStore::open(path).unwrap();
        assert_eq!(store.term_names().len(), ix.vocab_size());
        for (_, term) in ix.terms() {
            assert_eq!(usize::from(store.levels_of(&term.term)), term.columns.len());
            for (col, level) in term.columns.iter().zip(1u16..) {
                let dc = store.column(&term.term, level).unwrap();
                assert_eq!(dc.scan().unwrap(), col.runs, "{} level {level}", term.term);
                let deep = term.postings.iter().filter(|&&n| ix.tree().depth(n) >= level).count();
                assert_eq!(dc.row_count(), deep, "{} level {level}", term.term);
            }
        }
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
        let postings: u64 = ix.terms().map(|(_, t)| t.postings.len() as u64).sum();
        let without = WriteIndexOptions { include_scores: false, ..opts };
        assert_eq!(bytes, persisted_file_bytes(&ix, without) + 4 * postings);
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
