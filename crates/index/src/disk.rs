//! On-disk persistence of the columnar JDewey index.
//!
//! The paper stores inverted lists "directly on the disk" rather than in a
//! column store, because the vocabulary is huge and most lists are short.
//! This module implements that file: one vocabulary section and, per term,
//! the posting depths (lengths array), optional local scores, and each
//! column as self-contained compressed blocks (see [`crate::codec`]) with
//! their sparse keys.  Reading decodes back to exact [`Column`]s.
//!
//! Experiments run on the in-memory mirror (the paper's hot-cache setup);
//! the file exists to prove the format and to give Table I honest byte
//! counts.

use crate::codec::{
    choose_scheme, decode_column, encode_column, encode_column_packed, try_read_varint,
    write_varint, BlockLayout, CompressedColumn, Scheme,
};

/// Bounded reader over the raw file bytes: every primitive read reports
/// truncation as `io::Error` instead of panicking, so corrupted files are
/// rejected cleanly.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn bad(what: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt index file: {what}"))
    }

    pub(crate) fn varint(&mut self, what: &str) -> io::Result<u32> {
        try_read_varint(self.bytes, &mut self.pos).ok_or_else(|| Self::bad(what))
    }

    pub(crate) fn byte(&mut self, what: &str) -> io::Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| Self::bad(what))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::bad(what))?;
        if end > self.bytes.len() {
            return Err(Self::bad(what));
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn offset(&self) -> usize {
        self.pos
    }
}
use crate::columnar::Column;
use crate::builder::XmlIndex;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// File magic: "XTK" + format version 1 (no per-block footers).
pub(crate) const MAGIC_V1: u32 = 0x58544B01;
/// File magic: "XTK" + format version 2 (per-block row-count and
/// last-value footers in the directory).
pub(crate) const MAGIC_V2: u32 = 0x58544B02;
/// File magic: "XTK" + format version 3 (v2 directory + bit-packed block
/// payloads).
pub(crate) const MAGIC_V3: u32 = 0x58544B03;

/// On-disk format version.
///
/// * [`V1`](FormatVersion::V1) — the original directory: per block
///   `(offset, first value)`.  Computing the global-row prefix of block
///   `b` requires decoding blocks `0..b`.
/// * [`V2`](FormatVersion::V2) — adds per-block `(row count,
///   last value)` footers, so a reader locates any probe in O(1)
///   directory work and skips blocks whose `[first, last]` range cannot
///   contain the probe.
/// * [`V3`](FormatVersion::V3) — same directory as v2, but block
///   payloads are fixed-width bit-packed lanes
///   ([`BlockLayout::Packed`]) decoded branchlessly instead of LEB128
///   varints.  Readers accept all three versions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Original format, kept writable for compatibility tests.
    V1,
    /// Varint payloads with block footers (the default).
    #[default]
    V2,
    /// Bit-packed payloads with block footers.
    V3,
}

impl FormatVersion {
    /// The physical block layout this format stores.
    pub fn layout(self) -> BlockLayout {
        match self {
            FormatVersion::V1 | FormatVersion::V2 => BlockLayout::Varint,
            FormatVersion::V3 => BlockLayout::Packed,
        }
    }

    /// Whether the directory carries per-block row/last-value footers.
    pub fn has_footers(self) -> bool {
        !matches!(self, FormatVersion::V1)
    }
}

/// Options for writing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteIndexOptions {
    /// Include per-posting local scores (the top-K flavor of the index).
    pub include_scores: bool,
    /// File format version to emit (defaults to the current one).
    pub format: FormatVersion,
}

/// One term as read back from disk.
#[derive(Debug, Clone)]
pub struct PersistedTerm {
    /// Posting depths (the lengths array).
    pub depths: Vec<u16>,
    /// Local scores, when written with `include_scores`.
    pub scores: Option<Vec<f32>>,
    /// Decoded columns (level 1 first), identical to the in-memory ones.
    pub columns: Vec<Column>,
}

/// A reloaded columnar index (postings resolve to `(level, number)` pairs,
/// not node ids — the tree is persisted separately as XML).
#[derive(Debug, Default)]
pub struct PersistedIndex {
    /// Terms by text.
    pub terms: HashMap<String, PersistedTerm>,
}

/// Encodes the file header into `buf`.
fn encode_header(ix: &XmlIndex, opts: WriteIndexOptions, buf: &mut Vec<u8>) {
    let magic = match opts.format {
        FormatVersion::V1 => MAGIC_V1,
        FormatVersion::V2 => MAGIC_V2,
        FormatVersion::V3 => MAGIC_V3,
    };
    write_varint(magic, buf);
    write_varint(ix.vocab_size() as u32, buf);
    buf.push(opts.include_scores as u8);
}

/// Encodes one term record (vocabulary entry, lengths array, optional
/// scores, and every column's directory + payload) into `buf`.
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
        let scheme = choose_scheme(col);
        let cc = match opts.format.layout() {
            BlockLayout::Varint => encode_column(col, scheme),
            BlockLayout::Packed => encode_column_packed(col, scheme),
        };
        buf.push(match scheme {
            Scheme::Delta => 0,
            Scheme::Rle => 1,
        });
        write_varint(cc.block_offsets.len() as u32, buf);
        for b in 0..cc.block_offsets.len() {
            let off = cc.block_offsets.get(b).copied().unwrap_or(0);
            let first = cc.block_first_values.get(b).copied().unwrap_or(0);
            write_varint(off, buf);
            write_varint(first, buf);
            if opts.format.has_footers() {
                // Footer: row count + last value as a delta from the
                // first (values inside a block are non-decreasing, so
                // the delta is small and varints stay short).
                let rows = cc.block_rows.get(b).copied().unwrap_or(0);
                let last = cc.block_last_values.get(b).copied().unwrap_or(first);
                write_varint(rows, buf);
                write_varint(last.saturating_sub(first), buf);
            }
        }
        write_varint(cc.bytes.len() as u32, buf);
        buf.extend_from_slice(&cc.bytes);
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

/// Reads an index file back into memory.
///
/// Malformed or truncated files are rejected with
/// [`io::ErrorKind::InvalidData`] — no panics on corrupt input.
pub fn read_index(path: &Path) -> io::Result<PersistedIndex> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut r = ByteReader::new(&bytes);
    let magic = r.varint("magic")?;
    let format = match magic {
        MAGIC_V1 => FormatVersion::V1,
        MAGIC_V2 => FormatVersion::V2,
        MAGIC_V3 => FormatVersion::V3,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad index magic")),
    };
    let n_terms = r.varint("term count")? as usize;
    let with_scores = r.byte("score flag")? != 0;

    let mut out = PersistedIndex::default();
    for _ in 0..n_terms {
        let tlen = r.varint("term length")? as usize;
        let term = std::str::from_utf8(r.take(tlen, "term text")?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        let n_postings = r.varint("posting count")? as usize;
        // lint:allow(L8, load-time file parse — one vec per term, not on the query path)
        let mut depths = Vec::new();
        depths.try_reserve(n_postings.min(1 << 24)).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "posting count too large")
        })?;
        for _ in 0..n_postings {
            let d = r.varint("depth")?;
            if d == 0 || d > u16::MAX as u32 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad depth"));
            }
            depths.push(d as u16);
        }
        let scores = if with_scores {
            let raw = r.take(4 * n_postings, "scores")?;
            let mut s = Vec::with_capacity(n_postings);
            for c in raw.chunks_exact(4) {
                let mut le = [0u8; 4];
                le.copy_from_slice(c);
                s.push(f32::from_le_bytes(le));
            }
            Some(s)
        } else {
            None
        };
        let n_cols = r.varint("column count")? as usize;
        let max_depth = depths.iter().copied().max().unwrap_or(0) as usize;
        if n_cols != max_depth {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "column count inconsistent with posting depths",
            ));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for level0 in 0..n_cols {
            let scheme = match r.byte("scheme")? {
                0 => Scheme::Delta,
                1 => Scheme::Rle,
                x => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        // lint:allow(L8, error construction on the corrupt-file bail-out)
                        format!("bad scheme byte {x}"),
                    ))
                }
            };
            let n_blocks = r.varint("block count")? as usize;
            // lint:allow(L8, load-time file parse — per-column directory vecs, not on the query path)
            let mut block_offsets = Vec::new();
            // lint:allow(L8, load-time file parse — per-column directory vecs, not on the query path)
            let mut block_first_values = Vec::new();
            // lint:allow(L8, load-time file parse — per-column directory vecs, not on the query path)
            let mut block_rows = Vec::new();
            // lint:allow(L8, load-time file parse — per-column directory vecs, not on the query path)
            let mut block_last_values = Vec::new();
            for _ in 0..n_blocks {
                block_offsets.push(r.varint("block offset")?);
                let first = r.varint("block first value")?;
                block_first_values.push(first);
                if format.has_footers() {
                    block_rows.push(r.varint("block row count")?);
                    let span = r.varint("block last-value delta")?;
                    block_last_values.push(first.checked_add(span).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "block last value overflow")
                    })?);
                }
            }
            let payload_len = r.varint("payload length")? as usize;
            // lint:allow(L8, load-time file parse — the owned payload copy IS the loaded column)
            let payload = r.take(payload_len, "payload")?.to_vec();
            if let Some(&last) = block_offsets.last() {
                if last as usize >= payload_len.max(1) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "block offset beyond payload",
                    ));
                }
            }
            let cc = CompressedColumn {
                scheme,
                layout: format.layout(),
                bytes: payload,
                block_offsets,
                block_first_values,
                block_rows,
                block_last_values,
            };
            // Present rows at level l: postings with depth >= l.
            let level = (level0 + 1) as u16;
            let present: Vec<u32> = depths
                .iter()
                .enumerate()
                .filter(|(_, &d)| d >= level)
                .map(|(i, _)| i as u32)
                // lint:allow(L8, load-time file parse — the per-level lengths array is built once per load)
                .collect();
            columns.push(try_decode(&cc, &present)?);
        }
        out.terms.insert(term, PersistedTerm { depths, scores, columns });
    }
    Ok(out)
}

/// Decode with corruption mapped to an error (a block whose contents do
/// not line up with the lengths array indicates a damaged file).
fn try_decode(cc: &CompressedColumn, present: &[u32]) -> io::Result<crate::columnar::Column> {
    decode_column(cc, present)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "inconsistent column payload"))
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
    use xtk_xml::parse;
    use xtk_xml::testutil::TempPath;

    fn tmp(name: &str) -> TempPath {
        TempPath::new(&format!("xtk_disk_test_{name}"))
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
        let loaded = read_index(&path).unwrap();
        assert_eq!(loaded.terms.len(), ix.vocab_size());
        for (_, term) in ix.terms() {
            let lt = &loaded.terms[&*term.term];
            assert_eq!(lt.columns, term.columns, "columns must round-trip for {}", term.term);
            assert_eq!(lt.scores.as_ref().unwrap(), &term.scores);
            let depths: Vec<u16> =
                term.postings.iter().map(|&n| ix.tree().depth(n)).collect();
            assert_eq!(lt.depths, depths);
        }
    }

    #[test]
    fn roundtrip_without_scores() {
        let ix = XmlIndex::build(parse("<r><a>w w w</a><b>w</b></r>").unwrap());
        let path = tmp("noscores");
        write_index(&ix, &path, WriteIndexOptions::default()).unwrap();
        let loaded = read_index(&path).unwrap();
        assert!(loaded.terms["w"].scores.is_none());
        assert_eq!(loaded.terms["w"].columns, ix.term_by_str("w").unwrap().columns);
    }

    #[test]
    fn v1_files_still_read_identically() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<p><t>old format{} data</t></p>", i % 13));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let p1 = tmp("v1compat");
        let p2 = tmp("v2compat");
        let b1 = write_index(
            &ix,
            &p1,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V1 },
        )
        .unwrap();
        let b2 = write_index(
            &ix,
            &p2,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V2 },
        )
        .unwrap();
        // Footers cost bytes; v1 must stay strictly smaller.
        assert!(b1 < b2, "v1 {b1} vs v2 {b2}");
        let l1 = read_index(&p1).unwrap();
        let l2 = read_index(&p2).unwrap();
        assert_eq!(l1.terms.len(), l2.terms.len());
        for (term, t1) in &l1.terms {
            let t2 = &l2.terms[term.as_str()];
            assert_eq!(t1.columns, t2.columns, "columns differ for {term}");
            assert_eq!(t1.depths, t2.depths);
        }
    }

    #[test]
    fn v3_files_read_identically_to_v2() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<p><t>packed format{} data</t></p>", i % 13));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let p2 = tmp("v2packed");
        let p3 = tmp("v3packed");
        write_index(
            &ix,
            &p2,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V2 },
        )
        .unwrap();
        write_index(
            &ix,
            &p3,
            WriteIndexOptions { include_scores: true, format: FormatVersion::V3 },
        )
        .unwrap();
        let l2 = read_index(&p2).unwrap();
        let l3 = read_index(&p3).unwrap();
        assert_eq!(l2.terms.len(), l3.terms.len());
        for (term, t2) in &l2.terms {
            let t3 = &l3.terms[term.as_str()];
            assert_eq!(t2.columns, t3.columns, "columns differ for {term}");
            assert_eq!(t2.depths, t3.depths);
            assert_eq!(t2.scores, t3.scores);
        }
    }

    #[test]
    fn persisted_file_bytes_matches_writer_for_both_formats() {
        let ix = XmlIndex::build(
            parse("<r><a><p>exact size</p></a><b>size accounting exact</b></r>").unwrap(),
        );
        for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
            for include_scores in [false, true] {
                let opts = WriteIndexOptions { include_scores, format };
                let path = tmp(&format!("sz_{format:?}_{include_scores}"));
                let written = write_index(&ix, &path, opts).unwrap();
                assert_eq!(written, std::fs::metadata(&path).unwrap().len());
                assert_eq!(written, persisted_file_bytes(&ix, opts), "{opts:?}");
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, [1, 2, 3, 4, 5]).unwrap();
        assert!(read_index(&path).is_err());
    }
}
