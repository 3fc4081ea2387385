//! Column compression (paper §III-D).
//!
//! Two schemes, both from the C-Store lineage the paper cites:
//!
//! * **Delta** — for columns with many distinct values (e.g. the leaf-most
//!   column): one entry per present row; the first value of each disk block
//!   is stored raw and every subsequent value as a delta from its
//!   predecessor.  This recovers the Dewey encoding's "small sibling
//!   numbers" advantage, because consecutive JDewey numbers in a sorted
//!   column are close.
//! * **Rle** — for columns with few distinct values (upper levels): each
//!   run of equal numbers becomes a `(value-delta, run-length)` pair — the
//!   paper's `(v, r, c)` triple with `r` left implicit (it is the running
//!   sum of the lengths).
//!
//! Inside a block the entries are fixed-width bit-packed lanes: per lane,
//! a 1-byte width chosen from the block's largest entry, then every entry
//! at exactly that many bits.  Decoding is a branchless chunked loop (8
//! entries at a time from 64-bit windows) instead of a data-dependent
//! branch per byte.
//!
//! Values are arranged in 4 KiB blocks; each block is self-contained
//! (restarts the delta base) and ends at a run boundary, which is what the
//! block directory — one [`BlockEntry`] per block, the paper's sparse
//! index — points into.  A block's row count and first value are stored
//! there and nowhere else: the decoder is handed both.  The row
//! coordinates themselves are not stored per column: the per-term
//! *lengths array* (depth of each posting) determines which global rows
//! are present at each level, so decoding reconstructs exact global-row
//! runs.
//!
//! Decoding goes through a per-thread [`DecodeScratch`] arena
//! ([`with_decode_scratch`]) so the hot path performs no per-block
//! allocation: run/delta/length buffers retain their capacity across
//! blocks and columns, and callers freeze the finished runs into whatever
//! owned form they need (`Vec<Run>` here, `Arc<[Run]>` in the block cache).

use crate::columnar::{Column, Run};
use std::cell::RefCell;

/// Target byte size of one compressed block (paper: disk blocks).
pub const BLOCK_SIZE: usize = 4096;

/// Compression scheme chosen for a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// One delta per present row; good for high-cardinality columns.
    Delta,
    /// One `(value-delta, run-length)` pair per run; good for
    /// low-cardinality columns.
    Rle,
}

/// One block-directory entry — the paper's sparse-index entry, widened by
/// the row count and last value that let a reader place any probe without
/// decoding.  The encoder emits it, [`crate::disk`] writes and parses it,
/// and the store's resident directory is filled from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset of the block in the column payload.
    pub offset: u32,
    /// First (smallest) value stored in the block.
    pub first: u32,
    /// Rows encoded in the block — stored here only, never in the block —
    /// so a running sum gives the global-row prefix of any block in O(1).
    pub rows: u32,
    /// Last (largest) value stored in the block; probes outside
    /// `[first, last]` skip the decode outright.
    pub last: u32,
}

/// A compressed column: self-contained blocks plus their directory.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedColumn {
    /// Scheme used for every block of this column.
    pub scheme: Scheme,
    /// Concatenated block payloads.
    pub bytes: Vec<u8>,
    /// One entry per block, in block order.
    pub blocks: Vec<BlockEntry>,
}

impl CompressedColumn {
    /// Total payload size in bytes (excluding the directory, which
    /// [`crate::sizes`] accounts separately).
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Opens a block at the end of the payload: its directory entry.  The
    /// block's first value lives there alone, not in the payload.
    fn begin_block(&mut self, first: u32, rows: u32, last: u32) {
        self.blocks.push(BlockEntry { offset: self.bytes.len() as u32, first, rows, last });
    }
}

/// Bytes a block's first value is charged against [`BLOCK_SIZE`] when the
/// encoder cuts blocks.  The value sits in the directory entry, not the
/// payload (file version 5), but a payload of `BLOCK_SIZE - FIRST_BYTES`
/// keeps every cut where version 4 made it, and with the cuts every
/// block count and decode count.
const FIRST_BYTES: usize = 4;

/// Appends a LEB128 varint.
pub fn write_varint(mut v: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_varint`] emits for `v`, for size accounting
/// that must match the writer byte for byte.
pub fn varint_len(mut v: u32) -> usize {
    let mut n = 1;
    v >>= 7;
    while v != 0 {
        n += 1;
        v >>= 7;
    }
    n
}

/// Reads a LEB128 varint, advancing `pos`: `None` on truncation or a
/// varint longer than a `u32` allows — a fifth byte above `0x0f` included,
/// whose bits a shift would drop.
pub fn try_read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 28 && byte > 0x0f {
            return None;
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 35 {
            return None;
        }
    }
}

/// Picks the scheme the paper prescribes: RLE when duplicates dominate
/// (distinct values < half the rows), delta otherwise.
pub fn choose_scheme(runs: &[Run]) -> Scheme {
    let col = Column { runs };
    let rows = col.row_count();
    if (col.distinct() as u64) * 2 < rows {
        Scheme::Rle
    } else {
        Scheme::Delta
    }
}

// ---------------------------------------------------------------------------
// Bit-packed lanes

/// Bits needed to represent `v` exactly (0 for 0, 32 for `u32::MAX`).
/// This is the per-block lane-width rule: a block's width is the maximum
/// `bit_width` over its entries.
fn bit_width(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Exact byte length of a lane holding `count` entries of `width` bits.
fn lane_bytes(count: usize, width: u32) -> usize {
    ((count as u64 * width as u64).div_ceil(8)) as usize
}

/// Appends `vals` LSB-first at `width` bits each.  Entries must satisfy
/// `bit_width(v) <= width`; the writer chooses `width` as the block max.
fn pack_lane(vals: &[u32], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return; // every entry is zero; the lane is empty by definition
    }
    out.reserve(lane_bytes(vals.len(), width));
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in vals {
        // nbits < 8 here, width <= 32, so at most 39 bits are in flight.
        acc |= (v as u64) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

/// Decodes a lane of exactly `count` entries at `width` bits into `out`.
///
/// The lane length must be exact (`lane_bytes(count, width)`); trailing or
/// missing bytes reject the block.  The lane is staged into `padded` with
/// eight zero bytes appended so every entry reads one aligned 64-bit
/// window — the inner loop is branchless (no per-byte continuation test,
/// no tail bounds check) and unrolls 8 entries at a time.
fn unpack_lane(
    lane: &[u8],
    width: u32,
    count: usize,
    padded: &mut Vec<u8>,
    out: &mut Vec<u32>,
) -> Option<()> {
    out.clear();
    if lane.len() as u64 != (count as u64 * width as u64).div_ceil(8) {
        return None;
    }
    if width == 0 {
        out.resize(count, 0);
        return Some(());
    }
    padded.clear();
    padded.extend_from_slice(lane);
    padded.extend_from_slice(&[0u8; 8]);
    out.reserve(count);
    let mask = (1u64 << width) - 1;
    let width = width as usize;
    let mut bit = 0usize;
    let mut chunk = [0u32; 8];
    let mut remaining = count;
    while remaining >= 8 {
        for slot in &mut chunk {
            let byte = bit >> 3;
            // Always in bounds: byte + 8 <= lane.len() + 8 == padded.len();
            // the `?`s exist only to keep the function panic-free.
            let window = u64::from_le_bytes(padded.get(byte..byte + 8)?.try_into().ok()?);
            *slot = ((window >> (bit & 7)) & mask) as u32;
            bit += width;
        }
        out.extend_from_slice(&chunk);
        remaining -= 8;
    }
    for _ in 0..remaining {
        let byte = bit >> 3;
        let window = u64::from_le_bytes(padded.get(byte..byte + 8)?.try_into().ok()?);
        out.push(((window >> (bit & 7)) & mask) as u32);
        bit += width;
    }
    Some(())
}

// ---------------------------------------------------------------------------
// Encoding

/// Compresses a column with the given scheme.
///
/// Block wire format (the first value and the row count are the
/// directory entry's, [`BlockEntry::first`] and [`BlockEntry::rows`]):
///
/// * `Delta`: `[width: u8][packed deltas]` — the block's `rows − 1` value
///   deltas at `width` bits, the maximum [`bit_width`] over them.
/// * `Rle`: `[pairs: varint][vwidth: u8][lwidth: u8][packed value
///   deltas][packed lengths]` — `pairs - 1` value deltas (the first
///   run's delta is implicitly 0) then `pairs` run lengths, each lane at
///   its own block-max width.
///
/// Every lane is exact-length: a decoder rejects a block whose lane bytes
/// disagree with the entry count and width.  Blocks are cut greedily so
/// the encoded block size plus [`FIRST_BYTES`] never exceeds
/// [`BLOCK_SIZE`], and only between runs, so a reader never sees one run
/// in two blocks.
pub fn encode_column(runs: &[Run], scheme: Scheme) -> CompressedColumn {
    let mut cc = CompressedColumn { scheme, bytes: Vec::new(), blocks: Vec::new() };
    match scheme {
        Scheme::Delta => encode_delta(runs, &mut cc),
        Scheme::Rle => encode_rle(runs, &mut cc),
    }
    cc
}

/// Appends one block: its directory entry, RLE's pair count, then the
/// lane widths and lanes.
fn flush_block(
    cc: &mut CompressedColumn,
    (first, rows, last): (u32, u32, u32),
    pairs: Option<u32>,
    lanes: &[(&[u32], u32)],
) {
    cc.begin_block(first, rows, last);
    if let Some(pairs) = pairs {
        write_varint(pairs, &mut cc.bytes);
    }
    for &(_, width) in lanes {
        cc.bytes.push(width as u8);
    }
    for &(vals, width) in lanes {
        pack_lane(vals, width, &mut cc.bytes);
    }
}

fn encode_delta(runs: &[Run], cc: &mut CompressedColumn) {
    let mut deltas: Vec<u32> = Vec::new();
    // The open block's first value, last value and lane width.
    let mut open: Option<(u32, u32, u32)> = None;
    for run in runs {
        let zeros = run.len.saturating_sub(1) as usize;
        if let Some((first, last, width)) = open {
            let d = run.value - last;
            let w = width.max(bit_width(d));
            if FIRST_BYTES + 1 + lane_bytes(deltas.len() + 1 + zeros, w) <= BLOCK_SIZE {
                deltas.push(d);
                deltas.resize(deltas.len() + zeros, 0);
                open = Some((first, run.value, w));
                continue;
            }
            let rows = deltas.len() as u32 + 1;
            flush_block(cc, (first, rows, last), None, &[(&deltas, width)]);
        }
        // A run that opens a block is its first value and zero deltas at
        // width 0 — one payload byte whatever its length, so it always fits.
        deltas.clear();
        deltas.resize(zeros, 0);
        open = Some((run.value, run.value, 0));
    }
    if let Some((first, last, width)) = open {
        let rows = deltas.len() as u32 + 1;
        flush_block(cc, (first, rows, last), None, &[(&deltas, width)]);
    }
}

fn encode_rle(runs: &[Run], cc: &mut CompressedColumn) {
    let mut first: Option<u32> = None;
    let mut prev = 0u32;
    let mut rows = 0u32;
    let mut vdeltas: Vec<u32> = Vec::new();
    let mut lens: Vec<u32> = Vec::new();
    let (mut vw, mut lw) = (0u32, 0u32);
    for run in runs {
        match first {
            None => {
                first = Some(run.value);
                lens.push(run.len);
                lw = bit_width(run.len);
                rows = run.len;
            }
            Some(f) => {
                let d = run.value - prev;
                let nvw = vw.max(bit_width(d));
                let nlw = lw.max(bit_width(run.len));
                let pairs = lens.len() + 1;
                let size = FIRST_BYTES
                    + varint_len(pairs as u32)
                    + 2
                    + lane_bytes(pairs - 1, nvw)
                    + lane_bytes(pairs, nlw);
                if size > BLOCK_SIZE {
                    let pairs = Some(lens.len() as u32);
                    flush_block(cc, (f, rows, prev), pairs, &[(&vdeltas, vw), (&lens, lw)]);
                    vdeltas.clear();
                    lens.clear();
                    first = Some(run.value);
                    lens.push(run.len);
                    vw = 0;
                    lw = bit_width(run.len);
                    rows = run.len;
                } else {
                    vdeltas.push(d);
                    lens.push(run.len);
                    vw = nvw;
                    lw = nlw;
                    rows += run.len;
                }
            }
        }
        prev = run.value;
    }
    if let Some(f) = first {
        let pairs = Some(lens.len() as u32);
        flush_block(cc, (f, rows, prev), pairs, &[(&vdeltas, vw), (&lens, lw)]);
    }
}

// ---------------------------------------------------------------------------
// Decoding

/// Reusable per-thread decode buffers.
///
/// Every buffer retains its capacity across blocks and columns, so steady
/// state decoding performs no allocation: the packed lanes land in
/// `deltas`/`lens`, the padded lane copy in `padded`, and the
/// reconstructed runs accumulate in `runs`.  Callers clear `runs` at the
/// granularity they freeze (per column in [`decode_column`], per block in
/// the disk store) and copy the finished slice into its owned form.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Reconstructed runs; cleared by the caller, capacity retained.
    pub runs: Vec<Run>,
    deltas: Vec<u32>,
    lens: Vec<u32>,
    padded: Vec<u8>,
}

thread_local! {
    static DECODE_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Runs `f` with this thread's [`DecodeScratch`] arena.
///
/// Pool workers are long-lived threads, so the arena amortizes to zero
/// allocations per decoded block.  Re-entrant use (a caller already
/// inside the closure decoding again) falls back to a fresh scratch
/// instead of panicking on the `RefCell`.
pub fn with_decode_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    DECODE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DecodeScratch::default()),
    })
}

/// Streaming run builder: merges consecutive `(value, row)` emissions into
/// [`Run`]s, keeping the open run in a register instead of re-reading
/// `runs.last_mut()` on every entry.  Blocks end at run boundaries, so a
/// block's runs never continue the previous block's.  Inline records
/// ([`crate::disk::InlineWalk`]) emit through it too.
#[derive(Default)]
pub(crate) struct RunEmitter {
    cur: Option<Run>,
}

impl RunEmitter {
    #[inline]
    pub(crate) fn one(&mut self, runs: &mut Vec<Run>, value: u32, row: u32) {
        match &mut self.cur {
            Some(c) if c.value == value && c.end() == row => c.len += 1,
            cur => {
                if let Some(c) = cur.take() {
                    runs.push(c);
                }
                *cur = Some(Run { value, start: row, len: 1 });
            }
        }
    }

    /// Emits one value over a batch of rows.  `rows` is a strictly
    /// increasing slice of global row ids, so one O(1) span test
    /// (`last - first == len - 1`) decides whether the whole batch is a
    /// single contiguous run; only gapped batches fall back to per-row
    /// emission.
    fn many(&mut self, runs: &mut Vec<Run>, value: u32, rows: &[u32]) {
        let (Some(&fst), Some(&lst)) = (rows.first(), rows.last()) else {
            return;
        };
        if (lst - fst) as usize == rows.len() - 1 {
            match &mut self.cur {
                Some(c) if c.value == value && c.end() == fst => c.len += rows.len() as u32,
                cur => {
                    if let Some(c) = cur.take() {
                        runs.push(c);
                    }
                    *cur = Some(Run { value, start: fst, len: rows.len() as u32 });
                }
            }
        } else {
            for &row in rows {
                self.one(runs, value, row);
            }
        }
    }

    pub(crate) fn finish(self, runs: &mut Vec<Run>) {
        if let Some(c) = self.cur {
            runs.push(c);
        }
    }
}

/// Decodes one self-contained block, appending its runs to
/// `scratch.runs`.
///
/// `(first, last)` are the block's first and last value and `rows` the
/// global row ids of exactly the block's rows, all from its directory
/// entry.  `None` on any malformed payload — truncated header, bad
/// varint, wrong lane length, deltas that do not lead from `first` to
/// `last`, or a payload that covers another number of rows — so callers
/// reading untrusted bytes reject corruption without a panic.
pub fn decode_block_into(
    scheme: Scheme,
    (first, last): (u32, u32),
    block: &[u8],
    rows: &[u32],
    scratch: &mut DecodeScratch,
) -> Option<()> {
    match scheme {
        Scheme::Delta => {
            let (&row0, tail) = rows.split_first()?;
            let width = u32::from(*block.first()?);
            if width > 32 {
                return None;
            }
            unpack_lane(block.get(1..)?, width, tail.len(), &mut scratch.padded, &mut scratch.deltas)?;
            // One up-front pass proves two things at once: the deltas
            // lead from the directory's first value to its last (so the
            // plain `+=` below never leaves u32, and a torn lane is
            // refused), and — when every delta is nonzero — the values
            // are strictly increasing, so no entry can merge with its
            // predecessor and run-building needs no per-entry comparisons
            // at all.
            let (mut sum, mut min) = (0u64, u32::MAX);
            for &d in &scratch.deltas {
                sum += u64::from(d);
                min = min.min(d);
            }
            if first as u64 + sum != last as u64 {
                return None;
            }
            let (runs, deltas) = (&mut scratch.runs, &scratch.deltas);
            let mut value = first;
            if min > 0 {
                // Branchless fast path: every row is a run of its own.
                runs.reserve(rows.len());
                runs.push(Run { value, start: row0, len: 1 });
                for (&d, &row) in deltas.iter().zip(tail) {
                    value += d;
                    runs.push(Run { value, start: row, len: 1 });
                }
            } else {
                let mut em = RunEmitter::default();
                em.one(runs, value, row0);
                for (&d, &row) in deltas.iter().zip(tail) {
                    value += d;
                    em.one(runs, value, row);
                }
                em.finish(runs);
            }
            Some(())
        }
        Scheme::Rle => {
            let mut pos = 0usize;
            let pairs = try_read_varint(block, &mut pos)? as usize;
            // Each pair holds at least one row, so a well-formed block
            // never has more pairs than rows; rejecting here also bounds
            // the lane allocations below.
            if pairs == 0 || pairs > rows.len() {
                return None;
            }
            let vw = u32::from(*block.get(pos)?);
            pos += 1;
            let lw = u32::from(*block.get(pos)?);
            pos += 1;
            if vw > 32 || lw > 32 {
                return None;
            }
            let vbytes = lane_bytes(pairs - 1, vw);
            let vlane = block.get(pos..pos.checked_add(vbytes)?)?;
            pos += vbytes;
            unpack_lane(vlane, vw, pairs - 1, &mut scratch.padded, &mut scratch.deltas)?;
            unpack_lane(block.get(pos..)?, lw, pairs, &mut scratch.padded, &mut scratch.lens)?;
            let sum: u64 = scratch.deltas.iter().map(|&d| d as u64).sum();
            if first as u64 + sum != last as u64 {
                return None;
            }
            let total: u64 = scratch.lens.iter().map(|&l| l as u64).sum();
            if total != rows.len() as u64 {
                return None;
            }
            let (runs, deltas, lens) = (&mut scratch.runs, &scratch.deltas, &scratch.lens);
            let mut em = RunEmitter::default();
            let mut value = first;
            let mut used = 0usize;
            for (&len, &d) in lens.iter().zip(std::iter::once(&0u32).chain(deltas.iter())) {
                value += d;
                let len = len as usize;
                em.many(runs, value, rows.get(used..used + len)?);
                used += len;
            }
            em.finish(runs);
            Some(())
        }
    }
}

/// Decodes every block of `cc`, appending the reconstructed runs to
/// `scratch.runs` (which the caller clears at its freeze granularity).
///
/// `None` when any block is malformed or the directory's row counts
/// disagree with `present_rows`.
pub fn decode_column_into(
    cc: &CompressedColumn,
    present_rows: &[u32],
    scratch: &mut DecodeScratch,
) -> Option<()> {
    let mut consumed = 0usize;
    for (b, entry) in cc.blocks.iter().enumerate() {
        let end = cc.blocks.get(b + 1).map_or(cc.bytes.len(), |next| next.offset as usize);
        let block = cc.bytes.get(entry.offset as usize..end)?;
        let next = consumed.checked_add(entry.rows as usize)?;
        let rows = present_rows.get(consumed..next)?;
        decode_block_into(cc.scheme, (entry.first, entry.last), block, rows, scratch)?;
        consumed = next;
    }
    // Rows the directory leaves out disagree with the lengths array.
    (consumed == present_rows.len()).then_some(())
}

/// Decompresses a column.
///
/// `present_rows` are the global row ids present at this level (rows whose
/// posting depth reaches the level), in order; it drives the
/// reconstruction of exact global-row runs.
///
/// Decoding runs through the per-thread [`DecodeScratch`] arena, so the
/// only allocation per call is the final exact-size `Vec<Run>` copy.
/// Returns the column's runs.
///
/// Returns `None` when the payload is malformed (truncated block header,
/// varint or packed lane, or row counts that disagree with
/// `present_rows`), so callers reading untrusted bytes can reject
/// corruption without a panic.
pub fn decode_column(cc: &CompressedColumn, present_rows: &[u32]) -> Option<Vec<Run>> {
    with_decode_scratch(|scratch| {
        scratch.runs.clear();
        decode_column_into(cc, present_rows, scratch)?;
        Some(scratch.runs.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(runs: &[(u32, u32, u32)]) -> Vec<Run> {
        runs.iter().map(|&(value, start, len)| Run { value, start, len }).collect()
    }

    fn present_rows(c: &[Run]) -> Vec<u32> {
        c.iter().flat_map(|r| r.rows()).collect()
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &values {
            write_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(try_read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Five bytes hold 35 bits: a fifth byte past u32 is refused, not
        // truncated into a wrong value; a sixth never reached.
        for past in [[0xff, 0xff, 0xff, 0xff, 0x10], [0x80, 0x80, 0x80, 0x80, 0x7f]] {
            assert_eq!(try_read_varint(&past, &mut 0), None, "{past:?}");
        }
        assert_eq!(try_read_varint(&[0xff, 0xff, 0xff, 0xff, 0x0f], &mut 0), Some(u32::MAX));
        assert_eq!(try_read_varint(&[0x80; 6], &mut 0), None);
    }

    #[test]
    fn delta_roundtrip_dense_rows() {
        let c = col(&[(3, 0, 1), (7, 1, 1), (8, 2, 1), (20, 3, 1)]);
        let cc = encode_column(&c, Scheme::Delta);
        assert_eq!(decode_column(&cc, &present_rows(&c)), Some(c));
    }

    #[test]
    fn rle_roundtrip_with_duplicates() {
        let c = col(&[(2, 0, 5), (4, 5, 1), (9, 6, 10)]);
        let cc = encode_column(&c, Scheme::Rle);
        assert_eq!(decode_column(&cc, &present_rows(&c)).as_ref(), Some(&c));
        // RLE of 16 rows in 3 runs is much smaller than one entry per row.
        let dd = encode_column(&c, Scheme::Delta);
        assert!(cc.payload_bytes() < dd.payload_bytes());
    }

    #[test]
    fn roundtrip_with_row_gaps() {
        // Rows 0,1 then a gap (row 2 absent at this level) then rows 3,4.
        let c = col(&[(5, 0, 2), (6, 3, 2)]);
        for scheme in [Scheme::Delta, Scheme::Rle] {
            let cc = encode_column(&c, scheme);
            assert_eq!(decode_column(&cc, &[0, 1, 3, 4]).as_ref(), Some(&c), "{scheme:?}");
        }
    }

    #[test]
    fn duplicate_values_across_gap_stay_separate_runs() {
        // Same value in two runs separated by a row gap (cannot happen for
        // real JDewey columns but the codec must not merge them).
        let c = col(&[(5, 0, 2), (5, 3, 1)]);
        let cc = encode_column(&c, Scheme::Rle);
        assert_eq!(decode_column(&cc, &[0, 1, 3]), Some(c));
    }

    #[test]
    fn blocks_split_and_sparse_keys_match() {
        // Enough rows to span several blocks.
        let runs: Vec<(u32, u32, u32)> =
            (0..20_000).map(|i| (i * 3, i, 1)).collect();
        let c = col(&runs);
        let cc = encode_column(&c, Scheme::Delta);
        assert!(cc.block_count() > 1);
        // Every block decodes alone from its sparse key: its first run is
        // the key's first value.
        let present = present_rows(&c);
        let mut at = 0usize;
        for (i, b) in cc.blocks.iter().enumerate() {
            let end = cc.blocks.get(i + 1).map_or(cc.bytes.len(), |next| next.offset as usize);
            let rows = &present[at..at + b.rows as usize];
            let mut scratch = DecodeScratch::default();
            let block = &cc.bytes[b.offset as usize..end];
            let span = (b.first, b.last);
            assert_eq!(decode_block_into(Scheme::Delta, span, block, rows, &mut scratch), Some(()));
            assert_eq!(scratch.runs[0].value, b.first);
            at += b.rows as usize;
        }
        assert_eq!(decode_column(&cc, &present), Some(c));
    }

    #[test]
    fn scheme_choice_follows_duplication() {
        let many_distinct = col(&[(1, 0, 1), (2, 1, 1), (3, 2, 1)]);
        assert_eq!(choose_scheme(&many_distinct), Scheme::Delta);
        let few_distinct = col(&[(1, 0, 10), (2, 10, 10)]);
        assert_eq!(choose_scheme(&few_distinct), Scheme::Rle);
    }

    #[test]
    fn footers_bracket_each_block() {
        for (scheme, runs) in [
            (Scheme::Delta, (0..20_000).map(|i| (i * 3, i, 1)).collect::<Vec<_>>()),
            (Scheme::Rle, (0..9_000).map(|i| (i * 2, i * 3, 3)).collect::<Vec<_>>()),
        ] {
            let cc = encode_column(&col(&runs), scheme);
            assert!(cc.block_count() > 1, "{scheme:?}");
            // Row counts per block sum to the column's total.
            let total: u64 = cc.blocks.iter().map(|b| b.rows as u64).sum();
            assert_eq!(total, Column { runs: &col(&runs) }.row_count(), "{scheme:?}");
            // first <= last within a block; blocks ordered and non-empty.
            for b in &cc.blocks {
                assert!(b.first <= b.last && b.rows > 0, "{b:?}");
            }
            for w in cc.blocks.windows(2) {
                assert!(w[0].last <= w[1].first && w[0].offset < w[1].offset, "{w:?}");
            }
        }
    }

    #[test]
    fn empty_column_roundtrip() {
        let c: Vec<Run> = vec![];
        for scheme in [Scheme::Delta, Scheme::Rle] {
            let cc = encode_column(&c, scheme);
            assert_eq!(cc.payload_bytes(), 0);
            assert_eq!(decode_column(&cc, &[]).as_ref(), Some(&c));
        }
    }

    #[test]
    fn bit_width_rule() {
        assert_eq!(bit_width(0), 0);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u32::MAX), 32);
    }

    #[test]
    fn lane_pack_unpack_roundtrip() {
        let mut scratch = DecodeScratch::default();
        for width in [0u32, 1, 2, 3, 7, 8, 13, 17, 31, 32] {
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            // A mix of lane lengths exercising the 8-at-a-time chunks and
            // the tail loop, with values touching the width's extremes.
            for count in [0usize, 1, 7, 8, 9, 16, 41] {
                let vals: Vec<u32> =
                    (0..count as u32).map(|i| (i.wrapping_mul(0x9e37_79b9)) & mask).collect();
                let mut lane = Vec::new();
                pack_lane(&vals, width, &mut lane);
                assert_eq!(lane.len(), lane_bytes(count, width), "w={width} n={count}");
                let mut out = Vec::new();
                assert_eq!(
                    unpack_lane(&lane, width, count, &mut scratch.padded, &mut out),
                    Some(()),
                    "w={width} n={count}"
                );
                assert_eq!(out, vals, "w={width} n={count}");
                // A lane with a stray trailing byte (or one byte short)
                // is rejected: lane lengths are exact.
                if width > 0 && count > 0 {
                    let mut long = lane.clone();
                    long.push(0);
                    assert_eq!(unpack_lane(&long, width, count, &mut scratch.padded, &mut out), None);
                    let mut short = lane.clone();
                    short.pop();
                    assert_eq!(unpack_lane(&short, width, count, &mut scratch.padded, &mut out), None);
                }
            }
        }
    }

    #[test]
    fn roundtrip_edge_cases() {
        let cases = [
            vec![(3, 0, 1), (7, 1, 1), (8, 2, 1), (20, 3, 1)],
            vec![(2, 0, 5), (4, 5, 1), (9, 6, 10)],
            vec![(5, 0, 2), (6, 3, 2)],
            vec![(5, 0, 2), (5, 3, 1)],
            vec![(0, 0, 1), (u32::MAX, 1, 1)], // forces a 32-bit lane
        ];
        for runs in &cases {
            let c = col(runs);
            for scheme in [Scheme::Delta, Scheme::Rle] {
                let cc = encode_column(&c, scheme);
                assert_eq!(decode_column(&cc, &present_rows(&c)).as_ref(), Some(&c), "{scheme:?}");
            }
        }
    }

    #[test]
    fn packed_blocks_split_and_roundtrip() {
        for (scheme, runs) in [
            (Scheme::Delta, (0..20_000).map(|i| (i * 3, i, 1)).collect::<Vec<_>>()),
            (Scheme::Rle, (0..9_000).map(|i| (i * 2, i * 3, 3)).collect::<Vec<_>>()),
        ] {
            let c = col(&runs);
            let cc = encode_column(&c, scheme);
            assert!(cc.block_count() > 1, "{scheme:?}");
            // Greedy cut rule: no encoded block with its first value
            // exceeds BLOCK_SIZE.
            for b in 0..cc.block_count() {
                let start = cc.blocks[b].offset as usize;
                let end = cc.blocks.get(b + 1).map_or(cc.bytes.len(), |next| next.offset as usize);
                assert!(FIRST_BYTES + end - start <= BLOCK_SIZE, "{scheme:?} block {b}");
            }
            assert_eq!(decode_column(&cc, &present_rows(&c)), Some(c));
        }
    }

    #[test]
    fn packed_is_smaller_on_uniform_small_deltas() {
        // Deltas of 3 need 2 bits: a delta block is one width byte and
        // `rows - 1` two-bit deltas — no first value or row count, which
        // the directory holds — so 10 000 rows fit in about 2.5 kB.
        let runs: Vec<(u32, u32, u32)> = (0..10_000).map(|i| (i * 3, i, 1)).collect();
        let cc = encode_column(&col(&runs), Scheme::Delta);
        let exact: usize = cc.blocks.iter().map(|b| 1 + lane_bytes(b.rows as usize - 1, 2)).sum();
        assert_eq!(cc.payload_bytes(), exact);
        assert!(cc.payload_bytes() * 3 < runs.len(), "{} bytes", cc.payload_bytes());
    }

    #[test]
    fn delta_blocks_end_at_run_boundaries() {
        // Runs of one and two rows under wide deltas fill several blocks,
        // and a run longer than a block's whole lane budget opens one: no
        // block boundary falls inside a run, so every block decodes to
        // whole runs and the column comes back run for run.
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        let mut row = 0u32;
        for i in 0..12_000u32 {
            let len = if i % 3 == 0 { 2 } else { 1 };
            runs.push((i * 1_000, row, len));
            row += len;
            if i == 6_000 {
                runs.push((i * 1_000 + 500, row, 5_000));
                row += 5_000;
            }
        }
        let c = col(&runs);
        assert_eq!(choose_scheme(&c), Scheme::Delta);
        let cc = encode_column(&c, Scheme::Delta);
        assert!(cc.block_count() > 2, "{} blocks", cc.block_count());
        for w in cc.blocks.windows(2) {
            assert!(w[0].last < w[1].first, "a run is cut: {w:?}");
        }
        let present = present_rows(&c);
        let mut at = 0usize;
        for (b, entry) in cc.blocks.iter().enumerate() {
            let end = cc.blocks.get(b + 1).map_or(cc.bytes.len(), |next| next.offset as usize);
            assert!(FIRST_BYTES + end - entry.offset as usize <= BLOCK_SIZE, "block {b}");
            let rows = &present[at..at + entry.rows as usize];
            let mut scratch = DecodeScratch::default();
            let block = &cc.bytes[entry.offset as usize..end];
            let span = (entry.first, entry.last);
            assert_eq!(decode_block_into(Scheme::Delta, span, block, rows, &mut scratch), Some(()));
            // A lane of nonzero width holds exactly `rows - 1` deltas, so
            // a row count off by one is refused; so is a last value the
            // deltas do not reach.
            let mut other = DecodeScratch::default();
            if block[0] > 0 {
                let short = &rows[1..];
                assert_eq!(decode_block_into(Scheme::Delta, span, block, short, &mut other), None);
            }
            let off = (entry.first, entry.last + 1);
            assert_eq!(decode_block_into(Scheme::Delta, off, block, rows, &mut other), None);
            let first = scratch.runs.first().unwrap();
            assert!(c.contains(first) && c.contains(scratch.runs.last().unwrap()));
            at += entry.rows as usize;
        }
        assert_eq!(decode_column(&cc, &present), Some(c));
    }

    #[test]
    fn packed_rejects_trailing_or_truncated_lane() {
        let runs: Vec<(u32, u32, u32)> = (0..100).map(|i| (i * 3, i, 1)).collect();
        let c = col(&runs);
        let present = present_rows(&c);
        for scheme in [Scheme::Delta, Scheme::Rle] {
            let cc = encode_column(&c, scheme);
            assert!(decode_column(&cc, &present).is_some());
            let mut long = cc.clone();
            long.bytes.push(0); // extends the final block's lane
            assert_eq!(decode_column(&long, &present), None, "{scheme:?} trailing");
            let mut short = cc.clone();
            short.bytes.pop();
            assert_eq!(decode_column(&short, &present), None, "{scheme:?} truncated");
        }
    }

    #[test]
    fn packed_rejects_oversized_row_claims() {
        // A block row count the lengths array cannot back is rejected
        // before any buffer is sized from it.
        let c = col(&[(3, 0, 1), (7, 1, 1)]);
        let cc = encode_column(&c, Scheme::Delta);
        assert_eq!(decode_column(&cc, &[0]), None); // fewer rows than encoded
        let rc = encode_column(&col(&[(2, 0, 5)]), Scheme::Rle);
        assert_eq!(decode_column(&rc, &[0, 1, 2]), None);
    }

    #[test]
    fn scratch_retains_capacity_across_decodes() {
        let runs: Vec<(u32, u32, u32)> = (0..5_000).map(|i| (i * 2, i, 1)).collect();
        let c = col(&runs);
        let present = present_rows(&c);
        let cc = encode_column(&c, Scheme::Delta);
        assert_eq!(decode_column(&cc, &present).as_ref(), Some(&c));
        let cap_after_first = with_decode_scratch(|s| s.deltas.capacity());
        assert!(cap_after_first > 0);
        assert_eq!(decode_column(&cc, &present), Some(c));
        // The second decode reused the same thread-local buffers.
        assert_eq!(with_decode_scratch(|s| s.deltas.capacity()), cap_after_first);
    }
}
