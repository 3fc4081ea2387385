//! Index size accounting — the machinery behind **Table I** of the paper.
//!
//! Five physical indexes are measured, all derived from the same
//! [`XmlIndex`]:
//!
//! | System       | Components reported                                   |
//! |--------------|-------------------------------------------------------|
//! | Join-based   | columnar ILs (lengths + compressed columns) + sparse  |
//! | Stack-based  | Dewey ILs, prefix-compressed (the coding of [6])      |
//! | Index-based  | single B-tree of `(keyword, Dewey)` entries           |
//! | Top-K join   | columnar ILs + scores + score-order segments + sparse |
//! | RDIL         | score-sorted Dewey ILs + per-keyword doc-order B-tree |
//!
//! All byte counts come from actually encoding the data (or, for the
//! B-trees, streaming the exact keys through the page-fill emulation of
//! [`crate::btree`]) — no hand-waved constants beyond the page/overhead
//! parameters documented there.

use crate::btree::{composite_key, dewey_key_bytes, emulate_size};
use crate::builder::XmlIndex;
use crate::codec::{varint_len, write_varint, BlockLayout};
use crate::disk::encode_column_record;
use std::fmt;

/// Bytes per sparse-index entry as Table I prices it: u32 first value +
/// u32 block offset, one entry per block.
pub const SPARSE_ENTRY_BYTES: usize = 8;

/// Byte sizes of the five physical indexes (Table I).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexSizes {
    /// Join-based inverted lists (vocabulary + lengths + columns).
    pub join_il: u64,
    /// Join-based sparse indices.
    pub join_sparse: u64,
    /// Stack-based Dewey inverted lists (prefix-compressed).
    pub stack_il: u64,
    /// Index-based single B-tree over `(keyword, Dewey)` keys.
    pub index_btree: u64,
    /// Top-K join inverted lists (join IL + scores + segment permutation).
    pub topk_il: u64,
    /// Top-K join sparse indices (same columns as join-based).
    pub topk_sparse: u64,
    /// RDIL inverted lists (Dewey ILs + per-posting scores).
    pub rdil_il: u64,
    /// RDIL per-keyword B-trees.
    pub rdil_btree: u64,
}

/// Computes all Table I sizes for one corpus.
pub fn compute(ix: &XmlIndex) -> IndexSizes {
    let mut s = IndexSizes::default();
    let mut scratch = Vec::new();
    // Streaming iterator of composite (term, dewey) key lengths for the
    // index-based B-tree, built in sorted order (terms in arbitrary order
    // is fine: pages depend only on lengths).
    let mut index_key_lens: Vec<usize> = Vec::new();
    let mut rdil_key_lens: Vec<usize> = Vec::new();

    for (_, term) in ix.terms() {
        let n = term.postings.len();
        // --- vocabulary entry, counted once per flavor that stores lists
        // per term (join, stack, topk, rdil) ---
        let vocab_entry = term.term.len() as u64 + 5; // len varint + list offset u32

        // --- join-based columnar lists ---
        let mut join = vocab_entry;
        scratch.clear();
        write_varint(n as u32, &mut scratch); // posting-count prefix
        for &node in &term.postings {
            write_varint(ix.tree().depth(node) as u32, &mut scratch);
        }
        join += scratch.len() as u64; // lengths array
        join += varint_len(term.columns.len() as u32) as u64;
        // The column records are the writer's own, byte for byte.
        scratch.clear();
        let mut sparse_blocks = 0u64;
        for col in &term.columns {
            sparse_blocks += encode_column_record(col, BlockLayout::Varint, &mut scratch) as u64;
        }
        join += scratch.len() as u64;
        s.join_il += join;
        s.join_sparse += sparse_blocks * SPARSE_ENTRY_BYTES as u64;

        // --- stack-based Dewey lists, prefix-compressed ---
        let mut stack = vocab_entry;
        scratch.clear();
        let mut prev: &[u32] = &[];
        for &node in &term.postings {
            let dewey = ix.dewey().dewey(node).components();
            let common = dewey.iter().zip(prev).take_while(|(a, b)| a == b).count();
            write_varint(common as u32, &mut scratch);
            write_varint((dewey.len() - common) as u32, &mut scratch);
            for &c in &dewey[common..] {
                write_varint(c, &mut scratch);
            }
            prev = dewey;
        }
        stack += scratch.len() as u64;
        s.stack_il += stack;

        // --- index-based single B-tree: one key per posting ---
        for &node in &term.postings {
            let key = composite_key(&term.term, ix.dewey().dewey(node).components());
            index_key_lens.push(key.len());
        }

        // --- top-K join: join IL + 4B score/posting + segment directory ---
        let seg_dir: u64 = term.segments.iter().map(|seg| 6 + 4 * seg.rows.len() as u64).sum();
        s.topk_il += join + 4 * n as u64 + seg_dir;
        s.topk_sparse += sparse_blocks * SPARSE_ENTRY_BYTES as u64;

        // --- RDIL: score-sorted Dewey lists (full ids — the list is not in
        // doc order, so prefix compression does not apply) + scores ---
        let mut rdil = vocab_entry + 4 * n as u64;
        for &row in &term.score_rows {
            let dewey = ix.dewey().dewey(term.postings[row as usize]).components();
            rdil += dewey_key_bytes(dewey).len() as u64 + 1;
        }
        s.rdil_il += rdil;
        // Doc-order B-tree entries for the index lookups; all keywords
        // share one page-packed tree keyed by (term, Dewey), as a
        // BerkeleyDB file would — per-term trees would waste a page per
        // tiny list.
        for &node in &term.postings {
            rdil_key_lens.push(
                term.term.len() + 1 + dewey_key_bytes(ix.dewey().dewey(node).components()).len(),
            );
        }
    }

    index_key_lens.sort_unstable(); // page fill depends only on lengths; order irrelevant
    let (_, bytes) = emulate_size(index_key_lens.into_iter());
    s.index_btree = bytes;
    let (_, bytes) = emulate_size(rdil_key_lens.into_iter());
    s.rdil_btree = bytes;
    s
}

/// Formats a byte count the way the paper does (MB / GB).
pub fn human(bytes: u64) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    let mb = bytes as f64 / MB;
    if mb >= 1024.0 {
        format!("{:.1}G", mb / 1024.0)
    } else if mb >= 10.0 {
        format!("{mb:.0}MB")
    } else {
        format!("{mb:.2}MB")
    }
}

impl fmt::Display for IndexSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<14} IL {:>10}   sparse {:>10}", "Join-based", human(self.join_il), human(self.join_sparse))?;
        writeln!(f, "{:<14} IL {:>10}", "stack-based", human(self.stack_il))?;
        writeln!(f, "{:<14}    {:>10}", "index-based", human(self.index_btree))?;
        writeln!(f, "{:<14} IL {:>10}   sparse {:>10}", "Top-K Join", human(self.topk_il), human(self.topk_sparse))?;
        write!(f, "{:<14} IL {:>10}   B+tree {:>10}", "RDIL", human(self.rdil_il), human(self.rdil_btree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    fn small_index() -> XmlIndex {
        let mut xml = String::from("<dblp>");
        for c in 0..4 {
            xml.push_str(&format!("<conf name=\"c{c}\">"));
            for y in 0..3 {
                xml.push_str("<year>");
                for p in 0..5 {
                    xml.push_str(&format!(
                        "<paper><title>xml keyword search topic{p} {y}</title><author>ann bob</author></paper>"
                    ));
                }
                xml.push_str("</year>");
            }
            xml.push_str("</conf>");
        }
        xml.push_str("</dblp>");
        XmlIndex::build(parse(&xml).unwrap())
    }

    #[test]
    fn all_components_nonzero() {
        let s = compute(&small_index());
        assert!(s.join_il > 0);
        assert!(s.join_sparse > 0);
        assert!(s.stack_il > 0);
        assert!(s.index_btree > 0);
        assert!(s.topk_il > s.join_il, "top-K adds scores and segments");
        assert!(s.rdil_il > s.stack_il, "RDIL stores full ids + scores");
        assert!(s.rdil_btree > 0);
    }

    #[test]
    fn table1_shape_holds() {
        // The paper's qualitative Table I relationships: the index-based
        // B-tree dwarfs the lists; RDIL's B-trees are a large add-on.
        let s = compute(&small_index());
        assert!(
            s.index_btree > 2 * s.join_il,
            "index-based ({}) must dwarf join-based ({})",
            s.index_btree,
            s.join_il
        );
        assert!(s.rdil_il + s.rdil_btree > s.topk_il + s.topk_sparse);
    }

    /// Rebuilds the full file size out of the same primitives Table I
    /// uses: header and lengths array by hand, the column records by the
    /// encoder `compute` calls.  If the model drifts from the writer, it
    /// stops matching the real file.
    fn assert_model_matches_file(format: crate::disk::FormatVersion, magic: u32) {
        use crate::disk::{persisted_file_bytes, write_index_to, WriteIndexOptions};
        let ix = small_index();
        let opts = WriteIndexOptions { include_scores: false, format };
        let mut model = (varint_len(magic) + varint_len(ix.vocab_size() as u32) + 1) as u64;
        let mut records = Vec::new();
        for (_, term) in ix.terms() {
            model += varint_len(term.term.len() as u32) as u64 + term.term.len() as u64;
            model += varint_len(term.postings.len() as u32) as u64;
            for &node in &term.postings {
                model += varint_len(ix.tree().depth(node) as u32) as u64;
            }
            model += varint_len(term.columns.len() as u32) as u64;
            for col in &term.columns {
                encode_column_record(col, format.layout(), &mut records);
            }
        }
        model += records.len() as u64;
        assert_eq!(model, persisted_file_bytes(&ix, opts));
        let mut image = Vec::new();
        let written = write_index_to(&ix, &mut image, opts).unwrap();
        assert_eq!(model, written);
        assert_eq!(written, image.len() as u64);
    }

    #[test]
    fn column_accounting_matches_actual_file_length() {
        assert_model_matches_file(crate::disk::FormatVersion::V2, crate::disk::MAGIC_V2);
    }

    #[test]
    fn column_accounting_matches_v3_file_length() {
        // The v3 directory is byte-identical in shape to v2, only the
        // payload encoder changes.
        assert_model_matches_file(crate::disk::FormatVersion::V3, crate::disk::MAGIC_V3);
    }

    #[test]
    fn footers_are_counted() {
        // The directory's row counts and last values must show up in the
        // join accounting: every block contributes at least two varint
        // bytes over a model pricing `(offset, first value)` alone.
        use crate::codec::{choose_scheme, encode_column};
        let ix = small_index();
        let s = compute(&ix);
        let (mut bare, mut blocks, mut records) = (0u64, 0u64, Vec::new());
        for (_, term) in ix.terms() {
            for col in &term.columns {
                let cc = encode_column(col, choose_scheme(col));
                let mut b = 1 + varint_len(cc.block_count() as u32);
                for e in &cc.blocks {
                    b += varint_len(e.offset) + varint_len(e.first);
                }
                b += varint_len(cc.payload_bytes() as u32) + cc.payload_bytes();
                bare += b as u64;
                blocks += encode_column_record(col, BlockLayout::Varint, &mut records) as u64;
            }
        }
        let with_footers = records.len() as u64;
        assert!(with_footers >= bare + 2 * blocks, "row counts and last values must be accounted");
        assert!(s.join_il > with_footers, "join IL includes vocab + lengths on top");
        assert_eq!(s.join_sparse, blocks * SPARSE_ENTRY_BYTES as u64);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human(512 * 1024), "0.50MB");
        assert_eq!(human(327 * 1024 * 1024), "327MB");
        assert_eq!(human(2200 * 1024 * 1024), "2.1G");
    }
}
