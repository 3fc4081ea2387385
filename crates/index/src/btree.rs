//! The size of a static B+-tree with page-based storage, for Table I.
//!
//! The index-based baseline ([8] in the paper) stores every `(keyword,
//! Dewey id)` pair as a key in a single BerkeleyDB B-tree, and RDIL builds
//! B-trees over each inverted list — both of which Table I shows to be far
//! larger than the columnar lists.  This module reproduces that physical
//! layout faithfully enough for size accounting: pages are 4 KiB, filled to
//! the classic ~2/3 factor, keys are stored whole in the leaves (the
//! BerkeleyDB behaviour the paper calls out as the cause of the blow-up),
//! and internal levels store one separator key per child page.  Nothing
//! looks keys up in it: the baselines (`xtk-baselines`) search doc-order
//! node-id postings instead.

/// Page size of the emulated B-tree.
pub const PAGE_SIZE: usize = 4096;

/// Leaf fill factor (BerkeleyDB-style ~2/3 occupancy).
pub const FILL_FACTOR: f64 = 0.67;

/// Per-entry overhead in a leaf: length prefixes + value pointer, matching
/// a (key, 8-byte data) BerkeleyDB record.
pub const ENTRY_OVERHEAD: usize = 12;

/// Computes the emulated size of a bulk-loaded B-tree from key lengths
/// alone, without materializing entries.  Returns `(pages, bytes)`.
///
/// Used by [`crate::sizes`] for the Table I accounting, where the
/// index-based baseline's tree would hold millions of `(keyword, Dewey)`
/// entries.
pub fn emulate_size(key_lens: impl Iterator<Item = usize>) -> (u64, u64) {
    let budget = (PAGE_SIZE as f64 * FILL_FACTOR) as usize;
    let mut leaf_pages = 0u64;
    let mut sep_lens: Vec<usize> = Vec::new();
    let mut used = usize::MAX;
    for klen in key_lens {
        let need = klen + ENTRY_OVERHEAD;
        if used.saturating_add(need) > budget {
            leaf_pages += 1;
            sep_lens.push(klen);
            used = 0;
        }
        used += need;
    }
    let mut page_count = leaf_pages;
    let mut level = sep_lens;
    while level.len() > 1 {
        let mut pages_here = 0u64;
        let mut used = usize::MAX;
        let mut next = Vec::new();
        for &klen in &level {
            let need = klen + ENTRY_OVERHEAD;
            if used.saturating_add(need) > budget {
                pages_here += 1;
                next.push(klen);
                used = 0;
            }
            used += need;
        }
        page_count += pages_here;
        level = next;
        if pages_here <= 1 {
            break;
        }
    }
    (page_count, page_count * PAGE_SIZE as u64)
}

/// Serializes a Dewey id the way the BerkeleyDB-backed implementation
/// does: one varint per component.
pub fn dewey_key_bytes(components: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(components.len() + 2);
    for &c in components {
        crate::codec::write_varint(c, &mut out);
    }
    out
}

/// Builds the `(keyword, Dewey)` composite key of the index-based
/// baseline's single B-tree.
pub fn composite_key(term: &str, dewey: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(term.len() + dewey.len() + 3);
    out.extend_from_slice(term.as_bytes());
    out.push(0);
    out.extend_from_slice(&dewey_key_bytes(dewey));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` keys of the 11 bytes `key00000042` takes.
    fn keys(n: usize) -> impl Iterator<Item = usize> {
        std::iter::repeat_n(11, n)
    }

    #[test]
    fn size_grows_with_entries_and_key_length() {
        let (small_pages, small) = emulate_size(keys(1000));
        let (big_pages, big) = emulate_size(keys(10_000));
        assert!(big > small);
        assert!(big_pages > small_pages);
        // Size is whole pages.
        assert_eq!(big % PAGE_SIZE as u64, 0);
        // Rough sanity: 10k entries * ~23B at 2/3 fill ~= 84 pages min.
        assert!(big_pages >= 84, "got {big_pages}");
        let (_, longer) = emulate_size(keys(1000).map(|len| 2 * len));
        assert!(longer > small);
    }

    #[test]
    fn empty_tree() {
        assert_eq!(emulate_size(std::iter::empty()), (0, 0));
    }

    #[test]
    fn composite_keys_sort_by_term_then_dewey() {
        let a = composite_key("xml", &[0, 1, 2]);
        let b = composite_key("xml", &[0, 2]);
        let c = composite_key("zebra", &[0]);
        assert!(a < b, "same term: dewey order decides");
        assert!(b < c, "term order dominates");
    }
}
