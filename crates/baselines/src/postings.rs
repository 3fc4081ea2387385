//! Document-order posting lists and the neighbor searches the baseline
//! algorithms perform on them.
//!
//! Postings are stored as `Vec<NodeId>`: the arena is in pre-order, so
//! `NodeId` order *is* document order *is* Dewey order, and the
//! "closest occurrence" searches of the index-based algorithms (Xu &
//! Papakonstantinou's `lm`/`rm`) reduce to binary searches on node ids.

use xtk_xml::tree::NodeId;

/// Rightmost posting `<= v` in document order (`lm(S, v)` in the
/// index-based algorithms), if any.
#[expect(clippy::indexing_slicing, reason = "partition_point returned at most the length")]
pub fn left_match(postings: &[NodeId], v: NodeId) -> Option<NodeId> {
    let idx = postings.partition_point(|&p| p <= v);
    idx.checked_sub(1).map(|i| postings[i])
}

/// Leftmost posting `>= v` in document order (`rm(S, v)`), if any.
pub fn right_match(postings: &[NodeId], v: NodeId) -> Option<NodeId> {
    postings.get(postings.partition_point(|&p| p < v)).copied()
}

/// The sub-slice of postings whose nodes lie in the doc-order id range
/// `[lo, hi)` — i.e. inside one subtree when `lo..hi` is the subtree's
/// arena range.
#[expect(
    clippy::indexing_slicing,
    reason = "two partition points of the same sorted list, in order"
)]
pub fn postings_in_range(postings: &[NodeId], lo: NodeId, hi_exclusive: NodeId) -> &[NodeId] {
    let a = postings.partition_point(|&p| p < lo);
    let b = postings.partition_point(|&p| p < hi_exclusive);
    &postings[a..b]
}

/// Count of postings in `[lo, hi)` without materialising the slice.
pub fn count_in_range(postings: &[NodeId], lo: NodeId, hi_exclusive: NodeId) -> usize {
    postings_in_range(postings, lo, hi_exclusive).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn left_and_right_match() {
        let p = ids(&[2, 5, 9, 14]);
        assert_eq!(left_match(&p, NodeId(5)), Some(NodeId(5)));
        assert_eq!(left_match(&p, NodeId(6)), Some(NodeId(5)));
        assert_eq!(left_match(&p, NodeId(1)), None);
        assert_eq!(right_match(&p, NodeId(5)), Some(NodeId(5)));
        assert_eq!(right_match(&p, NodeId(6)), Some(NodeId(9)));
        assert_eq!(right_match(&p, NodeId(15)), None);
    }

    #[test]
    fn range_queries() {
        let p = ids(&[2, 5, 9, 14]);
        assert_eq!(postings_in_range(&p, NodeId(3), NodeId(10)), &ids(&[5, 9])[..]);
        assert_eq!(count_in_range(&p, NodeId(0), NodeId(100)), 4);
        assert_eq!(count_in_range(&p, NodeId(6), NodeId(9)), 0);
        assert_eq!(count_in_range(&p, NodeId(9), NodeId(10)), 1);
    }

    #[test]
    fn empty_list() {
        let p: Vec<NodeId> = vec![];
        assert_eq!(left_match(&p, NodeId(3)), None);
        assert_eq!(right_match(&p, NodeId(3)), None);
        assert_eq!(count_in_range(&p, NodeId(0), NodeId(9)), 0);
    }
}
