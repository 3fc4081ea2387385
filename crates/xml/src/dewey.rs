//! Classic Dewey identifiers.
//!
//! A Dewey id is the vector of sibling positions on the path from the root
//! to a node (the root itself is `[0]` by convention here; the paper writes
//! the root as `1`, which is only a display choice).  Two properties make
//! Dewey ids the workhorse of the *baseline* algorithms:
//!
//! * lexicographic order over Dewey ids equals document order, and
//! * the LCA of two nodes is the longest common prefix of their ids.
//!
//! The join-based algorithms of the paper replace Dewey with the
//! [JDewey](crate::jdewey) encoding; Dewey remains in use by the
//! stack-based, index-based and RDIL baselines and by the Dewey-id
//! prefix-compressed storage whose size Table I reports.

use crate::tree::{NodeId, XmlTree};
use std::fmt;

/// A Dewey identifier: the sibling-position path from the root.
///
/// Ordering is lexicographic, which for `Vec<u32>` is exactly document
/// order (a prefix sorts before its extensions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeweyId(pub Vec<u32>);

impl DeweyId {
    /// The root's Dewey id.
    pub fn root() -> Self {
        DeweyId(vec![0])
    }

    /// Number of components = depth of the node (root has length 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the (invalid) empty id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The components of the id.
    #[inline]
    pub fn components(&self) -> &[u32] {
        &self.0
    }

    /// `true` iff `self` is a (non-strict) prefix of `other`, i.e. the node
    /// is an ancestor-or-self of `other`'s node.
    #[expect(clippy::indexing_slicing, reason = "the length check before it bounds the slice")]
    pub fn is_prefix_of(&self, other: &DeweyId) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// `true` iff `self` denotes a strict ancestor of `other`.
    #[expect(clippy::indexing_slicing, reason = "the length check before it bounds the slice")]
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.0.len() > self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &DeweyId) -> usize {
        self.0.iter().zip(&other.0).take_while(|(a, b)| a == b).count()
    }

    /// The longest common prefix — i.e. the Dewey id of the LCA.
    #[expect(clippy::indexing_slicing, reason = "a common prefix is no longer than self")]
    pub fn lca(&self, other: &DeweyId) -> DeweyId {
        DeweyId(self.0[..self.common_prefix_len(other)].to_vec())
    }

    /// The parent's Dewey id, or `None` for the root.
    #[expect(clippy::indexing_slicing, reason = "the id has at least two components here")]
    pub fn parent(&self) -> Option<DeweyId> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(DeweyId(self.0[..self.0.len() - 1].to_vec()))
        }
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Precomputed Dewey ids for every node of a tree, indexed by [`NodeId`].
///
/// Building the full map is `O(total id length)`; the baselines build it
/// once at indexing time (it is the content of their inverted lists).
#[derive(Debug, Clone)]
pub struct DeweyIndex {
    ids: Vec<DeweyId>,
}

impl DeweyIndex {
    /// Computes the Dewey id of every node in `tree`.
    pub fn build(tree: &XmlTree) -> Self {
        let mut ids: Vec<DeweyId> = Vec::with_capacity(tree.len());
        for id in tree.ids() {
            let node = tree.node(id);
            let dewey = match node.parent {
                None => DeweyId::root(),
                Some(p) => {
                    // Parents precede children in document order, so the
                    // parent's id is already computed.
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "a parent precedes its children, so its id is already computed"
                    )]
                    let mut v = ids[p.index()].0.clone();
                    v.push(node.sib_index);
                    DeweyId(v)
                }
            };
            ids.push(dewey);
        }
        Self { ids }
    }

    /// The Dewey id of `id`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "one id per node of the indexed tree")]
    pub fn dewey(&self, id: NodeId) -> &DeweyId {
        &self.ids[id.index()]
    }

    /// Number of ids stored (== number of nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no ids are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Finds the node with exactly this Dewey id, if any.
    ///
    /// Used by baselines that manipulate prefixes of Dewey ids and then need
    /// to map them back to nodes.  `O(depth)` via child sib-indices.
    pub fn node_of(&self, tree: &XmlTree, dewey: &DeweyId) -> Option<NodeId> {
        if dewey.0.first() != Some(&0) || tree.is_empty() {
            return None;
        }
        let mut cur = tree.root();
        #[expect(
            clippy::indexing_slicing,
            reason = "the id starts with the root component, checked above"
        )]
        for &comp in &dewey.0[1..] {
            cur = *tree.children(cur).get(comp as usize)?;
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (XmlTree, Vec<NodeId>) {
        let mut t = XmlTree::new();
        let root = t.add_root("root");
        let a = t.add_child(root, "a");
        let c = t.add_child(a, "c");
        let d = t.add_child(a, "d");
        let b = t.add_child(root, "b");
        let e = t.add_child(b, "e");
        (t, vec![root, a, c, d, b, e])
    }

    #[test]
    fn ids_match_structure() {
        let (t, ids) = sample();
        let dx = DeweyIndex::build(&t);
        assert_eq!(dx.dewey(ids[0]).components(), &[0]);
        assert_eq!(dx.dewey(ids[1]).components(), &[0, 0]);
        assert_eq!(dx.dewey(ids[3]).components(), &[0, 0, 1]);
        assert_eq!(dx.dewey(ids[5]).components(), &[0, 1, 0]);
    }

    #[test]
    fn lexicographic_is_document_order() {
        let (t, _) = sample();
        let dx = DeweyIndex::build(&t);
        let mut all: Vec<&DeweyId> = t.ids().map(|i| dx.dewey(i)).collect();
        let orig = all.clone();
        all.sort();
        assert_eq!(all, orig, "document order must equal sorted order");
    }

    #[test]
    fn lca_is_common_prefix() {
        let (t, ids) = sample();
        let dx = DeweyIndex::build(&t);
        // lca(c, d) = a
        let lca = dx.dewey(ids[2]).lca(dx.dewey(ids[3]));
        assert_eq!(&lca, dx.dewey(ids[1]));
        // lca(c, e) = root
        let lca = dx.dewey(ids[2]).lca(dx.dewey(ids[5]));
        assert_eq!(&lca, dx.dewey(ids[0]));
        // Agreement with the tree-walk LCA for every pair.
        for x in t.ids() {
            for y in t.ids() {
                let via_dewey = dx.dewey(x).lca(dx.dewey(y));
                let via_tree = t.lca(x, y);
                assert_eq!(&via_dewey, dx.dewey(via_tree), "{x} {y}");
            }
        }
    }

    #[test]
    fn prefix_relations() {
        let a = DeweyId(vec![0, 1]);
        let b = DeweyId(vec![0, 1, 2]);
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(a.is_ancestor_of(&b));
        assert!(!a.is_ancestor_of(&a));
        assert!(!b.is_prefix_of(&a));
        assert_eq!(b.parent(), Some(a.clone()));
        assert_eq!(DeweyId::root().parent(), None);
    }

    #[test]
    fn node_of_roundtrip() {
        let (t, _) = sample();
        let dx = DeweyIndex::build(&t);
        for id in t.ids() {
            assert_eq!(dx.node_of(&t, dx.dewey(id)), Some(id));
        }
        assert_eq!(dx.node_of(&t, &DeweyId(vec![0, 9])), None);
        assert_eq!(dx.node_of(&t, &DeweyId(vec![1])), None);
    }

    #[test]
    fn display_formats_dotted() {
        assert_eq!(DeweyId(vec![0, 2, 5]).to_string(), "0.2.5");
    }
}
