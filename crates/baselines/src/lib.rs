#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing
)]

//! The evaluation baselines of *"Supporting Top-K Keyword Search in XML
//! Databases"* (§II-C, §V) that the serving engine does not run:
//!
//! * [`baseline::indexed`] — the index-based algorithms of Xu &
//!   Papakonstantinou: Indexed-Lookup-Eager SLCA and candidate-plus-verify
//!   ELCA (Fig. 9's third line);
//! * [`baseline::rdil`] — XRank's Ranked Dewey Inverted List top-K
//!   algorithm (Fig. 10's baseline);
//! * [`verify`] — the formal-semantics candidate verifier both share, and
//!   [`postings`] — the document-order neighbour searches both perform.
//!
//! Both read two structures the serving index does not keep: the arena
//! range of a subtree, and each keyword's full score-descending row order.
//! [`BaselineIndex::new`] derives them from an [`XmlIndex`], once per
//! corpus, before anything is timed.  The stack-based baseline and the
//! naive reference evaluators stay in `xtk-core` (`baseline::stack`,
//! `semantics`): the engine's own tests and the benchmark's reference
//! check run them.
//!
//! Only the formal ELCA variant is implemented here: both algorithms
//! generate candidates, and their completeness theorem holds for that
//! variant only — exactly the situation of the paper's own comparison.

pub mod baseline {
    //! The candidate-generation baselines (the stack-based one is
    //! `xtk_core::baseline::stack`).

    pub mod indexed;
    pub mod rdil;
}
pub mod postings;
pub mod verify;

use std::ops::Range;
use xtk_index::scored::score_order;
use xtk_index::{TermId, XmlIndex};
use xtk_xml::tree::NodeId;

/// An [`XmlIndex`] plus what only the baselines read.
#[derive(Debug)]
pub struct BaselineIndex<'a> {
    ix: &'a XmlIndex,
    /// `subtree_size[i]` = number of nodes in the subtree rooted at node
    /// `i` (inclusive).  Because the arena is pre-order, the subtree of `v`
    /// is exactly the id range `[v, v + subtree_size[v])`.
    subtree_size: Vec<u32>,
    /// Per term, its rows in descending local-score order (RDIL's scan).
    score_rows: Vec<Vec<u32>>,
}

impl<'a> BaselineIndex<'a> {
    /// Derives the subtree sizes and the per-term score orders of `ix`.
    pub fn new(ix: &'a XmlIndex) -> Self {
        let tree = ix.tree();
        // Children have larger ids than their parent: one reverse pass.
        let mut subtree_size = vec![1u32; tree.len()];
        for i in (0..tree.len()).rev() {
            let size = subtree_size.get(i).copied().unwrap_or(1);
            if let Some(p) = tree.parent(NodeId(i as u32)) {
                if let Some(s) = subtree_size.get_mut(p.index()) {
                    *s += size;
                }
            }
        }
        let score_rows = ix.terms().map(|(_, t)| score_order(t.scores())).collect();
        Self { ix, subtree_size, score_rows }
    }

    /// The index the structures were derived from.
    #[inline]
    pub fn index(&self) -> &'a XmlIndex {
        self.ix
    }

    /// The arena id range `[v, end)` covered by the subtree of `v`.
    /// Valid because the arena is in pre-order.
    pub fn subtree_range(&self, v: NodeId) -> Range<NodeId> {
        let size = self.subtree_size.get(v.index()).copied().unwrap_or(1);
        v..NodeId(v.0 + size)
    }

    /// The rows of term `t` in descending local-score order (ties by row).
    pub fn score_order(&self, t: TermId) -> &[u32] {
        self.score_rows.get(t.0 as usize).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    #[test]
    fn subtree_ranges_cover_descendants() {
        let ix = XmlIndex::build(parse("<r><a><p>x</p><q>x</q></a><b>x</b></r>").unwrap());
        let bx = BaselineIndex::new(&ix);
        let tree = ix.tree();
        let a = tree.children(tree.root())[0];
        let range = bx.subtree_range(a);
        let members: Vec<NodeId> = tree.descendants_or_self(a).collect();
        for m in &members {
            assert!(range.contains(m));
        }
        assert_eq!(range.end.0 - range.start.0, members.len() as u32);
        assert_eq!(bx.subtree_range(tree.root()).end.index(), tree.len());
    }

    #[test]
    fn score_orders_are_score_descending() {
        let ix = XmlIndex::build(parse("<r><a>w</a><b><c>w</c></b><d>w w w</d></r>").unwrap());
        let bx = BaselineIndex::new(&ix);
        let id = ix.term_id("w").unwrap();
        let (t, order) = (ix.term(id), bx.score_order(id));
        assert_eq!(order.len(), t.len());
        for w in order.windows(2) {
            assert!(t.scores()[w[0] as usize] >= t.scores()[w[1] as usize]);
        }
        assert_eq!(t.scores()[order[0] as usize].to_bits(), t.max_score().to_bits());
    }
}
