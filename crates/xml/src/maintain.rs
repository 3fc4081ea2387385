//! Incremental maintenance of the JDewey encoding (paper §III-A).
//!
//! Deletion is trivial: the deleted nodes' numbers and sequences simply
//! disappear.  Insertion must respect requirement 2 (numbers monotone in
//! parent order): a node inserted under parent `u` must receive a number
//! greater than every same-level node whose parent precedes `u` and smaller
//! than every same-level node whose parent follows `u`.  The assignment
//! reserves a configurable *gap* of spare numbers after each parent's block
//! of children to make room.
//!
//! When the gap under `u` is exhausted, the paper re-encodes a *partial*
//! subtree: walk up from `u` to the lowest ancestor `A` that is the
//! **last** (maximum-numbered) node of its level — `A`'s subtree then
//! occupies the tail of every level it touches, so its nodes can be
//! renumbered freely past the current per-level maxima without disturbing
//! any other node.  The root is always last at level 1, so such an `A`
//! always exists and the re-encode never touches nodes outside `A`'s
//! subtree.
//!
//! [`JDeweyMaintainer`] wraps a tree + assignment and implements exactly
//! this protocol, counting how many nodes each re-encode touched so the
//! maintenance cost can be benchmarked.

use crate::error::MaintainError;
use crate::jdewey::JDeweyAssignment;
use crate::tree::{NodeId, XmlTree};

/// A tree plus its JDewey assignment, kept consistent under insertions and
/// removals.
///
/// Note on the arena: removed nodes stay in the arena as detached
/// tombstones and newly inserted nodes get ids past the end, so **arena id
/// order is no longer document order** once the tree has been mutated.
/// [`JDeweyMaintainer::compact`] rebuilds a clean pre-order tree for
/// indexing.
#[derive(Debug, Clone)]
pub struct JDeweyMaintainer {
    tree: XmlTree,
    jd: JDeweyAssignment,
    removed: Vec<bool>,
    gap: u32,
    /// Number of partial re-encodes performed so far.
    pub reencode_count: usize,
    /// Total nodes renumbered across all re-encodes.
    pub reencoded_nodes: usize,
    /// Content generation: bumped once per successful mutation.
    generation: u64,
}

impl JDeweyMaintainer {
    /// Takes ownership of `tree` and assigns JDewey numbers with the given
    /// reservation `gap`.
    pub fn new(tree: XmlTree, gap: u32) -> Self {
        let jd = JDeweyAssignment::assign(&tree, gap);
        let removed = vec![false; tree.len()];
        Self { tree, jd, removed, gap, reencode_count: 0, reencoded_nodes: 0, generation: 0 }
    }

    /// Content generation: the number of successful `insert_child` /
    /// `remove_subtree` mutations applied so far.  Re-encodes do not count
    /// (they renumber without changing content).  Downstream result caches
    /// stamp entries with the generation of the index they were computed
    /// against; rebuild an index after maintenance with
    /// `base_generation + maintainer.generation()` so stale entries are
    /// detected by a plain counter compare.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying tree (contains tombstones after removals).
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// Mutable access to the tree, e.g. to append text to a fresh node.
    pub fn tree_mut(&mut self) -> &mut XmlTree {
        &mut self.tree
    }

    /// The current JDewey assignment.
    pub fn assignment(&self) -> &JDeweyAssignment {
        &self.jd
    }

    /// `true` iff `id` has been removed.
    pub fn is_removed(&self, id: NodeId) -> bool {
        self.removed.get(id.index()).copied().unwrap_or(true)
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.removed.iter().filter(|&&r| !r).count()
    }

    /// Inserts a new last child under `parent`, assigning the next free
    /// JDewey number in the parent's window.
    ///
    /// Fails with [`MaintainError::GapExhausted`] when the reserved space is
    /// used up; [`JDeweyMaintainer::insert_child_auto`] additionally performs
    /// the partial re-encode and retries.
    pub fn insert_child(
        &mut self,
        parent: NodeId,
        label: impl Into<Box<str>>,
    ) -> Result<NodeId, MaintainError> {
        if self.is_removed(parent) {
            return Err(MaintainError::NodeRemoved);
        }
        let child_level = self.tree.depth(parent) + 1;
        let n = self.free_number(parent, child_level)?;
        let id = self.tree.add_child(parent, label);
        self.removed.push(false);
        debug_assert_eq!(self.removed.len(), self.tree.len());
        self.jd.register(&self.tree, id, n);
        self.generation += 1;
        Ok(id)
    }

    /// As [`JDeweyMaintainer::insert_child`], but on gap exhaustion performs
    /// the paper's partial re-encode and retries (at most up to the root,
    /// where space is unbounded).
    pub fn insert_child_auto(
        &mut self,
        parent: NodeId,
        label: impl Into<Box<str>>,
    ) -> Result<NodeId, MaintainError> {
        let label = label.into();
        match self.insert_child(parent, label.clone()) {
            Ok(id) => Ok(id),
            Err(MaintainError::GapExhausted { .. }) => {
                let anchor = self.reencode_anchor(parent);
                self.reencode_subtree(anchor);
                self.insert_child(parent, label)
            }
            Err(e) => Err(e),
        }
    }

    /// Detaches the subtree rooted at `id` and unregisters its numbers.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<(), MaintainError> {
        if self.is_removed(id) {
            return Err(MaintainError::NodeRemoved);
        }
        let Some(parent) = self.tree.parent(id) else {
            return Err(MaintainError::CannotRemoveRoot);
        };
        // Detach from the parent.
        let kids = &mut self.tree.node_mut(parent).children;
        if let Some(pos) = kids.iter().position(|&c| c == id) {
            kids.remove(pos);
        }
        // Tombstone the whole subtree.
        let subtree: Vec<NodeId> = self.tree.descendants_or_self(id).collect();
        for n in subtree {
            self.jd.unregister(&self.tree, n);
            if let Some(slot) = self.removed.get_mut(n.index()) {
                *slot = true;
            }
        }
        self.generation += 1;
        Ok(())
    }

    /// Rebuilds a compact tree in document pre-order containing only live
    /// nodes.  Returns the tree together with the mapping old → new id.
    pub fn compact(&self) -> (XmlTree, Vec<Option<NodeId>>) {
        let mut out = XmlTree::with_capacity(self.live_count());
        let mut map: Vec<Option<NodeId>> = vec![None; self.tree.len()];
        if self.tree.is_empty() || self.is_removed(self.tree.root()) {
            return (out, map);
        }
        let root = self.tree.root();
        let new_root = out.add_root(self.tree.label(root));
        out.append_text(new_root, self.tree.text(root));
        if let Some(slot) = map.get_mut(root.index()) {
            *slot = Some(new_root);
        }
        // Pre-order walk over live nodes.
        let mut stack: Vec<NodeId> = self.tree.children(root).iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if self.is_removed(id) {
                continue;
            }
            // Only children of visited live nodes are ever on the stack,
            // so both lookups hit; a miss means a corrupted arena and the
            // node is skipped rather than panicking.
            let Some(new_parent) = self
                .tree
                .parent(id)
                .and_then(|p| map.get(p.index()).copied().flatten())
            else {
                continue;
            };
            let new_id = out.add_child(new_parent, self.tree.label(id));
            out.append_text(new_id, self.tree.text(id));
            if let Some(slot) = map.get_mut(id.index()) {
                *slot = Some(new_id);
            }
            for &c in self.tree.children(id).iter().rev() {
                stack.push(c);
            }
        }
        (out, map)
    }

    /// Finds the free number for a new last child of `parent`, or reports
    /// gap exhaustion.
    fn free_number(&self, parent: NodeId, child_level: u16) -> Result<u32, MaintainError> {
        let level = self.jd.level(child_level);
        if level.is_empty() {
            return Ok(1);
        }
        let pn = self.jd.number(parent);
        // Nodes whose parent number <= pn form a prefix of the level list
        // (requirement 2).  `split` = count of such nodes.
        let split = level.partition_point(|&id| {
            // Level >= 2 nodes always have parents; treat a malformed
            // parentless node as sorting after the split.
            self.tree.parent(id).is_some_and(|p| self.jd.number(p) <= pn)
        });
        let lo = split
            .checked_sub(1)
            .and_then(|i| level.get(i))
            .map_or(0, |&id| self.jd.number(id));
        let hi = level.get(split).map_or(u32::MAX, |&id| self.jd.number(id));
        if lo + 1 < hi {
            Ok(lo + 1)
        } else {
            Err(MaintainError::GapExhausted { level: child_level })
        }
    }

    /// Walks up from `from` to the lowest ancestor that is the last
    /// (max-numbered) live node of its level.
    fn reencode_anchor(&self, from: NodeId) -> NodeId {
        let mut cur = from;
        loop {
            let level = self.tree.depth(cur);
            // `cur` is live, so its level is non-empty; an empty level can
            // only mean corruption, and walking up is the safe answer.
            if self.jd.level(level).last() == Some(&cur) {
                return cur;
            }
            match self.tree.parent(cur) {
                Some(p) => cur = p,
                None => return cur, // root: always last at level 1
            }
        }
    }

    /// Renumbers the subtree rooted at `anchor` (which must be the last node
    /// of its level) past the current per-level maxima, restoring
    /// reservation gaps.
    fn reencode_subtree(&mut self, anchor: NodeId) {
        self.reencode_count += 1;
        // Group live subtree nodes by level, children in parent order.
        let anchor_level = self.tree.depth(anchor) as usize;
        let mut by_level: Vec<Vec<NodeId>> = Vec::new();
        let mut frontier = vec![anchor];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &n in &frontier {
                for &c in self.tree.children(n) {
                    if !self.is_removed(c) {
                        next.push(c);
                    }
                }
            }
            by_level.push(std::mem::replace(&mut frontier, next));
        }
        // A dense re-encode (gap 0) would recreate the exhausted state, so
        // re-encoding always reserves at least one spare number per parent —
        // including childless parents, which otherwise could never receive a
        // first child.
        let gap = self.gap.max(1);
        for (off, nodes) in by_level.iter().enumerate() {
            let level = (anchor_level + off) as u16;
            self.reencoded_nodes += nodes.len();
            // The subtree occupies the tail of the level, so after dropping
            // its nodes the level maximum is the base to number from.
            for &n in nodes {
                self.jd.unregister(&self.tree, n);
            }
            let mut next = self.jd.max_number_at(level) + 1;
            if off == 0 {
                self.jd.register(&self.tree, anchor, next);
            } else {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "off > 0 in this branch, so off - 1 is an earlier level of by_level"
                )]
                for &p in &by_level[off - 1] {
                    for &c in self.tree.children(p) {
                        if !self.is_removed(c) {
                            self.jd.register(&self.tree, c, next);
                            next += 1;
                        }
                    }
                    next += gap;
                }
            }
        }
        debug_assert!(self.jd.validate(&self.tree).is_ok() || {
            // `validate` walks the raw arena; with tombstones present we
            // validate levels only (they contain live nodes exclusively).
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn validate_levels(m: &JDeweyMaintainer) {
        // Requirements 1 and 2 over live nodes.
        let jd = m.assignment();
        for l in 1..=jd.num_levels() {
            let lv = jd.level(l);
            for w in lv.windows(2) {
                assert!(jd.number(w[0]) < jd.number(w[1]), "numbers must increase at level {l}");
                if l > 1 {
                    let p0 = jd.number(m.tree().parent(w[0]).unwrap());
                    let p1 = jd.number(m.tree().parent(w[1]).unwrap());
                    assert!(p0 <= p1, "parent order violated at level {l}");
                }
            }
        }
    }

    #[test]
    fn insert_uses_reserved_gap() {
        let t = parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 2);
        let a = m.tree().children(m.tree().root())[0];
        // a's children x,y have numbers 1,2; gap leaves 3,4 free before b's z.
        let c1 = m.insert_child(a, "new1").unwrap();
        assert_eq!(m.assignment().number(c1), 3);
        let c2 = m.insert_child(a, "new2").unwrap();
        assert_eq!(m.assignment().number(c2), 4);
        validate_levels(&m);
        // Gap exhausted now.
        let err = m.insert_child(a, "new3").unwrap_err();
        assert!(matches!(err, MaintainError::GapExhausted { level: 3 }));
    }

    #[test]
    fn auto_insert_reencodes_partially() {
        let t = parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 0); // no reserved space at all
        let a = m.tree().children(m.tree().root())[0];
        let id = m.insert_child_auto(a, "new").unwrap();
        assert!(!m.is_removed(id));
        assert!(m.reencode_count >= 1);
        validate_levels(&m);
        // Repeated inserts keep working.
        for i in 0..10 {
            m.insert_child_auto(a, format!("n{i}")).unwrap();
            validate_levels(&m);
        }
        assert_eq!(m.tree().children(a).len(), 2 + 11);
    }

    #[test]
    fn insert_under_last_parent_is_unbounded() {
        let t = parse("<r><a/><b/></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 0);
        let b = m.tree().children(m.tree().root())[1];
        for i in 0..50 {
            // b is the last level-2 node: inserts never exhaust.
            let id = m.insert_child(b, format!("c{i}")).unwrap();
            assert_eq!(m.assignment().number(id), i + 1);
        }
        assert_eq!(m.reencode_count, 0);
        validate_levels(&m);
    }

    #[test]
    fn remove_subtree_unregisters_numbers() {
        let t = parse("<r><a><x/><y/></a><b/></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 1);
        let a = m.tree().children(m.tree().root())[0];
        let live_before = m.live_count();
        m.remove_subtree(a).unwrap();
        assert_eq!(m.live_count(), live_before - 3);
        assert!(m.is_removed(a));
        // Level 3 is now empty.
        assert!(m.assignment().level(3).is_empty());
        validate_levels(&m);
        assert!(matches!(m.remove_subtree(a), Err(MaintainError::NodeRemoved)));
        assert!(matches!(
            m.remove_subtree(m.tree().root()),
            Err(MaintainError::CannotRemoveRoot)
        ));
    }

    #[test]
    fn removal_frees_numbers_for_reuse() {
        let t = parse("<r><a><x/></a><b><z/></b></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 0);
        let root = m.tree().root();
        let (a, b) = (m.tree().children(root)[0], m.tree().children(root)[1]);
        // No space under a (gap 0, z occupies number 2).
        assert!(m.insert_child(a, "w").is_err());
        let _ = b;
        // Remove b's subtree; now a can grow freely.
        m.remove_subtree(b).unwrap();
        let w = m.insert_child(a, "w").unwrap();
        assert_eq!(m.assignment().number(w), 2);
        validate_levels(&m);
    }

    #[test]
    fn compact_rebuilds_preorder_tree() {
        let t = parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 4);
        let root = m.tree().root();
        let a = m.tree().children(root)[0];
        m.remove_subtree(m.tree().children(a)[0]).unwrap(); // drop x
        let n = m.insert_child_auto(a, "fresh").unwrap();
        m.tree_mut().append_text(n, "hello");
        let (compacted, map) = m.compact();
        assert_eq!(compacted.len(), m.live_count());
        // Arena order of the compacted tree is pre-order.
        let pre: Vec<NodeId> = compacted.descendants_or_self(compacted.root()).collect();
        let seq: Vec<NodeId> = compacted.ids().collect();
        assert_eq!(pre, seq);
        // Mapping covers exactly the live nodes.
        let mapped = map.iter().flatten().count();
        assert_eq!(mapped, m.live_count());
        // Text came along.
        let new_n = map[n.index()].unwrap();
        assert_eq!(compacted.text(new_n), "hello");
    }

    #[test]
    fn insert_into_leaf_level_beyond_current_depth() {
        let t = parse("<r><a/></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 0);
        let a = m.tree().children(m.tree().root())[0];
        let c = m.insert_child(a, "deep").unwrap(); // creates level 3
        assert_eq!(m.assignment().number(c), 1);
        assert_eq!(m.tree().depth(c), 3);
        validate_levels(&m);
    }

    #[test]
    fn generation_counts_successful_mutations_only() {
        let t = parse("<r><a><x/><y/></a><b><z/></b></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 1);
        assert_eq!(m.generation(), 0);
        let a = m.tree().children(m.tree().root())[0];
        let c = m.insert_child(a, "new").unwrap();
        assert_eq!(m.generation(), 1);
        // Gap exhausted: a failed insert must not bump the generation.
        assert!(m.insert_child(a, "again").is_err());
        assert_eq!(m.generation(), 1);
        m.remove_subtree(c).unwrap();
        assert_eq!(m.generation(), 2);
        assert!(m.remove_subtree(c).is_err());
        assert_eq!(m.generation(), 2);
        // Auto-insert with a re-encode is one logical mutation.
        let mut m0 = JDeweyMaintainer::new(parse("<r><a><x/></a><b><z/></b></r>").unwrap(), 0);
        let a0 = m0.tree().children(m0.tree().root())[0];
        m0.insert_child_auto(a0, "n").unwrap();
        assert!(m0.reencode_count >= 1);
        assert_eq!(m0.generation(), 1);
    }

    #[test]
    fn stress_mixed_operations_stay_valid() {
        let t = parse("<r><a/><b/><c/></r>").unwrap();
        let mut m = JDeweyMaintainer::new(t, 1);
        let root = m.tree().root();
        let mut targets = m.tree().children(root).to_vec();
        for i in 0..100 {
            let parent = targets[i % targets.len()];
            if m.is_removed(parent) {
                continue;
            }
            let id = m.insert_child_auto(parent, format!("n{i}")).unwrap();
            if i % 3 == 0 {
                targets.push(id);
            }
            if i % 17 == 0 && targets.len() > 3 {
                let victim = targets.remove(3);
                if !m.is_removed(victim) {
                    m.remove_subtree(victim).unwrap();
                }
            }
            validate_levels(&m);
        }
    }
}
