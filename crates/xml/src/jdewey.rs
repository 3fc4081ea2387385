//! The JDewey encoding (paper §III-A).
//!
//! Each node is assigned a **JDewey number** such that
//!
//! 1. the number is unique among all nodes at the same tree depth, and
//! 2. numbers are *monotone in parent order*: for same-level nodes `v1`,
//!    `v2`, if `v1`'s number is greater than `v2`'s, then every child of
//!    `v1` has a greater number than every child of `v2`.
//!
//! The **JDewey sequence** of a node is the vector of JDewey numbers on the
//! path from the root to the node.  Unlike a Dewey id — where only the whole
//! vector identifies a node — a single `(level, number)` pair identifies a
//! node, which is what lets inverted lists be stored *column per level* and
//! lets LCA computation become an equality join on one column.
//!
//! The key algebraic fact is **Property 3.1**: if `S1 < S2` in JDewey-
//! sequence order then `S1(i) <= S2(i)` for every common level `i`.  In
//! consequence, an inverted list sorted by JDewey sequence has *every column
//! individually sorted* — the precondition for the merge join, the sparse
//! indices and the run-length compression in `xtk-index`.
//!
//! To support insertions (§III-A maintenance), the assignment can reserve a
//! configurable number of spare numbers after each parent's block of
//! children; see [`crate::maintain`].

use crate::gallop::gallop_partition_point;
use crate::tree::{NodeId, XmlTree};
use std::cmp::Ordering;
use std::fmt;

/// A JDewey sequence: the JDewey numbers on the path root → node.
///
/// Ordering is lexicographic, which by Property 3.1 coincides with the
/// paper's definition (`S1 < S2` iff some `S1(j) < S2(j)`, or `S1` is a
/// prefix of `S2`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JSeq(pub Vec<u32>);

impl JSeq {
    /// The number at 1-based level `l`, if the sequence is that deep.
    #[inline]
    pub fn at(&self, level: u16) -> Option<u32> {
        self.0.get(level as usize - 1).copied()
    }

    /// The length of the sequence = the depth of the node.
    #[inline]
    pub fn len(&self) -> u16 {
        self.0.len() as u16
    }

    /// `true` for the (invalid) empty sequence.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw numbers root → node.
    #[inline]
    pub fn numbers(&self) -> &[u32] {
        &self.0
    }

    /// Document/JDewey-order comparison (lexicographic).
    #[inline]
    pub fn seq_cmp(&self, other: &JSeq) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for JSeq {
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

/// A complete JDewey numbering of a tree.
///
/// Produced by [`JDeweyAssignment::assign`]; kept up to date under
/// insertions/removals by [`crate::maintain::JDeweyMaintainer`].
#[derive(Debug, Clone)]
pub struct JDeweyAssignment {
    /// JDewey number of each node, indexed by `NodeId`.
    numbers: Vec<u32>,
    /// Nodes of each 1-based level in increasing JDewey-number order
    /// (index 0 unused).
    levels: Vec<Vec<NodeId>>,
    /// Reservation gap used at assignment time (spare numbers after each
    /// parent's children block).
    gap: u32,
}

impl JDeweyAssignment {
    /// Assigns JDewey numbers to every node of `tree`.
    ///
    /// `gap` spare numbers are reserved after each parent's block of
    /// children (0 yields a dense numbering).  Numbers start at 1 at every
    /// level, matching the paper's figures.
    #[expect(
        clippy::indexing_slicing,
        reason = "one number per node and one level list per depth up to max_depth"
    )]
    pub fn assign(tree: &XmlTree, gap: u32) -> Self {
        let max_depth = tree.max_depth() as usize;
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); max_depth + 1];
        let mut numbers = vec![0u32; tree.len()];
        if tree.is_empty() {
            return Self { numbers, levels, gap };
        }
        numbers[tree.root().index()] = 1;
        levels[1].push(tree.root());
        // Level l+1 is the concatenation of children of level-l nodes taken
        // in increasing-number order; numbering them sequentially (with the
        // reservation gap after each parent) satisfies both requirements.
        for l in 1..max_depth {
            let mut next: u32 = 1;
            // Split the borrow: parents at level l, children filled at l+1.
            let (parents, rest) = levels.split_at_mut(l + 1);
            let child_level = &mut rest[0];
            for &p in &parents[l] {
                for &c in tree.children(p) {
                    numbers[c.index()] = next;
                    next += 1;
                    child_level.push(c);
                }
                next += gap;
            }
        }
        Self { numbers, levels, gap }
    }

    /// The reservation gap this assignment was built with.
    #[inline]
    pub fn gap(&self) -> u32 {
        self.gap
    }

    /// The JDewey number of `id`; 0 (a number no node has) for a node
    /// the encoded tree does not hold.
    #[inline]
    pub fn number(&self, id: NodeId) -> u32 {
        self.numbers.get(id.index()).copied().unwrap_or(0)
    }

    /// The JDewey sequence of `id`, using `tree` for the parent chain.
    pub fn seq_with(&self, tree: &XmlTree, id: NodeId) -> JSeq {
        let mut v = Vec::with_capacity(tree.depth(id) as usize);
        let mut cur = Some(id);
        while let Some(c) = cur {
            v.push(self.number(c));
            cur = tree.parent(c);
        }
        v.reverse();
        JSeq(v)
    }

    /// Looks up the node with JDewey number `n` at 1-based `level`.
    ///
    /// This is the `(i, S(i))` identification property of §III-A: O(1)
    /// while the level is numbered densely (number `n` is then the level's
    /// `n`-th node), `O(log width(level))` otherwise.
    pub fn node_at(&self, level: u16, n: u32) -> Option<NodeId> {
        let lv = self.levels.get(level as usize)?;
        #[expect(clippy::indexing_slicing, reason = "every node on a level has a number")]
        let pos = position_of(lv, &self.numbers, n)
            .or_else(|| lv.binary_search_by_key(&n, |&id| self.numbers[id.index()]).ok())?;
        lv.get(pos).copied()
    }

    /// A forward cursor over `level` for lookups whose numbers ascend —
    /// [`node_at`](Self::node_at) without restarting the search.
    pub fn level_cursor(&self, level: u16) -> LevelCursor<'_> {
        LevelCursor { numbers: &self.numbers, nodes: self.level(level), at: 0 }
    }

    /// Nodes of `level` in increasing JDewey-number order.
    pub fn level(&self, level: u16) -> &[NodeId] {
        self.levels
            .get(level as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of levels (== max depth of the tree).
    pub fn num_levels(&self) -> u16 {
        (self.levels.len().saturating_sub(1)) as u16
    }

    /// The largest number currently used at `level` (0 if the level is
    /// empty).  Used by partial re-encoding.
    #[expect(clippy::indexing_slicing, reason = "every node on a level has a number")]
    pub fn max_number_at(&self, level: u16) -> u32 {
        self.levels
            .get(level as usize)
            .and_then(|lv| lv.last())
            .map(|&id| self.numbers[id.index()])
            .unwrap_or(0)
    }

    /// Verifies both JDewey requirements over the whole tree.
    /// Intended for tests and debug assertions; `O(n)`.
    pub fn validate(&self, tree: &XmlTree) -> std::result::Result<(), String> {
        for (l, lv) in self.levels.iter().enumerate().skip(1) {
            let mut prev: Option<(u32, NodeId)> = None;
            for &id in lv {
                if tree.depth(id) as usize != l {
                    return Err(format!("{id} listed at level {l} but has depth {}", tree.depth(id)));
                }
                let n = self.number(id);
                if let Some((pn, pid)) = prev {
                    if n <= pn {
                        return Err(format!("level {l}: {id} number {n} <= predecessor {pid} number {pn}"));
                    }
                    // Requirement 2: parent order must agree with child order.
                    if l > 1 {
                        let (Some(prev_parent), Some(this_parent)) =
                            (tree.parent(pid), tree.parent(id))
                        else {
                            return Err(format!("level {l}: non-root node without a parent"));
                        };
                        let pp = self.number(prev_parent);
                        let cp = self.number(this_parent);
                        if cp < pp {
                            return Err(format!(
                                "level {l}: children out of parent order ({pid}->{pp}, {id}->{cp})"
                            ));
                        }
                    }
                }
                prev = Some((n, id));
            }
        }
        Ok(())
    }

    // ----- mutation hooks used by `crate::maintain` -----

    /// Registers a freshly added node with the given number at its level,
    /// keeping the level list sorted.  Internal to the maintainer.
    #[expect(
        clippy::indexing_slicing,
        reason = "numbers is resized to cover id first, and every node on a level has a number"
    )]
    pub(crate) fn register(&mut self, tree: &XmlTree, id: NodeId, n: u32) {
        let level = tree.depth(id) as usize;
        if self.levels.len() <= level {
            self.levels.resize(level + 1, Vec::new());
        }
        if self.numbers.len() <= id.index() {
            self.numbers.resize(id.index() + 1, 0);
        }
        self.numbers[id.index()] = n;
        let Some(lv) = self.levels.get(level) else { return };
        let pos = match lv.binary_search_by_key(&n, |&x| self.numbers[x.index()]) {
            Ok(pos) | Err(pos) => pos,
        };
        self.debug_assert_property_3_1(tree, level, pos, id, n);
        if let Some(lv) = self.levels.get_mut(level) {
            lv.insert(pos, id);
        }
    }

    /// Debug-build invariant check at an insertion point: JDewey numbers
    /// at a level are strictly increasing, and parent numbers are monotone
    /// across the level (Property 3.1 / §III-A requirement 2).  Compiled
    /// away in release builds; violating inputs trip it under
    /// `cfg(debug_assertions)`.
    #[allow(unused_variables)]
    fn debug_assert_property_3_1(
        &self,
        tree: &XmlTree,
        level: usize,
        pos: usize,
        id: NodeId,
        n: u32,
    ) {
        #[cfg(debug_assertions)]
        {
            let Some(lv) = self.levels.get(level) else { return };
            let parent_number =
                |x: NodeId| tree.parent(x).map(|p| self.numbers.get(p.index()).copied());
            let this_parent = parent_number(id);
            if let Some(&prev) = pos.checked_sub(1).and_then(|p| lv.get(p)) {
                let prev_n = self.numbers.get(prev.index()).copied().unwrap_or(0);
                debug_assert!(
                    prev_n < n,
                    "JDewey uniqueness violated at level {level}: inserting {n} after {prev_n}"
                );
                debug_assert!(
                    parent_number(prev) <= this_parent,
                    "JDewey Property 3.1 violated at level {level}: {id} (number {n}) sorts \
                     after a node whose parent has a larger number"
                );
            }
            if let Some(&next) = lv.get(pos) {
                let next_n = self.numbers.get(next.index()).copied().unwrap_or(0);
                debug_assert!(
                    n < next_n,
                    "JDewey uniqueness violated at level {level}: inserting {n} before {next_n}"
                );
                debug_assert!(
                    this_parent <= parent_number(next),
                    "JDewey Property 3.1 violated at level {level}: {id} (number {n}) sorts \
                     before a node whose parent has a smaller number"
                );
            }
        }
    }

    /// Removes a node from its level list.  Internal to the maintainer.
    pub(crate) fn unregister(&mut self, tree: &XmlTree, id: NodeId) {
        let level = tree.depth(id) as usize;
        if let Some(lv) = self.levels.get_mut(level) {
            if let Some(pos) = lv.iter().position(|&x| x == id) {
                lv.remove(pos);
            }
        }
    }

}

/// Where the node numbered `n` sits in `nodes` (one level, ascending by
/// number) if it sits where a dense numbering puts it.  Numbers at a level
/// ascend strictly from 1, so number `n` is at or before position `n − 1`,
/// and exactly there while the level has no gap before it (`gap` 0 and no
/// insert or delete since) — `(level, number)` is then an address, read in
/// one probe.  `None` sends the caller to its search.
fn position_of(nodes: &[NodeId], numbers: &[u32], n: u32) -> Option<usize> {
    let pos = (n.checked_sub(1)? as usize).min(nodes.len().checked_sub(1)?);
    let id = nodes.get(pos)?;
    (numbers.get(id.index()) == Some(&n)).then_some(pos)
}

/// A forward-only position in one level's node list (see
/// [`JDeweyAssignment::level_cursor`]).  A lookup is O(1) on a densely
/// numbered level (number `n` is its `n`-th node); otherwise — Algorithm 1
/// emits a level's results in increasing JDewey number — it gallops from
/// the previous hit: O(log distance) instead of O(log width).
#[derive(Debug, Clone)]
pub struct LevelCursor<'a> {
    numbers: &'a [u32],
    nodes: &'a [NodeId],
    at: usize,
}

impl LevelCursor<'_> {
    /// The node numbered `n` at this level.  `n` must not be smaller than
    /// the previous call's.
    pub fn node_at(&mut self, n: u32) -> Option<NodeId> {
        if let Some(pos) = position_of(self.nodes, self.numbers, n) {
            // Numbers ascend strictly: `pos` is also where the gallop ends.
            self.at = pos;
            return self.nodes.get(pos).copied();
        }
        let number = |id: &NodeId| self.numbers.get(id.index()).copied();
        self.at = gallop_partition_point(self.nodes, self.at, |id| number(id).is_some_and(|x| x < n));
        self.nodes.get(self.at).copied().filter(|id| number(id) == Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 1 tree shape (labels approximate).
    fn fig1_like() -> XmlTree {
        let mut t = XmlTree::new();
        let root = t.add_root("dblp");
        let c1 = t.add_child(root, "conf");
        let _y0 = t.add_child(c1, "year");
        let y1 = t.add_child(c1, "year");
        let p1 = t.add_child(y1, "paper");
        let p2 = t.add_child(y1, "paper");
        t.add_child(p1, "title");
        t.add_child(p2, "title");
        let c2 = t.add_child(root, "conf");
        let y2 = t.add_child(c2, "year");
        t.add_child(y2, "paper");
        t
    }

    #[test]
    fn dense_assignment_is_sequential_per_level() {
        let t = fig1_like();
        let jd = JDeweyAssignment::assign(&t, 0);
        jd.validate(&t).unwrap();
        // Level 2 has two conf nodes numbered 1, 2.
        let l2: Vec<u32> = jd.level(2).iter().map(|&id| jd.number(id)).collect();
        assert_eq!(l2, vec![1, 2]);
        // Level 3: year, year, year => 1..3 dense.
        let l3: Vec<u32> = jd.level(3).iter().map(|&id| jd.number(id)).collect();
        assert_eq!(l3, vec![1, 2, 3]);
    }

    #[test]
    fn gapped_assignment_reserves_space() {
        let t = fig1_like();
        let jd = JDeweyAssignment::assign(&t, 2);
        jd.validate(&t).unwrap();
        // conf1's children (2 years) get 1,2 then +2 gap; conf2's year gets 5.
        let l3: Vec<u32> = jd.level(3).iter().map(|&id| jd.number(id)).collect();
        assert_eq!(l3, vec![1, 2, 5]);
    }

    #[test]
    fn node_at_identifies_by_level_and_number() {
        let t = fig1_like();
        let jd = JDeweyAssignment::assign(&t, 3);
        for id in t.ids() {
            let level = t.depth(id);
            let n = jd.number(id);
            assert_eq!(jd.node_at(level, n), Some(id));
        }
        assert_eq!(jd.node_at(2, 999), None);
        assert_eq!(jd.node_at(99, 1), None);
    }

    /// Every level, every number from 0 past the maximum — present,
    /// spare and absent alike — by `node_at` and through one cursor per
    /// ascending sweep, against a linear scan of the level.  Returns how
    /// many present numbers do not sit where a dense numbering puts them
    /// (and so were answered by the search, not by position).
    fn assert_cursor_matches_node_at(
        jd: &JDeweyAssignment,
        rng: &mut crate::testutil::Rng,
    ) -> usize {
        let mut searched = 0;
        for level in 0..=jd.num_levels() + 1 {
            let nodes = jd.level(level);
            let top = jd.max_number_at(level) + 3;
            let mut dense = jd.level_cursor(level);
            for n in 0..=top {
                let scanned = nodes.iter().copied().find(|&id| jd.number(id) == n);
                assert_eq!(jd.node_at(level, n), scanned, "level {level} n {n}");
                assert_eq!(dense.node_at(n), scanned, "cursor, level {level} n {n}");
                if scanned.is_some() && position_of(nodes, &jd.numbers, n).is_none() {
                    searched += 1;
                }
            }
            // Sparse ascending probes with repeats: the gallop's long jumps.
            let mut probes: Vec<u32> = (0..8).map(|_| rng.gen_range(0..top + 1)).collect();
            probes.sort_unstable();
            let mut sparse = jd.level_cursor(level);
            for n in probes {
                assert_eq!(sparse.node_at(n), jd.node_at(level, n), "level {level} n {n}");
            }
        }
        searched
    }

    #[test]
    fn level_cursor_matches_node_at() {
        let mut rng = crate::testutil::Rng::seed_from_u64(0x1D_C0);
        for gap in [0, 1, 3] {
            let searched =
                assert_cursor_matches_node_at(&JDeweyAssignment::assign(&fig1_like(), gap), &mut rng);
            // Dense: every number is its own position.  Gapped: some are not.
            assert_eq!(searched == 0, gap == 0, "gap {gap}: {searched} searched");
        }
        // After insertions: gap numbers taken, then a partial re-encode.
        let mut m = crate::maintain::JDeweyMaintainer::new(fig1_like(), 1);
        for i in 0..12u32 {
            let parent = NodeId(rng.gen_range(0..m.tree().len() as u32));
            m.insert_child_auto(parent, format!("ins{i}")).unwrap();
            assert!(assert_cursor_matches_node_at(m.assignment(), &mut rng) > 0);
        }
        assert!(m.reencode_count >= 1, "the sweep above ran on a re-encoded numbering");
        // After a delete in a dense numbering: what follows the hole has
        // moved one position down and is found by the search.
        let mut m = crate::maintain::JDeweyMaintainer::new(fig1_like(), 0);
        m.remove_subtree(NodeId(2)).unwrap();
        assert!(assert_cursor_matches_node_at(m.assignment(), &mut rng) > 0);
    }

    #[test]
    fn sequences_walk_root_to_node() {
        let t = fig1_like();
        let jd = JDeweyAssignment::assign(&t, 0);
        let deepest = NodeId(6); // first title
        let s = jd.seq_with(&t, deepest);
        assert_eq!(s.len(), 5);
        assert_eq!(s.at(1), Some(1));
        assert_eq!(s.at(6), None);
    }

    #[test]
    fn property_3_1_holds() {
        // For all node pairs: S1 < S2 implies columnwise <=.
        let t = fig1_like();
        let jd = JDeweyAssignment::assign(&t, 1);
        let seqs: Vec<JSeq> = t.ids().map(|id| jd.seq_with(&t, id)).collect();
        for s1 in &seqs {
            for s2 in &seqs {
                if s1 < s2 {
                    let m = s1.len().min(s2.len());
                    for i in 1..=m {
                        assert!(
                            s1.at(i).unwrap() <= s2.at(i).unwrap(),
                            "property 3.1 violated: {s1} vs {s2} at {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn jseq_order_matches_paper_definition() {
        // prefix < extension
        assert!(JSeq(vec![1, 2]) < JSeq(vec![1, 2, 1]));
        // first smaller component decides
        assert!(JSeq(vec![1, 2, 9]) < JSeq(vec![1, 3, 1]));
        assert_eq!(JSeq(vec![1]).seq_cmp(&JSeq(vec![1])), Ordering::Equal);
    }

    #[test]
    fn display_is_dotted() {
        assert_eq!(JSeq(vec![1, 3, 4]).to_string(), "1.3.4");
    }

    /// Satellite check: inserting a child whose number contradicts parent
    /// order (Property 3.1 requirement 2) must trip the debug assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Property 3.1")]
    fn register_trips_on_parent_order_violation() {
        let mut t = XmlTree::new();
        let root = t.add_root("r");
        let a = t.add_child(root, "a"); // level-2 number 1
        let b = t.add_child(root, "b"); // level-2 number 2
        let mut jd = JDeweyAssignment::assign(&t, 0);
        let ca = t.add_child(a, "ca");
        let cb = t.add_child(b, "cb");
        // cb (child of the *later* parent) gets the smaller number: any
        // list sorted by number now disagrees with parent order.
        jd.register(&t, cb, 1);
        jd.register(&t, ca, 2);
    }

    /// Duplicate numbers at one level violate requirement 1 (uniqueness).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "uniqueness")]
    fn register_trips_on_duplicate_number() {
        let mut t = XmlTree::new();
        let root = t.add_root("r");
        let a = t.add_child(root, "a");
        let b = t.add_child(root, "b");
        let mut jd = JDeweyAssignment::assign(&t, 0);
        let _ = (a, b);
        let c = t.add_child(root, "c");
        jd.register(&t, c, 2); // 2 is already taken by `b`
    }

    #[test]
    fn empty_tree_assignment() {
        let t = XmlTree::new();
        let jd = JDeweyAssignment::assign(&t, 0);
        assert_eq!(jd.num_levels(), 0);
        assert_eq!(jd.level(1), &[]);
    }
}
