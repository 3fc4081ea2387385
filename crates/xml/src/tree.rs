//! Arena-based XML tree model.
//!
//! The tree is stored as a flat `Vec` of [`Node`]s indexed by [`NodeId`].
//! Nodes are laid out in **document order** (pre-order), which all of the
//! keyword-search algorithms in `xtk-core` rely on: iterating `0..tree.len()`
//! visits nodes exactly in the order a SAX parser would emit their start
//! tags.
//!
//! Attributes are modelled as child elements whose label starts with `'@'`
//! and whose text is the attribute value — the usual convention in the XML
//! keyword-search literature, where an attribute value is just another
//! "node directly containing" its terms.

use std::fmt;

/// Identifier of a node inside one [`XmlTree`] — an index into the arena.
///
/// `NodeId`s are assigned in document order: `a.0 < b.0` iff `a` starts
/// before `b` in the serialized document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One element (or attribute pseudo-element) in an [`XmlTree`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent node; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
    /// Element tag name (attributes use `@name`).
    pub label: Box<str>,
    /// Concatenated character data directly inside this element (text that
    /// belongs to child elements is *not* included).
    pub text: String,
    /// Position among the parent's children (0-based).  Forms the Dewey id.
    pub sib_index: u32,
}

/// An XML document as an arena of [`Node`]s in document order.
#[derive(Debug, Clone, Default)]
pub struct XmlTree {
    nodes: Vec<Node>,
    /// Depth of each node, aligned with `nodes`: the root has depth 1,
    /// matching the paper's "level" so that JDewey columns are 1-based.
    /// Kept out of [`Node`] because scoring reads the depth of every
    /// occurrence row: two bytes per node stay cache-resident where an
    /// 80-byte `Node` per row does not.
    depths: Vec<u16>,
}

impl XmlTree {
    /// Creates an empty tree (no root).  Use [`XmlTree::add_root`] or the
    /// parser to populate it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tree with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Self { nodes: Vec::with_capacity(n), depths: Vec::with_capacity(n) }
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node.
    ///
    /// # Panics
    /// Panics if the tree is empty.
    #[inline]
    pub fn root(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "XmlTree::root on empty tree");
        NodeId(0)
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// The tag label of `id`.
    #[inline]
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].label
    }

    /// The direct text of `id`.
    #[inline]
    pub fn text(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].text
    }

    /// The depth (level) of `id`; the root has depth 1.
    #[inline]
    pub fn depth(&self, id: NodeId) -> u16 {
        self.depths[id.index()]
    }

    /// The parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The children of `id` in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Iterates over all node ids in document (pre-order) order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Adds a root element.  Must be called on an empty tree.
    pub fn add_root(&mut self, label: impl Into<Box<str>>) -> NodeId {
        assert!(self.nodes.is_empty(), "add_root on non-empty tree");
        self.nodes.push(Node {
            parent: None,
            children: Vec::new(),
            label: label.into(),
            text: String::new(),
            sib_index: 0,
        });
        self.depths.push(1);
        NodeId(0)
    }

    /// Appends a child with the given label under `parent` and returns its
    /// id.
    ///
    /// **Document-order caveat:** ids are allocated in call order, so to
    /// keep the arena in document order callers must build the tree in
    /// pre-order (as the parser and the generators do).  Algorithms that
    /// need document order should use Dewey ids when the build order is not
    /// known to be pre-order.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<Box<str>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let depth = self.depths[parent.index()] + 1;
        let sib_index = self.nodes[parent.index()].children.len() as u32;
        self.nodes[parent.index()].children.push(id);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            label: label.into(),
            text: String::new(),
            sib_index,
        });
        self.depths.push(depth);
        id
    }

    /// Appends character data to the direct text of `id`.
    pub fn append_text(&mut self, id: NodeId, text: &str) {
        let t = &mut self.nodes[id.index()].text;
        if !t.is_empty() && !t.ends_with(char::is_whitespace) && !text.starts_with(char::is_whitespace) {
            t.push(' ');
        }
        t.push_str(text);
    }

    /// `true` iff `anc` is an ancestor of `desc` (strict; a node is not its
    /// own ancestor).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// `true` iff `anc` is `desc` or an ancestor of `desc`.
    #[inline]
    pub fn is_ancestor_or_self(&self, anc: NodeId, desc: NodeId) -> bool {
        anc == desc || self.is_ancestor(anc, desc)
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut a = a;
        let mut b = b;
        // Walking off the root (no parent) can only happen on malformed
        // depth data; converge on whatever node we reached instead of
        // panicking.
        while self.depth(a) > self.depth(b) {
            match self.parent(a) {
                Some(p) => a = p,
                None => return a,
            }
        }
        while self.depth(b) > self.depth(a) {
            match self.parent(b) {
                Some(p) => b = p,
                None => return b,
            }
        }
        while a != b {
            match (self.parent(a), self.parent(b)) {
                (Some(pa), Some(pb)) => {
                    a = pa;
                    b = pb;
                }
                _ => return a,
            }
        }
        a
    }

    /// The maximum depth of any node (the paper's `d`); 0 for an empty tree.
    pub fn max_depth(&self) -> u16 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// The path of labels from the root to `id`, joined with `/`.
    /// Useful for displaying results.
    pub fn path_string(&self, id: NodeId) -> String {
        let mut labels = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            labels.push(self.label(c));
            cur = self.parent(c);
        }
        labels.reverse();
        let mut s = String::new();
        for l in labels {
            s.push('/');
            s.push_str(l);
        }
        s
    }

    /// Iterates the subtree rooted at `id` (inclusive) in document order.
    pub fn descendants_or_self(&self, id: NodeId) -> DescendantsOrSelf<'_> {
        DescendantsOrSelf { tree: self, stack: vec![id] }
    }

    /// Builds a new tree from a *forest slice* of this one: a fresh root
    /// carrying this tree's root label (but none of its direct text) plus
    /// verbatim copies — labels and text — of the subtrees rooted at
    /// `roots`, in the given order.
    ///
    /// Each subtree is copied in pre-order, so the new arena is in
    /// document order.  Depths are recomputed relative to the new root:
    /// when the `roots` are children of this tree's root (the document
    /// shards of `xtk-core::shard`), every copied node keeps its original
    /// depth, and when they are additionally a *contiguous* run of those
    /// children, node ids map back by a constant offset — new id `j ≥ 1`
    /// copies original id `roots[0] + (j − 1)`.
    ///
    /// On an empty tree (or with no `roots`) the result is a single
    /// root-only tree.
    pub fn subforest(&self, roots: &[NodeId]) -> XmlTree {
        let total: usize = roots
            .iter()
            .map(|&r| {
                self.nodes
                    .get(r.index())
                    .map_or(0, |_| self.descendants_or_self(r).count())
            })
            .sum();
        let mut out = XmlTree::with_capacity(total + 1);
        let label: Box<str> = self
            .nodes
            .first()
            .map(|n| n.label.clone())
            .unwrap_or_else(|| Box::from("root"));
        let new_root = out.add_root(label);
        for &r in roots {
            let mut stack: Vec<(NodeId, NodeId)> = vec![(r, new_root)];
            while let Some((old, new_parent)) = stack.pop() {
                let Some(node) = self.nodes.get(old.index()) else { continue };
                let id = out.add_child(new_parent, node.label.clone());
                if !node.text.is_empty() {
                    if let Some(copy) = out.nodes.get_mut(id.index()) {
                        copy.text = node.text.clone();
                    }
                }
                for &c in node.children.iter().rev() {
                    stack.push((c, id));
                }
            }
        }
        out
    }

    /// Total bytes of direct text across the tree — used by corpus stats.
    pub fn total_text_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.text.len()).sum()
    }
}

/// Iterator over a subtree in document order (see
/// [`XmlTree::descendants_or_self`]).
pub struct DescendantsOrSelf<'a> {
    tree: &'a XmlTree,
    stack: Vec<NodeId>,
}

impl Iterator for DescendantsOrSelf<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children in reverse so the leftmost child is popped first.
        for &c in self.tree.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (XmlTree, Vec<NodeId>) {
        // root(1) -> a(2) -> c(3), d(3); b(2) -> e(3)
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
    fn build_and_navigate() {
        let (t, ids) = sample();
        let [root, a, c, d, b, e] = ids[..] else { unreachable!() };
        assert_eq!(t.len(), 6);
        assert_eq!(t.root(), root);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.children(root), &[a, b]);
        assert_eq!(t.depth(root), 1);
        assert_eq!(t.depth(e), 3);
        assert_eq!(t.node(d).sib_index, 1);
    }

    #[test]
    fn ancestry_and_lca() {
        let (t, ids) = sample();
        let [root, a, c, d, _b, e] = ids[..] else { unreachable!() };
        assert!(t.is_ancestor(root, e));
        assert!(t.is_ancestor(a, c));
        assert!(!t.is_ancestor(a, e));
        assert!(!t.is_ancestor(c, c));
        assert!(t.is_ancestor_or_self(c, c));
        assert_eq!(t.lca(c, d), a);
        assert_eq!(t.lca(c, e), root);
        assert_eq!(t.lca(a, c), a);
        assert_eq!(t.lca(root, root), root);
    }

    #[test]
    fn subforest_copies_contiguous_children_with_offset() {
        let (mut t, ids) = sample();
        let [_root, a, c, _d, b, e] = ids[..] else { unreachable!() };
        t.append_text(c, "gamma");
        t.append_text(e, "epsilon");
        // Copy the second root child only: new ids are old ids − offset + 1.
        let sub = t.subforest(&[b]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.label(sub.root()), "root");
        assert_eq!(sub.text(sub.root()), "", "root text is not carried over");
        let offset = b.0;
        for j in 1..sub.len() as u32 {
            let old = NodeId(offset + j - 1);
            let new = NodeId(j);
            assert_eq!(sub.label(new), t.label(old));
            assert_eq!(sub.text(new), t.text(old));
            assert_eq!(sub.depth(new), t.depth(old), "root children keep depths");
        }
        // Copying every child reproduces the whole arena shifted by one
        // semantic no-op (same pre-order, same labels/text/depths).
        let full = t.subforest(t.children(t.root()));
        assert_eq!(full.len(), t.len());
        for j in 1..full.len() as u32 {
            assert_eq!(full.label(NodeId(j)), t.label(NodeId(j)));
            assert_eq!(full.text(NodeId(j)), t.text(NodeId(j)));
            assert_eq!(full.depth(NodeId(j)), t.depth(NodeId(j)));
        }
        // Empty roots: a lone root.
        assert_eq!(t.subforest(&[]).len(), 1);
        let _ = a;
    }

    #[test]
    fn text_appending_inserts_separator() {
        let (mut t, ids) = sample();
        let c = ids[2];
        t.append_text(c, "hello");
        t.append_text(c, "world");
        assert_eq!(t.text(c), "hello world");
        t.append_text(c, " trailing");
        assert_eq!(t.text(c), "hello world trailing");
    }

    #[test]
    fn document_order_matches_preorder() {
        let (t, _) = sample();
        let pre: Vec<NodeId> = t.descendants_or_self(t.root()).collect();
        let seq: Vec<NodeId> = t.ids().collect();
        assert_eq!(pre, seq);
    }

    #[test]
    fn path_string_walks_to_root() {
        let (t, ids) = sample();
        assert_eq!(t.path_string(ids[5]), "/root/b/e");
        assert_eq!(t.path_string(ids[0]), "/root");
    }

    #[test]
    fn max_depth_and_text_bytes() {
        let (mut t, ids) = sample();
        assert_eq!(t.max_depth(), 3);
        t.append_text(ids[1], "abcd");
        assert_eq!(t.total_text_bytes(), 4);
    }

    #[test]
    #[should_panic]
    fn root_of_empty_tree_panics() {
        let t = XmlTree::new();
        let _ = t.root();
    }
}
