//! Naive reference evaluators — the ground truth every optimized engine is
//! validated against.
//!
//! These run in `O(nodes × keywords)` time and memory with no pruning at
//! all; they exist for correctness testing (unit + property tests) and for
//! the documentation value of stating the semantics directly as code.

use crate::query::ElcaVariant;
use xtk_xml::tree::{NodeId, XmlTree};

/// Maximum query size supported by the bitmap-based evaluators (and by the
/// optimized engines, which use the same `u32` masks).
pub const MAX_KEYWORDS: usize = 32;

/// The full-mask value for `k` keywords.
#[inline]
pub fn full_mask(k: usize) -> u32 {
    assert!((1..=MAX_KEYWORDS).contains(&k), "1..=32 keywords supported, got {k}");
    if k == 32 {
        u32::MAX
    } else {
        (1u32 << k) - 1
    }
}

/// Per-node keyword bitmaps: `direct` (keywords in the node's own text)
/// and `raw` (keywords anywhere in the subtree).
#[derive(Debug, Clone)]
pub struct KeywordBitmaps {
    /// Keywords directly at each node.
    pub direct: Vec<u32>,
    /// Keywords anywhere in each node's subtree.
    pub raw: Vec<u32>,
}

/// Computes [`KeywordBitmaps`] for the given posting lists.
#[expect(clippy::indexing_slicing, reason = "node ids index vectors of tree.len() entries")]
pub fn keyword_bitmaps(tree: &XmlTree, lists: &[&[NodeId]]) -> KeywordBitmaps {
    let mut direct = vec![0u32; tree.len()];
    for (i, list) in lists.iter().enumerate() {
        for &n in *list {
            direct[n.index()] |= 1 << i;
        }
    }
    // Children have larger arena ids than parents (pre-order), so a single
    // reverse pass folds subtrees bottom-up.
    let mut raw = direct.clone();
    for i in (0..tree.len()).rev() {
        if let Some(p) = tree.parent(NodeId(i as u32)) {
            raw[p.index()] |= raw[i];
        }
    }
    KeywordBitmaps { direct, raw }
}

/// All SLCAs: minimal nodes whose subtree contains every keyword, in
/// document order.
#[expect(clippy::indexing_slicing, reason = "node ids index vectors of tree.len() entries")]
pub fn naive_slca(tree: &XmlTree, lists: &[&[NodeId]]) -> Vec<NodeId> {
    let full = full_mask(lists.len());
    let bm = keyword_bitmaps(tree, lists);
    let mut out = Vec::new();
    for id in tree.ids() {
        if bm.raw[id.index()] == full
            && tree.children(id).iter().all(|c| bm.raw[c.index()] != full)
        {
            out.push(id);
        }
    }
    out
}

/// All ELCAs under the chosen variant, in document order.
///
/// Recursive statement (computed bottom-up): `eff(v)` is the set of
/// keywords with a *non-excluded* occurrence under `v`, where a child
/// subtree's occurrences are excluded when the child subtree is an emitted
/// ELCA ([`ElcaVariant::Operational`]) or contains all keywords
/// ([`ElcaVariant::Formal`]); `v` is an ELCA iff `eff(v)` is full.
#[expect(clippy::indexing_slicing, reason = "node ids index vectors of tree.len() entries")]
pub fn naive_elca(tree: &XmlTree, lists: &[&[NodeId]], variant: ElcaVariant) -> Vec<NodeId> {
    let full = full_mask(lists.len());
    let bm = keyword_bitmaps(tree, lists);
    let mut eff = bm.direct.clone();
    let mut is_elca = vec![false; tree.len()];
    for i in (0..tree.len()).rev() {
        let id = NodeId(i as u32);
        let mut e = eff[i];
        for &c in tree.children(id) {
            let blocked = match variant {
                ElcaVariant::Operational => is_elca[c.index()],
                ElcaVariant::Formal => bm.raw[c.index()] == full,
            };
            if !blocked {
                e |= eff[c.index()];
            }
        }
        eff[i] = e;
        is_elca[i] = e == full;
    }
    tree.ids().filter(|id| is_elca[id.index()]).collect()
}

/// All distinct LCAs of keyword combinations (the exponential naive
/// semantics of §II-A).  Small inputs only — used to sanity-check that
/// ELCAs and SLCAs are subsets of the LCA set.
pub fn naive_all_lcas(tree: &XmlTree, lists: &[&[NodeId]]) -> Vec<NodeId> {
    // A node is an LCA of some combination iff its subtree contains every
    // keyword and the combination's occurrences do not share a single
    // child subtree... which is exactly: raw-full, and the combination can
    // be chosen so the LCA is not lower.  Enumerate combinations directly.
    fn rec(
        tree: &XmlTree,
        lists: &[&[NodeId]],
        i: usize,
        cur: Option<NodeId>,
        out: &mut std::collections::BTreeSet<NodeId>,
    ) {
        if i == lists.len() {
            if let Some(c) = cur {
                out.insert(c);
            }
            return;
        }
        let Some(&list) = lists.get(i) else { return };
        for &v in list {
            let next = match cur {
                None => v,
                Some(c) => tree.lca(c, v),
            };
            rec(tree, lists, i + 1, Some(next), out);
        }
    }
    let mut out = std::collections::BTreeSet::new();
    if lists.iter().all(|l| !l.is_empty()) {
        rec(tree, lists, 0, None, &mut out);
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    /// Extracts posting lists for single-letter "keywords" marked in text.
    fn lists<'a>(tree: &XmlTree, words: &[&str], store: &'a mut Vec<Vec<NodeId>>) -> Vec<&'a [NodeId]> {
        store.clear();
        for w in words {
            let mut l = Vec::new();
            for id in tree.ids() {
                if tree.text(id).split_whitespace().any(|t| t == *w) {
                    l.push(id);
                }
            }
            store.push(l);
        }
        store.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn paper_figure1_example() {
        // Mirror of the paper's Fig. 1 discussion: node 1.1.2 is the ELCA
        // for {xml, data}; 1.1 is an LCA but neither ELCA nor SLCA.
        let t = parse(
            "<root><paper><sec>xml</sec><body><t1>xml</t1><t2>data</t2></body></paper></root>",
        )
        .unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["xml", "data"], &mut store);
        let body = t.ids().find(|&i| t.label(i) == "body").unwrap();
        assert_eq!(naive_slca(&t, &ls), vec![body]);
        for v in [ElcaVariant::Operational, ElcaVariant::Formal] {
            assert_eq!(naive_elca(&t, &ls, v), vec![body], "{v:?}");
        }
        // LCAs include paper (lca of sec-xml and t2-data) and body.
        let paper = t.ids().find(|&i| t.label(i) == "paper").unwrap();
        let all = naive_all_lcas(&t, &ls);
        assert!(all.contains(&paper));
        assert!(all.contains(&body));
    }

    #[test]
    fn elca_includes_ancestors_with_own_witnesses() {
        // root has its own fresh "a" + "b" besides the nested ELCA.
        let t = parse("<r>a b<x><y>a</y><z>b</z></x></r>").unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["a", "b"], &mut store);
        let root = t.root();
        let x = t.children(root)[0];
        let elcas = naive_elca(&t, &ls, ElcaVariant::Operational);
        assert_eq!(elcas, vec![root, x]);
        // SLCA keeps only the minimal one.
        assert_eq!(naive_slca(&t, &ls), vec![x]);
    }

    #[test]
    fn variants_differ_on_rawfull_non_elca_descendant() {
        // w contains: A (an ELCA: a+b) and an extra "a" (x1) outside A.
        // => w is raw-full but not an ELCA (eff(w) = {a}).
        // u = parent of w also has "b" in another child C.
        // Operational: u sees x1 (a) + C (b) => u IS an ELCA.
        // Formal: x1 is inside raw-full subtree w => excluded => u is NOT.
        let t = parse("<u><w><aa>a b</aa><x1>a</x1></w><c>b</c></u>").unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["a", "b"], &mut store);
        let u = t.root();
        let aa = t.ids().find(|&i| t.label(i) == "aa").unwrap();
        let op = naive_elca(&t, &ls, ElcaVariant::Operational);
        let fo = naive_elca(&t, &ls, ElcaVariant::Formal);
        assert_eq!(op, vec![u, aa]);
        assert_eq!(fo, vec![aa]);
    }

    #[test]
    fn slca_empty_when_keyword_missing() {
        let t = parse("<r><a>x</a></r>").unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["x", "zzz"], &mut store);
        assert!(naive_slca(&t, &ls).is_empty());
        assert!(naive_elca(&t, &ls, ElcaVariant::Operational).is_empty());
        assert!(naive_all_lcas(&t, &ls).is_empty());
    }

    #[test]
    fn single_keyword_every_occurrence_is_slca_unless_nested() {
        let t = parse("<r><a>x<b>x</b></a><c>x</c></r>").unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["x"], &mut store);
        // SLCAs: the deepest x-containing nodes: b and c (a contains b).
        let b = t.ids().find(|&i| t.label(i) == "b").unwrap();
        let c = t.ids().find(|&i| t.label(i) == "c").unwrap();
        assert_eq!(naive_slca(&t, &ls), vec![b, c]);
        // ELCAs: a (own occurrence outside b), b, c — not root (all
        // occurrences under the a/c ELCAs).
        let a = t.ids().find(|&i| t.label(i) == "a").unwrap();
        assert_eq!(naive_elca(&t, &ls, ElcaVariant::Operational), vec![a, b, c]);
    }

    #[test]
    fn elcas_and_slcas_are_lcas() {
        let t = parse("<r><p>a</p><q><s>a b</s><t>b</t></q>b</r>").unwrap();
        let mut store = Vec::new();
        let ls = lists(&t, &["a", "b"], &mut store);
        let all = naive_all_lcas(&t, &ls);
        for v in naive_slca(&t, &ls) {
            assert!(all.contains(&v));
        }
        for v in naive_elca(&t, &ls, ElcaVariant::Formal) {
            assert!(all.contains(&v));
        }
    }

    #[test]
    fn full_mask_bounds() {
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(5), 0b11111);
        assert_eq!(full_mask(32), u32::MAX);
    }

    #[test]
    #[should_panic]
    fn zero_keywords_rejected() {
        let _ = full_mask(0);
    }
}
