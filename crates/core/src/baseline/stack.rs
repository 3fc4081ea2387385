//! The stack-based DIL algorithm (XRank; paper §II-C "stack-based").
//!
//! All `k` Dewey inverted lists are merged in document order.  A stack
//! holds the path from the root to the most recent occurrence; when the
//! next occurrence diverges from that path, the divergent tail is popped
//! and each popped node's ELCA/SLCA status is decided from the keyword
//! masks accumulated while its subtree was on the stack:
//!
//! * `raw` — keywords seen anywhere in the subtree,
//! * `eff` — keywords seen outside *blocked* child subtrees, where a child
//!   is blocked per the chosen [`ElcaVariant`] (itself an emitted ELCA, or
//!   raw-full),
//! * SLCA: `raw` full and no raw-full child.
//!
//! The complexity is `O(d · Σ|L_i|)` — every list is scanned completely,
//! which is why the paper's Fig. 9 shows this algorithm flat in the low
//! frequency: its cost is pinned to the highest-frequency keyword.

use crate::query::{ElcaVariant, Query, Semantics};
use crate::result::ScoredResult;
use crate::semantics::full_mask;
use xtk_index::{TermData, XmlIndex};
use xtk_xml::tree::NodeId;

/// Options for [`stack_search`].
#[derive(Debug, Clone, Copy)]
pub struct StackOptions {
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// ELCA exclusion variant (ignored for SLCA).
    pub variant: ElcaVariant,
}

impl Default for StackOptions {
    fn default() -> Self {
        Self { semantics: Semantics::Elca, variant: ElcaVariant::Operational }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    node: NodeId,
    raw: u32,
    eff: u32,
    rawfull_child: bool,
}

/// Runs the stack-based algorithm; results in document order of their
/// subtree completion (pop order).  Scores are not computed (the
/// stack-based system is an unranked complete-set baseline).
pub fn stack_search(ix: &XmlIndex, query: &Query, opts: &StackOptions) -> Vec<ScoredResult> {
    let terms: Vec<TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let k = terms.len();
    let full = full_mask(k);
    if terms.iter().any(|t| t.is_empty()) {
        return Vec::new();
    }
    let tree = ix.tree();
    let mut results = Vec::new();

    // K-way merge of the posting lists by node id (= document order),
    // coalescing keywords that share a node into one mask.
    let mut ptr = vec![0usize; k];
    let mut stack: Vec<Frame> = Vec::new();
    let mut chain: Vec<NodeId> = Vec::new();

    let pop_one = |stack: &mut Vec<Frame>, results: &mut Vec<ScoredResult>| {
        let Some(f) = stack.pop() else { return };
        let is_rawfull = f.raw == full;
        let is_result = match opts.semantics {
            Semantics::Elca => f.eff == full,
            Semantics::Slca => is_rawfull && !f.rawfull_child,
        };
        if is_result {
            results.push(ScoredResult {
                node: f.node,
                level: tree.depth(f.node),
                score: 0.0,
            });
        }
        if let Some(parent) = stack.last_mut() {
            parent.raw |= f.raw;
            parent.rawfull_child |= is_rawfull;
            let blocked = match (opts.semantics, opts.variant) {
                (Semantics::Elca, ElcaVariant::Operational) => is_result,
                _ => is_rawfull,
            };
            if !blocked {
                parent.eff |= f.eff;
            }
        }
    };

    loop {
        // Next occurrence in document order across all lists.
        let mut next: Option<NodeId> = None;
        for (t, &p) in terms.iter().zip(&ptr) {
            if let Some(&n) = t.postings().get(p) {
                if next.is_none_or(|m| n < m) {
                    next = Some(n);
                }
            }
        }
        let Some(v) = next else { break };
        let mut mask = 0u32;
        for (i, (t, p)) in terms.iter().zip(ptr.iter_mut()).enumerate() {
            if t.postings().get(*p) == Some(&v) {
                mask |= 1 << i;
                *p += 1;
            }
        }
        // Root-to-v chain.
        chain.clear();
        let mut cur = Some(v);
        while let Some(c) = cur {
            chain.push(c);
            cur = tree.parent(c);
        }
        chain.reverse();
        // Longest common prefix with the stack.
        let mut common = 0;
        while stack
            .get(common)
            .zip(chain.get(common))
            .is_some_and(|(f, &c)| f.node == c)
        {
            common += 1;
        }
        while stack.len() > common {
            pop_one(&mut stack, &mut results);
        }
        for &n in chain.get(common..).unwrap_or(&[]) {
            stack.push(Frame { node: n, raw: 0, eff: 0, rawfull_child: false });
        }
        let Some(top) = stack.last_mut() else { continue };
        debug_assert_eq!(top.node, v);
        top.raw |= mask;
        top.eff |= mask;
    }
    while !stack.is_empty() {
        pop_one(&mut stack, &mut results);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{naive_elca, naive_slca};
    use xtk_xml::parse;

    fn check(xml: &str, words: &[&str], semantics: Semantics, variant: ElcaVariant) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        let mut got: Vec<NodeId> = stack_search(&ix, &q, &StackOptions { semantics, variant })
            .into_iter()
            .map(|r| r.node)
            .collect();
        got.sort();
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings()).collect();
        let want = match semantics {
            Semantics::Elca => naive_elca(ix.tree(), &lists, variant),
            Semantics::Slca => naive_slca(ix.tree(), &lists),
        };
        assert_eq!(got, want, "{semantics:?} {variant:?} on {xml}");
    }

    #[test]
    fn agrees_with_naive_on_paper_example() {
        let xml = "<root><paper><sec>xml</sec><body><t1>xml</t1><t2>data</t2></body></paper>\
                   <paper><t>data</t></paper></root>";
        for sem in [Semantics::Elca, Semantics::Slca] {
            for v in [ElcaVariant::Operational, ElcaVariant::Formal] {
                check(xml, &["xml", "data"], sem, v);
            }
        }
    }

    #[test]
    fn variant_corner_case() {
        let xml = "<u><w><aa>a b</aa><x1>a</x1></w><c>b</c></u>";
        check(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Operational);
        check(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Formal);
    }

    #[test]
    fn three_keywords_and_direct_multi_keyword_nodes() {
        let xml = "<r><p>a b c</p><q><s>a c</s><t>b</t></q>c</r>";
        for sem in [Semantics::Elca, Semantics::Slca] {
            check(xml, &["a", "b", "c"], sem, ElcaVariant::Operational);
        }
    }

    #[test]
    fn deep_chains() {
        let xml = "<r><d1><d2><d3><d4>a</d4></d3>b</d2></d1><e>a b</e></r>";
        for sem in [Semantics::Elca, Semantics::Slca] {
            for v in [ElcaVariant::Operational, ElcaVariant::Formal] {
                check(xml, &["a", "b"], sem, v);
            }
        }
    }

    #[test]
    fn empty_when_keyword_absent_from_index_lists() {
        let ix = XmlIndex::build(parse("<r>a b</r>").unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let rs = stack_search(&ix, &q, &StackOptions::default());
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].node, ix.tree().root());
    }
}
