//! Candidate verification and scoring against the *formal* semantics —
//! shared by the index-based and RDIL baselines, which generate candidate
//! nodes and must then check them.
//!
//! For a candidate `u`:
//!
//! * `u` is **raw-full** iff every keyword occurs in its subtree;
//! * the *excluded* occurrences are those inside a raw-full **child**
//!   subtree of `u` (raw-fullness is upward closed, so "inside any
//!   raw-full strict descendant" ≡ "inside a raw-full child");
//! * `u` is a formal **ELCA** iff every keyword retains a non-excluded
//!   occurrence, and a **SLCA** iff it is raw-full with no raw-full child.
//!
//! The score returned is the paper's ranking function restricted to the
//! non-excluded occurrences (summed in query-keyword order, so it is
//! bit-identical to the other engines' scores).

use crate::postings::postings_in_range;
use crate::BaselineIndex;
use xtk_core::query::Semantics;
use xtk_index::TermData;
use xtk_xml::tree::{NodeId, XmlTree};

/// The raw-full children of `u`, as sorted arena-id ranges.
///
/// Found by mapping the occurrences of the least frequent keyword inside
/// `u` to their child-of-`u` ancestors and testing each for raw-fullness —
/// every raw-full child contains every keyword, so none is missed.
pub fn rawfull_child_ranges(
    bx: &BaselineIndex,
    terms: &[&TermData],
    u: NodeId,
) -> Vec<std::ops::Range<NodeId>> {
    let urange = bx.subtree_range(u);
    let Some(probe) = terms
        .iter()
        .min_by_key(|t| postings_in_range(&t.postings, urange.start, urange.end).len())
    else {
        return Vec::new();
    };
    let slice = postings_in_range(&probe.postings, urange.start, urange.end);
    let mut out: Vec<std::ops::Range<NodeId>> = Vec::new();
    for &x in slice {
        if x == u {
            continue;
        }
        // The child of u on the path to x; occurrences outside u's subtree
        // cannot happen (the slice is range-restricted), so a missing path
        // is skipped rather than unwrapped.
        let Some(c) = child_on_path(bx.index().tree(), u, x) else { continue };
        // Occurrences inside one child are doc-order contiguous, so a
        // repeat of the previous child is skipped cheaply.
        if out.last().is_some_and(|r| r.contains(&c)) {
            continue;
        }
        let crange = bx.subtree_range(c);
        let rawfull = terms.iter().all(|t| {
            !postings_in_range(&t.postings, crange.start, crange.end).is_empty()
        });
        if rawfull {
            out.push(crange);
        }
    }
    out
}

/// The child of `u` on the root path of `x`, or `None` when `x` is not a
/// strict descendant of `u`.
fn child_on_path(tree: &XmlTree, u: NodeId, x: NodeId) -> Option<NodeId> {
    let mut c = x;
    loop {
        let p = tree.parent(c)?;
        if p == u {
            return Some(c);
        }
        c = p;
    }
}

/// Verifies `u` under the formal semantics and computes its ranking score.
///
/// Returns `None` when `u` is not a result.  `u` need not be known
/// raw-full in advance.
pub fn verify_and_score(
    bx: &BaselineIndex,
    terms: &[&TermData],
    u: NodeId,
    semantics: Semantics,
) -> Option<f32> {
    let ix = bx.index();
    let urange = bx.subtree_range(u);
    // Raw-fullness first: cheap binary searches.
    for t in terms {
        if postings_in_range(&t.postings, urange.start, urange.end).is_empty() {
            return None;
        }
    }
    let excluded = rawfull_child_ranges(bx, terms, u);
    if semantics == Semantics::Slca && !excluded.is_empty() {
        return None;
    }
    let damping = ix.damping();
    let level = ix.tree().depth(u);
    let mut total = 0.0f32;
    for t in terms {
        let slice = postings_in_range(&t.postings, urange.start, urange.end);
        // Two-pointer over the sorted excluded ranges.
        let mut best = 0.0f32;
        let mut ei = 0;
        for &x in slice {
            while excluded.get(ei).is_some_and(|r| r.end <= x) {
                ei += 1;
            }
            if excluded.get(ei).is_some_and(|r| r.contains(&x)) {
                continue;
            }
            let row = t.postings.partition_point(|&p| p < x);
            debug_assert_eq!(t.postings.get(row), Some(&x));
            let g = t.scores.get(row).copied().unwrap_or(0.0);
            let damped = damping.damp(g, ix.tree().depth(x), level);
            if damped > best {
                best = damped;
            }
        }
        // Local scores are positive, so `best <= 0.0` means every
        // occurrence of this keyword was excluded (no float equality).
        if best <= 0.0 {
            return None;
        }
        total += best;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_core::query::{ElcaVariant, Query};
    use xtk_core::semantics::{naive_elca, naive_slca};
    use xtk_index::XmlIndex;
    use xtk_xml::parse;

    fn setup(xml: &str, words: &[&str]) -> (XmlIndex, Query) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        (ix, q)
    }

    #[test]
    fn verification_matches_naive_formal_elca() {
        let xml = "<u><w><aa>a b</aa><x1>a</x1></w><c>b</c><d><e>a</e><f>b</f></d></u>";
        let (ix, q) = setup(xml, &["a", "b"]);
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let lists: Vec<&[NodeId]> = terms.iter().map(|t| t.postings.as_slice()).collect();
        let want = naive_elca(ix.tree(), &lists, ElcaVariant::Formal);
        let bx = BaselineIndex::new(&ix);
        for id in ix.tree().ids() {
            let got = verify_and_score(&bx, &terms, id, Semantics::Elca).is_some();
            assert_eq!(got, want.contains(&id), "node {id} ({})", ix.tree().label(id));
        }
    }

    #[test]
    fn verification_matches_naive_slca() {
        let xml = "<r><p><s>a b</s><t>a</t></p><q>a b</q><z>b</z></r>";
        let (ix, q) = setup(xml, &["a", "b"]);
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let lists: Vec<&[NodeId]> = terms.iter().map(|t| t.postings.as_slice()).collect();
        let want = naive_slca(ix.tree(), &lists);
        let bx = BaselineIndex::new(&ix);
        for id in ix.tree().ids() {
            let got = verify_and_score(&bx, &terms, id, Semantics::Slca).is_some();
            assert_eq!(got, want.contains(&id), "node {id}");
        }
    }

    #[test]
    fn rawfull_children_found() {
        let xml = "<r><w1><x>a b</x>c</w1><w2>a</w2><w3><y>a</y><z>b</z></w3></r>";
        let (ix, q) = setup(xml, &["a", "b"]);
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let ranges = rawfull_child_ranges(&BaselineIndex::new(&ix), &terms, ix.tree().root());
        // w1 (via x) and w3 (via y+z) are raw-full children; w2 is not.
        assert_eq!(ranges.len(), 2);
        let labels: Vec<&str> = ranges.iter().map(|r| ix.tree().label(r.start)).collect();
        assert_eq!(labels, vec!["w1", "w3"]);
    }

    #[test]
    fn scores_use_damping_and_exclusion() {
        // Root's only non-excluded 'b' is the shallow one; the deep b
        // inside the raw-full child must not contribute.
        let xml = "<r><w><x>a b</x></w>a b</r>";
        let (ix, q) = setup(xml, &["a", "b"]);
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let bx = BaselineIndex::new(&ix);
        let root_score = verify_and_score(&bx, &terms, ix.tree().root(), Semantics::Elca).unwrap();
        // Root directly contains a and b at distance 0: no damping at all.
        let a_row = terms[0].postings.iter().position(|&n| n == ix.tree().root()).unwrap();
        let b_row = terms[1].postings.iter().position(|&n| n == ix.tree().root()).unwrap();
        let expect = terms[0].scores[a_row] + terms[1].scores[b_row];
        assert!((root_score - expect).abs() < 1e-6);
    }
}
