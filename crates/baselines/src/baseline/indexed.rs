//! The index-based algorithms (Xu & Papakonstantinou; paper §II-C
//! "index-based").
//!
//! Both algorithms scan the **shortest** inverted list and binary-search
//! the other lists for each occurrence `v`'s closest neighbours (`lm`,
//! `rm`): the lowest ancestor of `v` containing keyword `j` is the deeper
//! of `lca(v, lm_j(v))` and `lca(v, rm_j(v))`, so the lowest ancestor of
//! `v` containing *all* keywords — `slca_can(v)`/`elca_can(v)` — is the
//! shallowest of those per-keyword ancestors.  Complexity
//! `O(d·k·|L_1|·log|L|)`, the index-join shape of the paper's comparison.
//!
//! * **SLCA (Indexed Lookup Eager)**: the SLCAs are exactly the minimal
//!   candidates, removed of ancestors in one doc-order pass.
//! * **ELCA**: every formal ELCA equals `elca_can(v)` for some `v` in any
//!   single list (the completeness theorem of the EDBT'08 paper — valid
//!   for the *formal* exclusion variant, which is therefore what this
//!   engine computes); candidates are verified with
//!   [`verify_and_score`](crate::verify::verify_and_score).

use crate::postings::{left_match, right_match};
use crate::verify::verify_and_score;
use crate::BaselineIndex;
use xtk_core::query::{Query, Semantics};
use xtk_core::result::ScoredResult;
use xtk_index::{TermData, XmlIndex};
use xtk_xml::tree::NodeId;

/// Options for [`indexed_search`].
#[derive(Debug, Clone, Copy)]
pub struct IndexedOptions {
    /// ELCA (formal variant) or SLCA.
    pub semantics: Semantics,
    /// Compute ranking scores for the results.
    pub with_scores: bool,
}

impl Default for IndexedOptions {
    fn default() -> Self {
        Self { semantics: Semantics::Elca, with_scores: false }
    }
}

/// The lowest ancestor of `v` whose subtree contains every keyword
/// (`slca_can`/`elca_can` in the literature), or `None` if some keyword
/// has an empty list.
pub fn lowest_full_ancestor(
    ix: &XmlIndex,
    terms: &[&TermData],
    v: NodeId,
) -> Option<NodeId> {
    let tree = ix.tree();
    let mut depth = tree.depth(v);
    for t in terms {
        let mut best: u16 = 0;
        if let Some(l) = left_match(&t.postings, v) {
            best = best.max(tree.depth(tree.lca(v, l)));
        }
        if let Some(r) = right_match(&t.postings, v) {
            best = best.max(tree.depth(tree.lca(v, r)));
        }
        if best == 0 {
            return None;
        }
        depth = depth.min(best);
    }
    let mut u = v;
    while tree.depth(u) > depth {
        match tree.parent(u) {
            Some(p) => u = p,
            None => break, // unreachable: depth > target implies a parent
        }
    }
    Some(u)
}

/// Runs the index-based algorithm.  Results in document order.
pub fn indexed_search(
    bx: &BaselineIndex,
    query: &Query,
    opts: &IndexedOptions,
) -> Vec<ScoredResult> {
    let ix = bx.index();
    let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    if terms.iter().any(|t| t.is_empty()) {
        return Vec::new();
    }
    let tree = ix.tree();
    // Drive from the shortest list.
    let Some(shortest) = terms.iter().min_by_key(|t| t.len()) else {
        return Vec::new();
    };

    // Candidate generation: lowest full ancestor per driving occurrence.
    // Candidates arrive in non-decreasing... not exactly sorted, so sort +
    // dedup before the minimality / verification pass.
    let mut candidates: Vec<NodeId> = Vec::with_capacity(shortest.len());
    for &v in &shortest.postings {
        if let Some(u) = lowest_full_ancestor(ix, &terms, v) {
            candidates.push(u);
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut results = Vec::new();
    match opts.semantics {
        Semantics::Slca => {
            // Minimal candidates only: drop a candidate when the next
            // distinct candidate is inside its subtree (descendant
            // candidates are doc-order-contiguous right after it).
            for (i, &u) in candidates.iter().enumerate() {
                let range = bx.subtree_range(u);
                let has_desc = candidates
                    .get(i + 1)
                    .is_some_and(|&next| next > u && next < range.end);
                if !has_desc {
                    // Minimal candidates verify as SLCAs; fall back to an
                    // unscored result on an inconsistent index.
                    let score = if opts.with_scores {
                        verify_and_score(bx, &terms, u, Semantics::Slca).unwrap_or(0.0)
                    } else {
                        0.0
                    };
                    results.push(ScoredResult { node: u, level: tree.depth(u), score });
                }
            }
        }
        Semantics::Elca => {
            for &u in &candidates {
                if let Some(score) = verify_and_score(bx, &terms, u, Semantics::Elca) {
                    results.push(ScoredResult {
                        node: u,
                        level: tree.depth(u),
                        score: if opts.with_scores { score } else { 0.0 },
                    });
                }
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_core::query::ElcaVariant;
    use xtk_core::semantics::{naive_elca, naive_slca};
    use xtk_xml::parse;

    fn check(xml: &str, words: &[&str], semantics: Semantics) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        let opts = IndexedOptions { semantics, with_scores: false };
        let got: Vec<NodeId> = indexed_search(&BaselineIndex::new(&ix), &q, &opts)
            .into_iter()
            .map(|r| r.node)
            .collect();
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings.as_slice()).collect();
        let want = match semantics {
            Semantics::Elca => naive_elca(ix.tree(), &lists, ElcaVariant::Formal),
            Semantics::Slca => naive_slca(ix.tree(), &lists),
        };
        assert_eq!(got, want, "{semantics:?} on {xml}");
    }

    #[test]
    fn slca_ile_agrees_with_naive() {
        let xml = "<r><p><s>a b</s><t>a</t></p><q>a b</q><z>b</z></r>";
        check(xml, &["a", "b"], Semantics::Slca);
    }

    #[test]
    fn elca_candidates_verify_against_formal() {
        let xml = "<u><w><aa>a b</aa><x1>a</x1></w><c>b</c></u>";
        check(xml, &["a", "b"], Semantics::Elca);
    }

    #[test]
    fn three_keyword_queries() {
        let xml = "<r><x><p>a</p><q>b</q><s>c</s></x><y>a b c</y><z><h>a b</h>c</z></r>";
        check(xml, &["a", "b", "c"], Semantics::Slca);
        check(xml, &["a", "b", "c"], Semantics::Elca);
    }

    #[test]
    fn lowest_full_ancestor_basics() {
        let ix = XmlIndex::build(parse("<r><p><s>a</s><t>b</t></p><q>b</q></r>").unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let s = ix.tree().ids().find(|&i| ix.tree().label(i) == "s").unwrap();
        let p = ix.tree().ids().find(|&i| ix.tree().label(i) == "p").unwrap();
        assert_eq!(lowest_full_ancestor(&ix, &terms, s), Some(p));
    }

    #[test]
    fn scores_match_verifier() {
        let xml = "<r><p>a b</p><q>a</q></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let opts = IndexedOptions { semantics: Semantics::Elca, with_scores: true };
        let rs = indexed_search(&BaselineIndex::new(&ix), &q, &opts);
        assert!(!rs.is_empty());
        for r in rs {
            assert!(r.score > 0.0);
        }
    }
}
