//! RDIL — XRank's Ranked Dewey Inverted List top-K algorithm (paper
//! §II-C).
//!
//! Inverted lists are consumed in descending **local score** order (not
//! document order).  For each popped occurrence `v`, index lookups on the
//! other lists build `v`'s lowest all-keyword ancestor, which is verified
//! and scored against the formal semantics (every formal result is the
//! lowest full ancestor of each of its witnesses, so this candidate
//! generation is complete).  A TA-style threshold bounds the unevaluated
//! results: an unevaluated result has all of its witnesses unpopped, so
//! its score is at most `Σ_i s^i` over the next (undamped) local scores —
//! generated results at or above that bound are emitted without blocking.
//!
//! The threshold is the classic TA-style bound the paper attributes to
//! the "traditional" algorithms — `max_i ( s^i + Σ_{j≠i} s_m^j )`, where
//! the *other* lists contribute their constant maxima.  That bound sinks
//! slowly (only the popped list's `s^i` decreases), which is exactly the
//! weakness §II-C analyses: RDIL rarely unblocks early and in practice
//! "terminates when the shortest list is completely scanned" — at that
//! point candidate generation is complete (every result is the lowest
//! full ancestor of one of its witnesses in *any* single list) and the
//! pending results can be flushed.
//!
//! The paper's other criticism is also visible by construction:
//! score-ordered scanning abandons the document-order pruning, so each
//! candidate costs fresh index lookups and a from-scratch verification.

use crate::baseline::indexed::lowest_full_ancestor;
use crate::verify::verify_and_score;
use crate::BaselineIndex;
use std::collections::{BinaryHeap, HashMap};
use xtk_core::query::{Query, Semantics};
use xtk_core::result::ScoredResult;
use xtk_core::starjoin::F32Ord;
use xtk_index::TermData;
use xtk_xml::tree::NodeId;

/// Options for [`rdil_search`].
#[derive(Debug, Clone, Copy)]
pub struct RdilOptions {
    /// Number of results to return.
    pub k: usize,
    /// ELCA (formal variant) or SLCA.
    pub semantics: Semantics,
}

impl Default for RdilOptions {
    fn default() -> Self {
        Self { k: 10, semantics: Semantics::Elca }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdilStats {
    /// Occurrences popped across all lists.
    pub pops: u64,
    /// Candidate nodes evaluated (verification + scoring runs).
    pub evaluated: u64,
    /// Results emitted before the lists were exhausted.
    pub emitted_early: u64,
}

/// Runs RDIL, returning at most `k` results in emission order.
pub fn rdil_search(
    bx: &BaselineIndex,
    query: &Query,
    opts: &RdilOptions,
) -> (Vec<ScoredResult>, RdilStats) {
    let mut stats = RdilStats::default();
    let ix = bx.index();
    let terms: Vec<TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let orders: Vec<&[u32]> = query.terms.iter().map(|&t| bx.score_order(t)).collect();
    let k = terms.len();
    if opts.k == 0 || terms.iter().any(|t| t.is_empty()) {
        return (Vec::new(), stats);
    }
    let tree = ix.tree();
    let mut ptr = vec![0usize; k]; // positions into the score orders
    let mut evaluated: HashMap<NodeId, bool> = HashMap::new();
    let mut pending: BinaryHeap<(F32Ord, NodeId)> = BinaryHeap::new();
    let mut results = Vec::new();
    let mut rr = 0usize;

    #[expect(
        clippy::indexing_slicing,
        reason = "ptr and orders hold one entry per keyword, and i < k"
    )]
    let next_score = |terms: &[TermData], ptr: &[usize], i: usize| -> f32 {
        match orders[i].get(ptr[i]) {
            Some(&row) => terms[i].scores()[row as usize],
            None => 0.0,
        }
    };
    // Per-list maxima (scores of the first entries) — constants in the
    // classic threshold.
    let s_max: Vec<f32> = (0..k).map(|i| next_score(&terms, &ptr, i)).collect();

    #[expect(
        clippy::indexing_slicing,
        reason = "i < k, and ptr[i] is checked against orders[i].len() before the read"
    )]
    loop {
        // Classic TA threshold over ungenerated results:
        // max_i ( s^i + Σ_{j≠i} s_m^j ).
        let mut threshold = f32::NEG_INFINITY;
        for i in 0..k {
            let mut b = next_score(&terms, &ptr, i);
            for (j, &mj) in s_max.iter().enumerate() {
                if j != i {
                    b += mj;
                }
            }
            threshold = threshold.max(b);
        }
        while let Some(&(F32Ord(score), node)) = pending.peek() {
            if score < threshold {
                break;
            }
            pending.pop();
            results.push(ScoredResult { node, level: tree.depth(node), score });
            stats.emitted_early += 1;
            if results.len() >= opts.k {
                return (results, stats);
            }
        }
        // Pop the next occurrence, round-robin.  Once ANY list is fully
        // scanned, candidate generation is complete (every result is the
        // lowest full ancestor of one of its witnesses in that list) and
        // the scan stops.
        if (0..k).any(|i| ptr[i] >= orders[i].len()) {
            break;
        }
        let i = rr % k;
        rr += 1;
        let row = orders[i][ptr[i]];
        ptr[i] += 1;
        stats.pops += 1;
        let v = terms[i].postings()[row as usize];
        // Candidate: v's lowest all-keyword ancestor.
        let Some(u) = lowest_full_ancestor(ix, &terms, v) else { continue };
        if let std::collections::hash_map::Entry::Vacant(e) = evaluated.entry(u) {
            stats.evaluated += 1;
            match verify_and_score(bx, &terms, u, opts.semantics) {
                Some(score) => {
                    e.insert(true);
                    pending.push((F32Ord(score), u));
                }
                None => {
                    e.insert(false);
                }
            }
        }
    }
    // Lists exhausted: flush.
    while results.len() < opts.k {
        let Some((F32Ord(score), node)) = pending.pop() else { break };
        results.push(ScoredResult { node, level: tree.depth(node), score });
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::indexed::{indexed_search, IndexedOptions};
    use xtk_core::result::sort_ranked;
    use xtk_index::XmlIndex;
    use xtk_xml::parse;

    fn check(xml: &str, words: &[&str], kk: usize, semantics: Semantics) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let bx = BaselineIndex::new(&ix);
        let q = Query::from_words(&ix, words).unwrap();
        let (got, _) = rdil_search(&bx, &q, &RdilOptions { k: kk, semantics });
        // Ground truth: the formal complete set with scores, ranked.
        let mut complete =
            indexed_search(&bx, &q, &IndexedOptions { semantics, with_scores: true });
        sort_ranked(&mut complete);
        assert_eq!(got.len(), kk.min(complete.len()));
        for (i, r) in got.iter().enumerate() {
            assert!(
                (complete[i].score - r.score).abs() < 1e-4,
                "rank {i}: rdil {} vs complete {}",
                r.score,
                complete[i].score
            );
            assert!(
                complete.iter().any(|c| c.node == r.node && (c.score - r.score).abs() < 1e-4),
                "rdil returned non-result {:?}",
                r.node
            );
        }
    }

    #[test]
    fn topk_matches_ranked_complete_set() {
        let xml = "<r><a><p>x y</p><q>x</q></a><b><s>x y</s></b><c>y</c><d>x y</d></r>";
        for kk in 1..5 {
            check(xml, &["x", "y"], kk, Semantics::Elca);
            check(xml, &["x", "y"], kk, Semantics::Slca);
        }
    }

    #[test]
    fn three_keywords() {
        let xml = "<r><u><p>a b c</p></u><v><p>a b</p><q>c</q></v><w>a<x>b c</x></w></r>";
        for kk in [1, 3, 10] {
            check(xml, &["a", "b", "c"], kk, Semantics::Elca);
        }
    }

    #[test]
    fn early_emission_counts() {
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<p>hot cold{}</p>", i % 2));
        }
        xml.push_str("<z><zz>hot</zz><zy>cold0 cold1</zy></z></r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let q = Query::from_words(&ix, &["hot", "cold0"]).unwrap();
        let opts = RdilOptions { k: 3, semantics: Semantics::Elca };
        let (got, stats) = rdil_search(&BaselineIndex::new(&ix), &q, &opts);
        assert_eq!(got.len(), 3);
        assert!(stats.pops > 0);
        assert!(stats.evaluated > 0);
    }

    #[test]
    fn k_zero() {
        let ix = XmlIndex::build(parse("<r>a b</r>").unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let opts = RdilOptions { k: 0, semantics: Semantics::Elca };
        let (got, _) = rdil_search(&BaselineIndex::new(&ix), &q, &opts);
        assert!(got.is_empty());
    }
}
