//! Result types shared by all engines.

use xtk_xml::tree::NodeId;

/// One ELCA/SLCA result with its ranking score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredResult {
    /// The result node.
    pub node: NodeId,
    /// Tree level (depth) of the node; root = 1.
    pub level: u16,
    /// Aggregated ranking score `F(I_1, …, I_k)` — the sum over keywords of
    /// the maximum damped occurrence score (paper §II-B).  Zero when the
    /// caller asked for unscored evaluation.
    pub score: f32,
}

impl ScoredResult {
    /// Sorts results the way every engine reports them for comparison:
    /// score descending, ties broken by `(level, node)` descending-level so
    /// deeper (more specific) results come first, then by node id.
    pub fn rank_cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(other.level.cmp(&self.level))
            .then(self.node.cmp(&other.node))
    }
}

/// Sorts a result list into the canonical rank order (see
/// [`ScoredResult::rank_cmp`]).
pub fn sort_ranked(results: &mut [ScoredResult]) {
    results.sort_by(ScoredResult::rank_cmp);
}

/// The `k` best of `results` in rank order (all of them for `None`): what
/// [`sort_ranked`] followed by `truncate(k)` leaves, without ordering the
/// part that is cut.  [`ScoredResult::rank_cmp`] is a total order, so the
/// selection and the sort agree on which `k` lead and in which order.
pub fn rank_top(results: &mut Vec<ScoredResult>, k: Option<usize>) {
    if let Some(k) = k.filter(|&k| k < results.len()) {
        if let Some(kth) = k.checked_sub(1) {
            results.select_nth_unstable_by(kth, ScoredResult::rank_cmp);
        }
        results.truncate(k);
    }
    sort_ranked(results);
}

/// Sorts results in document order (level-insensitive node order) — the
/// order the complete-set engines naturally produce for unscored runs.
pub fn sort_doc_order(results: &mut [ScoredResult]) {
    results.sort_by_key(|r| r.node);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_order_prefers_score_then_depth() {
        let mut rs = vec![
            ScoredResult { node: NodeId(5), level: 2, score: 0.4 },
            ScoredResult { node: NodeId(9), level: 4, score: 0.9 },
            ScoredResult { node: NodeId(1), level: 3, score: 0.4 },
        ];
        sort_ranked(&mut rs);
        assert_eq!(rs[0].node, NodeId(9));
        assert_eq!(rs[1].node, NodeId(1), "deeper level wins the 0.4 tie");
        assert_eq!(rs[2].node, NodeId(5));
    }

    #[test]
    fn rank_top_is_sort_then_truncate() {
        // Few distinct scores and levels: ties on score and on (score, level).
        xtk_xml::testutil::prop_check(0x7A_4B, 200, |g| {
            let len = g.len();
            let list: Vec<ScoredResult> = (0..len)
                .map(|i| ScoredResult {
                    node: NodeId(i as u32),
                    level: g.gen_range(1..4u16),
                    score: [0.0, -0.0, 0.25, 0.5, 1.5][g.gen_range(0..5usize)],
                })
                .collect();
            let bits = |rs: &[ScoredResult]| -> Vec<(u32, u16, u32)> {
                rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
            };
            for k in [None, Some(0), Some(1), len.checked_sub(1), Some(len), Some(len + 1)] {
                let mut expect = list.clone();
                sort_ranked(&mut expect);
                expect.truncate(k.unwrap_or(len));
                let mut got = list.clone();
                rank_top(&mut got, k);
                assert_eq!(bits(&got), bits(&expect), "k {k:?} of {len}");
            }
        });
    }

    #[test]
    fn doc_order_sorts_by_node() {
        let mut rs = vec![
            ScoredResult { node: NodeId(9), level: 4, score: 0.9 },
            ScoredResult { node: NodeId(1), level: 3, score: 0.1 },
        ];
        sort_doc_order(&mut rs);
        assert_eq!(rs[0].node, NodeId(1));
    }
}
