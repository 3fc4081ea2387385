//! Score-sorted, length-grouped inverted lists (paper §IV-C, Fig. 7).
//!
//! The top-K join wants to retrieve postings in descending *damped* score
//! order for the column currently being joined.  The damped score of a
//! posting at depth `L` for column `l` is `g · λ^(L-l)`, so two postings of
//! different depths can swap order between columns — but postings of the
//! *same* depth never do.  Grouping a keyword's postings by sequence length
//! gives at most `tree depth` **segments**, each with a single global score
//! order; the complete per-column order is recovered online by merging the
//! segment heads (done by the cursor machinery in `xtk-core`).

use xtk_xml::tree::{NodeId, XmlTree};

/// One length group of a keyword's postings, sorted by local score
/// descending.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Depth (JDewey sequence length) of every posting in this segment.
    pub len: u16,
    /// Global posting rows, in descending `g` order (ties by row).
    pub rows: Vec<u32>,
    /// Largest local score in the segment (`g` of `rows[0]`).
    pub max_score: f32,
}

/// Groups `postings` by node depth and sorts each group by `scores`
/// descending.  Segments are returned in increasing `len` order.
pub fn build_segments(tree: &XmlTree, postings: &[NodeId], scores: &[f32]) -> Vec<Segment> {
    assert_eq!(postings.len(), scores.len());
    let mut by_len: Vec<Vec<u32>> = Vec::new();
    for (row, &node) in postings.iter().enumerate() {
        let d = tree.depth(node) as usize;
        if by_len.len() < d {
            by_len.resize(d, Vec::new());
        }
        let Some(bucket) = d.checked_sub(1).and_then(|i| by_len.get_mut(i)) else {
            continue; // depth 0 cannot occur (root has depth 1)
        };
        bucket.push(row as u32);
    }
    let score_of = |row: u32| scores.get(row as usize).copied().unwrap_or(f32::NEG_INFINITY);
    let mut segments = Vec::new();
    for (i, mut rows) in by_len.into_iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        rows.sort_by(|&a, &b| score_of(b).total_cmp(&score_of(a)).then(a.cmp(&b)));
        let max_score = rows.first().map_or(0.0, |&r| score_of(r));
        segments.push(Segment { len: (i + 1) as u16, rows, max_score });
    }
    segments
}

/// Full score-descending permutation of rows, ties by row as in
/// [`build_segments`] (the order the RDIL baseline in `xtk-baselines` scans
/// one list in, regardless of depth).
pub fn score_order(scores: &[f32]) -> Vec<u32> {
    let mut rows: Vec<u32> = (0..scores.len() as u32).collect();
    let score_of = |row: u32| scores.get(row as usize).copied().unwrap_or(f32::NEG_INFINITY);
    rows.sort_by(|&a, &b| score_of(b).total_cmp(&score_of(a)).then(a.cmp(&b)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    #[test]
    fn segments_group_by_depth_and_sort_by_score() {
        let t = parse("<r><a><p/><q/></a><b/></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        // postings: a(d2), p(d3), q(d3), b(d2)... but postings must be in
        // doc order: a, p, q, b.
        let postings = [ids[1], ids[2], ids[3], ids[4]];
        let scores = [0.3, 0.5, 0.9, 0.7];
        let segs = build_segments(&t, &postings, &scores);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len, 2);
        assert_eq!(segs[0].rows, vec![3, 0]); // b (0.7) before a (0.3)
        assert!((segs[0].max_score - 0.7).abs() < 1e-6);
        assert_eq!(segs[1].len, 3);
        assert_eq!(segs[1].rows, vec![2, 1]); // q (0.9) before p (0.5)
    }

    #[test]
    fn empty_depth_groups_are_skipped() {
        let t = parse("<r><a><p/></a></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        let segs = build_segments(&t, &[ids[2]], &[0.4]); // only depth 3
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 3);
    }

    #[test]
    fn ties_break_by_row_for_determinism() {
        let t = parse("<r><a/><b/><c/></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        let segs = build_segments(&t, &ids[1..4], &[0.5, 0.5, 0.5]);
        assert_eq!(segs[0].rows, vec![0, 1, 2]);
    }

    #[test]
    fn score_order_is_descending() {
        let order = score_order(&[0.2, 0.9, 0.5, 0.9]);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let t = parse("<r/>").unwrap();
        let _ = build_segments(&t, &[t.root()], &[]);
    }
}
