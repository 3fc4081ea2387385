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
/// descending — a view over the term's segment rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment<'a> {
    /// Depth (JDewey sequence length) of every posting in this segment.
    pub len: u16,
    /// Global posting rows, in descending `g` order (ties by row).
    pub rows: &'a [u32],
    /// Largest local score in the segment (`g` of `rows[0]`).
    pub max_score: f32,
}

/// Where one segment sits in its term's segment rows: what the index
/// stores per segment beside the rows themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentHead {
    /// Depth of every posting in the segment.
    pub len: u16,
    /// Largest local score in the segment.
    pub max_score: f32,
    /// One past the segment's last row, counted from the term's first
    /// segment row (the segment starts where the previous one ends).
    pub end: u32,
}

/// Groups `postings` by node depth and sorts each group by `scores`
/// descending: appends the term's rows, segment after segment, to `rows`
/// and one [`SegmentHead`] per segment to `heads`.  Segments come in
/// increasing `len` order.
pub fn build_segments(
    tree: &XmlTree,
    postings: &[NodeId],
    scores: &[f32],
    rows: &mut Vec<u32>,
    heads: &mut Vec<SegmentHead>,
) {
    assert_eq!(postings.len(), scores.len());
    let from = rows.len();
    rows.extend(0..postings.len() as u32);
    let term_rows = rows.get_mut(from..).unwrap_or_default();
    sort_segment_rows(tree, postings, scores, term_rows);
    heads.extend(segment_heads(tree, postings, scores, term_rows));
}

/// Orders a term's rows — any permutation of `0..postings.len()` — by
/// depth, then score descending, then row: its segments, concatenated.
/// The key is total, so the order does not depend on the one it starts
/// from.
pub(crate) fn sort_segment_rows(tree: &XmlTree, postings: &[NodeId], scores: &[f32], rows: &mut [u32]) {
    let depth_of = |row: u32| postings.get(row as usize).map_or(0, |&n| tree.depth(n));
    let score_of = |row: u32| scores.get(row as usize).copied().unwrap_or(f32::NEG_INFINITY);
    rows.sort_unstable_by(|&a, &b| {
        depth_of(a)
            .cmp(&depth_of(b))
            .then_with(|| score_of(b).total_cmp(&score_of(a)))
            .then(a.cmp(&b))
    });
}

/// The heads of rows ordered by [`sort_segment_rows`]: one per run of
/// equal depth.
pub(crate) fn segment_heads<'r>(
    tree: &'r XmlTree,
    postings: &'r [NodeId],
    scores: &'r [f32],
    rows: &'r [u32],
) -> impl Iterator<Item = SegmentHead> + 'r {
    let depth_of = move |row: u32| postings.get(row as usize).map_or(0, |&n| tree.depth(n));
    rows.chunk_by(move |&a, &b| depth_of(a) == depth_of(b)).scan(0u32, move |end, seg| {
        let first = seg.first().copied().unwrap_or(0);
        *end += seg.len() as u32;
        Some(SegmentHead {
            len: depth_of(first),
            max_score: scores.get(first as usize).copied().unwrap_or(0.0),
            end: *end,
        })
    })
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

    /// The segments of one term, owned: `(len, rows, max_score)`.
    fn build(tree: &XmlTree, postings: &[NodeId], scores: &[f32]) -> Vec<(u16, Vec<u32>, f32)> {
        let (mut rows, mut heads) = (Vec::new(), Vec::new());
        build_segments(tree, postings, scores, &mut rows, &mut heads);
        let mut start = 0;
        heads
            .iter()
            .map(|h| {
                let seg = (h.len, rows[start..h.end as usize].to_vec(), h.max_score);
                start = h.end as usize;
                seg
            })
            .collect()
    }

    #[test]
    fn segments_group_by_depth_and_sort_by_score() {
        let t = parse("<r><a><p/><q/></a><b/></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        // postings: a(d2), p(d3), q(d3), b(d2)... but postings must be in
        // doc order: a, p, q, b.
        let postings = [ids[1], ids[2], ids[3], ids[4]];
        let scores = [0.3, 0.5, 0.9, 0.7];
        let segs = build(&t, &postings, &scores);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, 2);
        assert_eq!(segs[0].1, vec![3, 0]); // b (0.7) before a (0.3)
        assert!((segs[0].2 - 0.7).abs() < 1e-6);
        assert_eq!(segs[1].0, 3);
        assert_eq!(segs[1].1, vec![2, 1]); // q (0.9) before p (0.5)
    }

    #[test]
    fn empty_depth_groups_are_skipped() {
        let t = parse("<r><a><p/></a></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        let segs = build(&t, &[ids[2]], &[0.4]); // only depth 3
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 3);
    }

    #[test]
    fn ties_break_by_row_for_determinism() {
        let t = parse("<r><a/><b/><c/></r>").unwrap();
        let ids: Vec<NodeId> = t.ids().collect();
        let segs = build(&t, &ids[1..4], &[0.5, 0.5, 0.5]);
        assert_eq!(segs[0].1, vec![0, 1, 2]);
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
        let _ = build(&t, &[t.root()], &[]);
    }
}
