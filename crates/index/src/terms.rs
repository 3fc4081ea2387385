//! The per-term structures of one index, stored flat (CSR layout).
//!
//! Every term's postings, scores, JDewey columns, score-sorted segments,
//! level histograms and row directories live in a handful of arrays shared
//! by the whole vocabulary, each addressed through an offset array: term
//! `t`'s postings are `postings[row_at[t]..row_at[t + 1]]`, its columns
//! are the global columns `col_at[t]..col_at[t + 1]` (level `l` is column
//! `col_at[t] + l − 1`), and column `c`'s runs are
//! `runs[run_at[c]..run_at[c + 1]]`.  The paper keeps each keyword's lists
//! as compact column-store relations (§III-B, Fig. 7); a `Vec` per term
//! and level would make the index's memory a matter of allocator
//! overhead and allocation order instead of bytes.
//!
//! [`TermArena::push_term`] appends one term.  Readers get a
//! [`TermData`] view whose methods return slices.

use crate::columnar::{build_columns, Column, ColumnScratch, Run, RowDirectory};
use crate::histogram::{Histogram, HISTOGRAM_MIN_ROWS};
use crate::scored::{build_segments, Segment, SegmentHead};
use std::ops::Range;
use xtk_xml::jdewey::JDeweyAssignment;
use xtk_xml::tree::{NodeId, XmlTree};

/// Entry `i` of a CSR offset array as a range; empty when `i` is out of
/// range.
#[inline]
fn span(at: &[u32], i: usize) -> Range<usize> {
    match (at.get(i), at.get(i + 1)) {
        (Some(&a), Some(&b)) => a as usize..b as usize,
        _ => 0..0,
    }
}

/// `n` as a CSR offset.  Offsets are `u32`, so an arena holds at most
/// `u32::MAX` entries in each array (postings, runs, columns, segments,
/// row-directory entries, name bytes); one more is refused loudly rather
/// than wrapped into an offset that would read the wrong slice.
#[expect(clippy::expect_used, reason = "the build has no error path; see XmlIndex's docs")]
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("term arena exceeds u32 offsets")
}

/// Every term's physical structures, in flat arrays (see the module docs).
/// Offset arrays (`*_at`) hold one more entry than what they index, the
/// first being 0.
#[derive(Debug)]
pub(crate) struct TermArena {
    /// Term texts, concatenated; term `t` is `names[name_at[t]..name_at[t + 1]]`.
    names: String,
    name_at: Vec<u32>,
    /// Per term: its rows in `postings`, `scores` and `seg_rows`.
    row_at: Vec<u32>,
    postings: Vec<NodeId>,
    scores: Vec<f32>,
    /// Per term: its columns (index into `run_at`).
    col_at: Vec<u32>,
    /// Per column: its runs.
    run_at: Vec<u32>,
    runs: Vec<Run>,
    /// Per term: its segment heads.
    seg_at: Vec<u32>,
    segs: Vec<SegmentHead>,
    /// Per term: its rows in segment order (aligned with `postings`).
    seg_rows: Vec<u32>,
    /// The columns that carry a histogram, ascending, and theirs.
    hist_cols: Vec<u32>,
    hists: Vec<Histogram>,
    /// The columns that carry a row directory, ascending, and their
    /// entries `dir_entries[dir_at[i]..dir_at[i + 1]]`.
    dir_cols: Vec<u32>,
    dir_at: Vec<u32>,
    dir_entries: Vec<u32>,
}

impl Default for TermArena {
    fn default() -> Self {
        Self {
            names: String::new(),
            name_at: vec![0],
            row_at: vec![0],
            postings: Vec::new(),
            scores: Vec::new(),
            col_at: vec![0],
            run_at: vec![0],
            runs: Vec::new(),
            seg_at: vec![0],
            segs: Vec::new(),
            seg_rows: Vec::new(),
            hist_cols: Vec::new(),
            hists: Vec::new(),
            dir_cols: Vec::new(),
            dir_at: vec![0],
            dir_entries: Vec::new(),
        }
    }
}

impl TermArena {
    /// Reserves room for `terms` more terms of `rows` postings, `cols`
    /// columns and `runs` runs in all.  Sized exactly, each array is
    /// allocated once: grown by doubling, the runs (tens of MB on a large
    /// corpus) would be copied from block to block, and which freed memory
    /// those blocks reuse depends on what the process freed before — the
    /// resident peak of a build would differ from one run to the next.
    pub(crate) fn reserve(&mut self, terms: usize, rows: usize, cols: usize, runs: usize) {
        self.run_at.reserve_exact(cols);
        self.runs.reserve_exact(runs);
        self.row_at.reserve_exact(terms);
        self.col_at.reserve_exact(terms);
        self.seg_at.reserve_exact(terms);
        self.postings.reserve_exact(rows);
        self.scores.reserve_exact(rows);
        self.seg_rows.reserve_exact(rows);
    }

    /// Number of terms with structures.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.row_at.len() - 1
    }

    /// Appends a term text.  Names are pushed apart from the structures:
    /// the build learns them in its first pass and the rest in its third.
    pub(crate) fn push_name(&mut self, name: &str) {
        self.names.push_str(name);
        self.name_at.push(offset(self.names.len()));
    }

    /// Appends one term's structures: its postings (document order) and
    /// their local scores, then the columns, histograms, row directories
    /// and segments derived from them.  `scratch` is reused from term to
    /// term.
    pub(crate) fn push_term(
        &mut self,
        tree: &XmlTree,
        jd: &JDeweyAssignment,
        postings: &[NodeId],
        scores: impl IntoIterator<Item = f32>,
        scratch: &mut ColumnScratch,
    ) {
        let first_row = self.postings.len();
        self.postings.extend_from_slice(postings);
        self.scores.extend(scores);
        self.row_at.push(offset(self.postings.len()));
        let scores = self.scores.get(first_row..).unwrap_or_default();

        for runs in build_columns(tree, jd, postings, scratch) {
            let col_id = offset(self.run_at.len() - 1);
            let col = Column { runs };
            if col.row_count() >= HISTOGRAM_MIN_ROWS {
                if let Some(h) = Histogram::build(col) {
                    self.hist_cols.push(col_id);
                    self.hists.push(h);
                }
            }
            if RowDirectory::build(col, &mut self.dir_entries) {
                self.dir_cols.push(col_id);
                self.dir_at.push(offset(self.dir_entries.len()));
            }
            self.runs.extend_from_slice(runs);
            self.run_at.push(offset(self.runs.len()));
        }
        self.col_at.push(offset(self.run_at.len() - 1));

        build_segments(tree, postings, scores, &mut self.seg_rows, &mut self.segs);
        self.seg_at.push(offset(self.segs.len()));
    }

    /// Gives back the capacity the build over-reserved.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
        self.run_at.shrink_to_fit();
        self.segs.shrink_to_fit();
        self.hist_cols.shrink_to_fit();
        self.hists.shrink_to_fit();
        self.dir_cols.shrink_to_fit();
        self.dir_at.shrink_to_fit();
        self.dir_entries.shrink_to_fit();
        self.names.shrink_to_fit();
        self.name_at.shrink_to_fit();
    }

    /// The view of term `id`; an empty term for an id this arena does not
    /// hold.
    pub(crate) fn term(&self, id: usize) -> TermData<'_> {
        let rows = span(&self.row_at, id);
        let cols = span(&self.col_at, id);
        TermData {
            arena: self,
            id,
            postings: self.postings.get(rows.clone()).unwrap_or_default(),
            scores: self.scores.get(rows.clone()).unwrap_or_default(),
            seg_rows: self.seg_rows.get(rows).unwrap_or_default(),
            segs: self.segs.get(span(&self.seg_at, id)).unwrap_or_default(),
            run_at: self.run_at.get(cols.start..=cols.end).unwrap_or_default(),
            first_col: cols.start,
        }
    }
}

/// One term's physical structures: a `Copy` view into the index's arena.
/// The view of a term the index does not hold is empty: no postings, no
/// columns, no segments, an empty name.
#[derive(Clone, Copy)]
pub struct TermData<'a> {
    arena: &'a TermArena,
    id: usize,
    postings: &'a [NodeId],
    scores: &'a [f32],
    seg_rows: &'a [u32],
    segs: &'a [SegmentHead],
    /// The term's slice of `run_at`: one entry per column plus one.
    run_at: &'a [u32],
    first_col: usize,
}

impl std::fmt::Debug for TermData<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermData")
            .field("term", &self.name())
            .field("postings", &self.len())
            .field("levels", &self.max_len())
            .finish()
    }
}

impl<'a> TermData<'a> {
    /// The term text.
    pub fn name(&self) -> &'a str {
        self.arena.names.get(span(&self.arena.name_at, self.id)).unwrap_or_default()
    }

    /// Posting-list length (the term's frequency in the corpus).
    #[inline]
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// `true` iff the term has no postings (an indexed term always has).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Nodes directly containing the term, in document order.
    #[inline]
    pub fn postings(&self) -> &'a [NodeId] {
        self.postings
    }

    /// Local score `g(v, w)` per posting (aligned with [`postings`](Self::postings)).
    #[inline]
    pub fn scores(&self) -> &'a [f32] {
        self.scores
    }

    /// Maximum JDewey sequence length over the postings (`l_m`): the
    /// number of columns.
    #[inline]
    pub fn max_len(&self) -> u16 {
        self.run_at.len().saturating_sub(1) as u16
    }

    /// The global column of `level`, if the term reaches it.
    #[inline]
    fn col_id(&self, level: u16) -> Option<u32> {
        let i = usize::from(level).checked_sub(1)?;
        (i < usize::from(self.max_len())).then(|| (self.first_col + i) as u32)
    }

    /// The JDewey column of `level` (1 = the root's level), if the term
    /// reaches it.
    #[inline]
    pub fn column(&self, level: u16) -> Option<Column<'a>> {
        let i = usize::from(level).checked_sub(1)?;
        match (self.run_at.get(i), self.run_at.get(i + 1)) {
            (Some(&a), Some(&b)) => Some(Column { runs: self.arena.runs.get(a as usize..b as usize)? }),
            _ => None,
        }
    }

    /// The columns, level 1 first.
    pub fn columns(&self) -> impl ExactSizeIterator<Item = Column<'a>> + 'a {
        let runs = &self.arena.runs;
        self.run_at.windows(2).map(move |w| match *w {
            [a, b] => Column { runs: runs.get(a as usize..b as usize).unwrap_or_default() },
            _ => Column::default(),
        })
    }

    /// The score-sorted length groups (top-K join input), by increasing
    /// `len`.
    pub fn segments(&self) -> impl Iterator<Item = Segment<'a>> + 'a {
        let seg_rows = self.seg_rows;
        self.segs.iter().scan(0u32, move |start, head| {
            let rows = seg_rows.get(*start as usize..head.end as usize).unwrap_or_default();
            *start = head.end;
            Some(Segment { len: head.len, rows, max_score: head.max_score })
        })
    }

    /// The segment heads — each length group's depth and largest local
    /// score — by increasing `len`, without their rows.
    pub fn segment_heads(&self) -> &'a [SegmentHead] {
        self.segs
    }

    /// The value histogram of `level` for cardinality estimation (§V-D);
    /// `None` for columns short enough to probe directly.
    pub fn histogram(&self, level: u16) -> Option<&'a Histogram> {
        let c = self.col_id(level)?;
        let i = self.arena.hist_cols.binary_search(&c).ok()?;
        self.arena.hists.get(i)
    }

    /// The row directory of the level-`level` column, for the columns
    /// that carry one (see [`RowDirectory::build`]).
    pub fn row_directory(&self, level: u16) -> Option<RowDirectory<'a>> {
        let c = self.col_id(level)?;
        let i = self.arena.dir_cols.binary_search(&c).ok()?;
        let entries = self.arena.dir_entries.get(span(&self.arena.dir_at, i))?;
        Some(RowDirectory::new(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_reach_u32_max() {
        assert_eq!(offset(0), 0);
        assert_eq!(offset(u32::MAX as usize - 3), u32::MAX - 3);
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "term arena exceeds u32 offsets")]
    fn an_offset_past_u32_max_is_refused_not_wrapped() {
        offset(u32::MAX as usize + 1);
    }
}
