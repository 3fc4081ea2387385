//! Column-oriented JDewey inverted lists (paper §III-A, Fig. 2(a)).
//!
//! A keyword's inverted list is the sequence of JDewey sequences of the
//! nodes directly containing it, sorted in JDewey order (= document order).
//! Stored by column: column `l` holds, for every posting whose node is at
//! depth `>= l`, the JDewey number of its level-`l` ancestor.
//!
//! Because the list is sorted, every column is itself sorted
//! (Property 3.1), and equal numbers are **contiguous** — so a column is
//! represented as a vector of [`Run`]s `(value, start_row, len)`, which is
//! exactly the paper's second compression scheme made into the in-memory
//! layout.  Rows are global posting indices, so a run in column `l-1`
//! either *contains* or is *disjoint from* any run in column `l`
//! (§III-E: the partial-overlap cases of Fig. 4(b) cannot occur), the
//! property range checking relies on.

pub use xtk_xml::gallop::gallop_partition_point;
use xtk_xml::gallop::window_gallop_partition_point;
use xtk_xml::jdewey::JDeweyAssignment;
use xtk_xml::tree::{NodeId, XmlTree};

/// A maximal group of consecutive rows sharing one JDewey number at one
/// level — the in-memory form of the paper's `(v, r, c)` triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// The shared JDewey number (identifies the ancestor node at this
    /// column's level).
    pub value: u32,
    /// First global row (posting index) of the run.
    pub start: u32,
    /// Number of rows in the run (>= 1).
    pub len: u32,
}

impl Run {
    /// One-past-the-end row of the run.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Row range covered by the run.
    #[inline]
    pub fn rows(&self) -> std::ops::Range<u32> {
        self.start..self.end()
    }
}

/// One column of a keyword's inverted list: the level-`l` JDewey numbers of
/// all postings at depth `>= l`, as sorted runs — a view over runs stored
/// elsewhere (the index's run arena, a decoded block, a test's array).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Column<'a> {
    /// Runs in increasing `value` (and `start`) order.
    pub runs: &'a [Run],
}

impl<'a> Column<'a> {
    /// Total number of rows present at this level.
    pub fn row_count(&self) -> u64 {
        self.runs.iter().map(|r| r.len as u64).sum()
    }

    /// Number of distinct JDewey numbers in the column.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.runs.len()
    }

    /// Binary-searches the run with the given JDewey number.
    pub fn find(&self, value: u32) -> Option<&'a Run> {
        let i = self.runs.binary_search_by_key(&value, |r| r.value).ok()?;
        self.runs.get(i)
    }

    /// Index of the first run with `value >= v` (for merge restarts and
    /// index joins).
    pub fn lower_bound(&self, v: u32) -> usize {
        self.runs.partition_point(|r| r.value < v)
    }

    /// The JDewey number of a given global row at this level, if the row is
    /// present (its posting is at least this deep).
    pub fn value_of_row(&self, row: u32) -> Option<u32> {
        let i = self.runs.partition_point(|r| r.end() <= row);
        match self.runs.get(i) {
            Some(r) if r.start <= row => Some(r.value),
            _ => None,
        }
    }

    /// [`find`](Self::find) with a galloping restart: searches from run
    /// index `hint` (validated, so a stale hint is safe) and returns the
    /// lower-bound index alongside the hit, for the caller to carry as
    /// the next hint.  With ascending probe values the whole probe
    /// sequence costs O(m log(n/m)) instead of O(m log n).
    pub fn find_hinted(&self, value: u32, hint: usize) -> (usize, Option<&'a Run>) {
        let runs = self.runs;
        let from = if hint == 0 || runs.get(hint.wrapping_sub(1)).is_some_and(|r| r.value < value) {
            hint.min(runs.len())
        } else {
            0 // stale hint (probe went backwards): restart
        };
        let lb = gallop_lower_bound(runs, from, value);
        let hit = runs.get(lb).filter(|r| r.value == value);
        (lb, hit)
    }

    /// The runs fully contained in the row range `[start, end)`.
    ///
    /// Containment-or-disjointness (§III-E) means a binary search on
    /// `start` suffices; the returned slice is every run of this column
    /// whose rows lie under the ancestor run `[start, end)` of the
    /// *previous* (higher) column.
    pub fn runs_in_rows(&self, start: u32, end: u32) -> &'a [Run] {
        let lo = self.runs.partition_point(|r| r.start < start);
        let hi = self.runs.partition_point(|r| r.start < end);
        let inside = self.runs.get(lo..hi).unwrap_or(&[]);
        debug_assert!(inside.iter().all(|r| r.end() <= end));
        inside
    }
}

/// Minimum runs for a column to carry a [`RowDirectory`].  A shorter
/// column is searched in six compares or fewer, and the floor keeps the
/// directories to the terms frequent enough for the top-K join to spend
/// its time in them — the long tail of the vocabulary allocates nothing.
pub const ROW_DIRECTORY_MIN_RUNS: usize = 64;

/// Rows per [`RowDirectory`] entry.
pub const ROW_DIRECTORY_STRIDE: u32 = 8;

/// Positional access into one column (paper Fig. 7): the top-K join meets
/// rows in score order and needs each row's JDewey number without
/// searching the document-ordered runs for it.
///
/// Entry `j` is the index of the first run ending after row
/// `j · ROW_DIRECTORY_STRIDE`.  A run covers at least one row, so fewer
/// than `ROW_DIRECTORY_STRIDE` runs end between that row and any row of
/// the same stride: a lookup is one entry load and a scan of that window.
/// A view over entries stored elsewhere (the index's directory arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDirectory<'a> {
    first_run: &'a [u32],
}

impl<'a> RowDirectory<'a> {
    /// Appends the directory entries of `col` to `out` and returns `true`;
    /// below [`ROW_DIRECTORY_MIN_RUNS`] appends nothing and returns `false`.
    pub fn build(col: Column<'_>, out: &mut Vec<u32>) -> bool {
        if col.runs.len() < ROW_DIRECTORY_MIN_RUNS {
            return false;
        }
        let stride = ROW_DIRECTORY_STRIDE as usize;
        let rows = col.runs.last().map_or(0, |r| r.end() as usize);
        let (from, entries) = (out.len(), rows.div_ceil(stride));
        out.reserve(entries);
        for (i, run) in col.runs.iter().enumerate() {
            // Ends ascend: the strides that start before this run ends and
            // were not entered yet start after every earlier run's end.
            while (out.len() - from) * stride < run.end() as usize {
                out.push(i as u32);
            }
        }
        true
    }

    /// The directory whose entries are `first_run` (as [`build`](Self::build)
    /// appended them).
    #[inline]
    pub fn new(first_run: &'a [u32]) -> Self {
        Self { first_run }
    }

    /// The entries, one per [`ROW_DIRECTORY_STRIDE`] rows.
    #[inline]
    pub fn entries(&self) -> &'a [u32] {
        self.first_run
    }

    /// [`Column::value_of_row`] of the column this directory was built
    /// from, without the search.
    #[inline]
    pub fn value_of_row(&self, col: Column<'_>, row: u32) -> Option<u32> {
        let first = *self.first_run.get((row / ROW_DIRECTORY_STRIDE) as usize)?;
        let rest = col.runs.get(first as usize..)?;
        // Ends ascend: the window's runs ending at or before `row` are its
        // first ones, so they are counted — a fixed-length loop with no
        // branch on where the row's run sits.
        let window = rest.get(..ROW_DIRECTORY_STRIDE as usize - 1).unwrap_or(rest);
        let run = rest.get(window.iter().filter(|r| r.end() <= row).count())?;
        (run.start <= row).then_some(run.value)
    }
}

/// Index of the first run with `value >= v`, galloping from `from` (all
/// runs before `from` must have `value < v`).
pub fn gallop_lower_bound(runs: &[Run], from: usize, value: u32) -> usize {
    gallop_partition_point(runs, from, |r| r.value < value)
}

/// [`gallop_lower_bound`] behind one opening window — the lookup of every
/// join step: straight-line code when the answer is a run or two ahead,
/// O(log d) when it is not.
#[inline]
pub fn window_gallop_lower_bound(runs: &[Run], from: usize, value: u32) -> usize {
    window_gallop_partition_point(runs, from, |r| r.value < value)
}

/// What a storage lends a [`RunCursor`]: a column as a sequence of sorted
/// *stretches* (`&[Run]` in memory, a cached block on disk), handed over
/// in column order, each at most once.
pub trait Feed {
    /// A stretch of the column's runs; a cursor keeps the one it is in.
    type Stretch: AsRef<[Run]>;
    /// What a failed column access surfaces as.
    type Error;

    /// The next stretch, given that every run handed over so far is
    /// smaller than `v`.  A feed may pass over stretches that cannot hold
    /// `v`; `None` means none at its position can — a later lookup, for a
    /// larger value, may land again.
    fn land(&mut self, v: u32) -> Result<Option<Self::Stretch>, Self::Error>;

    /// Runs after a join step's last lookup: a feed whose access path is
    /// the full scan reads the column to its end.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Stretches already in hand — a memory column's one slice.
impl<I: Iterator> Feed for I
where
    I::Item: AsRef<[Run]>,
{
    type Stretch = I::Item;
    type Error = std::convert::Infallible;

    fn land(&mut self, _: u32) -> Result<Option<I::Item>, Self::Error> {
        Ok(self.next())
    }
}

/// A forward-only position in one sorted column: lookups must ascend —
/// one at a time ([`seek`](Self::seek)) or a join step's whole probe list
/// ([`seek_all`](Self::seek_all)).  A lookup past the landed stretch's
/// last value lands the next stretch that can hold it, entered by binary
/// search.  The cursor owns its stretch, so a block evicted from the cache
/// under it stays readable.
pub struct RunCursor<F: Feed> {
    feed: F,
    stretch: Option<F::Stretch>,
    at: usize,
}

impl<F: Feed> RunCursor<F> {
    /// A cursor at the start of `feed`'s column.
    pub fn new(feed: F) -> Self {
        RunCursor { feed, stretch: None, at: 0 }
    }

    fn landed(&self) -> &[Run] {
        self.stretch.as_ref().map_or(&[], |s| s.as_ref())
    }

    /// The runs that can answer a lookup of `v`: the landed stretch from
    /// the cursor's position on, its last run of value `v` or more — after
    /// landing the next such stretch if this one ends below `v`.  Empty
    /// when the feed lands none: `v` is past the column's end, or in a gap
    /// between blocks.
    fn rest(&mut self, v: u32) -> Result<&[Run], F::Error> {
        while self.landed().last().is_none_or(|last| last.value < v) {
            let Some(next) = self.feed.land(v)? else {
                return Ok(&[]);
            };
            self.at = next.as_ref().partition_point(|r| r.value < v);
            self.stretch = Some(next);
        }
        Ok(self.landed().get(self.at..).unwrap_or(&[]))
    }

    /// The column's run of value `v`, if it has one.
    pub fn seek(&mut self, v: u32) -> Result<Option<Run>, F::Error> {
        let rest = self.rest(v)?;
        let ahead = window_gallop_lower_bound(rest, 0, v);
        let found = rest.get(ahead).copied().filter(|run| run.value == v);
        self.at += ahead;
        Ok(found)
    }

    /// One join step: looks up the ascending `probes`' values, stretch by
    /// stretch, and replaces `hits` with the column's run for every value
    /// it holds and `from` with that probe's position in `probes`.
    pub fn seek_all(
        &mut self,
        probes: &[Run],
        hits: &mut Vec<Run>,
        from: &mut Vec<u32>,
    ) -> Result<(), F::Error> {
        hits.clear();
        hits.resize(probes.len(), Run::default());
        from.clear();
        from.resize(probes.len(), 0);
        let (mut done, mut kept) = (0usize, 0usize);
        while let Some(first) = probes.get(done) {
            let runs = self.rest(first.value)?;
            // No run of that value or more, here and now: a miss.
            let Some(last) = runs.last() else {
                done += 1;
                continue;
            };
            // The stretch answers every probe up to its last value.  Hits
            // are fewer than probes: the slots from `kept` on hold them.
            let todo = probes.get(done..).unwrap_or(&[]);
            let now = todo.get(..todo.partition_point(|p| p.value <= last.value)).unwrap_or(todo);
            let slots = kept..kept + now.len();
            let (Some(hits), Some(from)) = (hits.get_mut(slots.clone()), from.get_mut(slots))
            else {
                break;
            };
            let (found, reached) = seek_stretch(runs, now, done as u32, hits, from);
            self.at += reached;
            (done, kept) = (done + now.len().max(1), kept + found);
        }
        hits.truncate(kept);
        from.truncate(kept);
        Ok(())
    }

    /// Ends the join step (see [`Feed::finish`]).
    pub fn finish(mut self) -> Result<(), F::Error> {
        self.feed.finish()
    }
}

/// A position in a stretch and the number of hits written from it.
struct Lane {
    at: usize,
    kept: usize,
}

/// The lookups of one stretch: `probes` ascend, none above the last of
/// `runs`.  Writes the hits, compacted, to the front of `hits` and `from`
/// (the first probe is the step's `nth`); returns their number and how far
/// into `runs` the lookups reached.
///
/// A lookup is a dependent chain — position, loads, compares, position —
/// so the probes are halved and the halves looked up in lockstep from two
/// positions: two chains in flight instead of one.  Each half compacts
/// into its own slots without a branch on the outcome (every probe writes
/// its lane's next free slot, a hit moves on to the one after); the upper
/// half's hits are then moved down behind the lower half's.
fn seek_stretch(
    runs: &[Run],
    probes: &[Run],
    nth: u32,
    hits: &mut [Run],
    from: &mut [u32],
) -> (usize, usize) {
    let (lo, hi) = probes.split_at(probes.len() >> 1);
    let (lo_hits, hi_hits) = hits.split_at_mut(lo.len().min(hits.len()));
    let (lo_from, hi_from) = from.split_at_mut(lo.len().min(from.len()));
    let look = |lane: &mut Lane, probe: &Run, nth: u32, hits: &mut [Run], from: &mut [u32]| {
        lane.at = window_gallop_lower_bound(runs, lane.at, probe.value);
        let found = runs.get(lane.at);
        if let (Some(hit), Some(from)) = (hits.get_mut(lane.kept), from.get_mut(lane.kept)) {
            (*hit, *from) = (found.copied().unwrap_or_default(), nth);
        }
        lane.kept += usize::from(found.is_some_and(|run| run.value == probe.value));
    };
    let upper = hi.first().map_or(0, |p| runs.partition_point(|r| r.value < p.value));
    let (mut below, mut above) = (Lane { at: 0, kept: 0 }, Lane { at: upper, kept: 0 });
    let mid = nth + lo.len() as u32;
    // An odd probe count leaves the upper half one probe longer.
    for (i, b) in hi.iter().enumerate() {
        if let Some(a) = lo.get(i) {
            look(&mut below, a, nth + i as u32, lo_hits, lo_from);
        }
        look(&mut above, b, mid + i as u32, hi_hits, hi_from);
    }
    let moved = lo.len()..lo.len() + above.kept;
    if moved.end <= hits.len().min(from.len()) {
        hits.copy_within(moved.clone(), below.kept);
        from.copy_within(moved, below.kept);
    }
    (below.kept + above.kept, above.at)
}

/// The buffers [`build_columns`] fills: one run buffer per level and the
/// ancestor chain, kept from term to term so a build allocates them once.
#[derive(Debug, Default)]
pub struct ColumnScratch {
    levels: Vec<Vec<Run>>,
    chain: Vec<u32>,
}

/// Builds the per-level columns for one keyword from its posting list
/// (nodes in document order) and the tree's JDewey assignment, into
/// `scratch`.
///
/// Returns the columns' runs (index 0 = level 1) — their number is the
/// maximum posting depth `l_m` for the keyword.
pub fn build_columns<'s>(
    tree: &XmlTree,
    jd: &JDeweyAssignment,
    postings: &[NodeId],
    scratch: &'s mut ColumnScratch,
) -> &'s [Vec<Run>] {
    let max_len = postings.iter().map(|&n| tree.depth(n)).max().unwrap_or(0) as usize;
    let ColumnScratch { levels, chain } = scratch;
    if levels.len() < max_len {
        levels.resize_with(max_len, Vec::new);
    }
    let columns = levels.get_mut(..max_len).unwrap_or_default();
    columns.iter_mut().for_each(Vec::clear);
    // One pass per posting: walk the ancestor chain once, filling every
    // level.  Equal values are contiguous, so runs can be extended in place.
    for (row, &node) in postings.iter().enumerate() {
        let row = row as u32;
        chain.clear();
        let mut cur = Some(node);
        while let Some(c) = cur {
            chain.push(jd.number(c));
            cur = tree.parent(c);
        }
        for (col, &value) in columns.iter_mut().zip(chain.iter().rev()) {
            match col.last_mut() {
                Some(last) if last.value == value && last.end() == row => last.len += 1,
                _ => {
                    debug_assert!(
                        col.last().is_none_or(|r| r.value < value),
                        "postings must be sorted in JDewey order"
                    );
                    col.push(Run { value, start: row, len: 1 });
                }
            }
        }
    }
    columns
}

/// The number of runs [`build_columns`] makes over `postings` (nodes in
/// document order), without building them: a posting extends the runs of
/// the levels it shares with the posting before it — those down to their
/// lowest common ancestor — and opens one at every level below.
pub fn run_count(tree: &XmlTree, postings: &[NodeId]) -> usize {
    let levels: usize = postings.iter().map(|&n| usize::from(tree.depth(n))).sum();
    let shared: usize = postings
        .windows(2)
        .map(|w| match *w {
            [a, b] => usize::from(tree.depth(tree.lca(a, b))),
            _ => 0,
        })
        .sum();
    levels - shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    /// Tree: root -> a(x2 postings via children), b; postings at various
    /// depths including a non-leaf.
    fn setup() -> (xtk_xml::XmlTree, JDeweyAssignment) {
        let t = parse("<r><a><p/><q/></a><b><s><u/></s></b></r>").unwrap();
        let jd = JDeweyAssignment::assign(&t, 0);
        (t, jd)
    }

    /// The columns of `postings`, owned.
    fn columns(t: &xtk_xml::XmlTree, jd: &JDeweyAssignment, postings: &[NodeId]) -> Vec<Vec<Run>> {
        build_columns(t, jd, postings, &mut ColumnScratch::default()).to_vec()
    }

    fn col(runs: &[Run]) -> Column<'_> {
        Column { runs }
    }

    #[test]
    fn columns_follow_ancestor_chains() {
        let (t, jd) = setup();
        // Postings: p, q (depth 3) and u (depth 4), all in doc order.
        let ids: Vec<NodeId> = t.ids().collect();
        let (p, q, u) = (ids[2], ids[3], ids[6]);
        let cols = columns(&t, &jd, &[p, q, u]);
        assert_eq!(cols.len(), 4);
        // Level 1: all three rows under root (number 1) -> one run of len 3.
        assert_eq!(cols[0], vec![Run { value: 1, start: 0, len: 3 }]);
        // Level 2: rows 0-1 under a (1), row 2 under b (2).
        assert_eq!(
            cols[1],
            vec![Run { value: 1, start: 0, len: 2 }, Run { value: 2, start: 2, len: 1 }]
        );
        // Level 3: p=1, q=2, s=3 (u's parent).
        assert_eq!(col(&cols[2]).row_count(), 3);
        assert_eq!(col(&cols[2]).distinct(), 3);
        // Level 4: only u.
        assert_eq!(col(&cols[3]).row_count(), 1);
    }

    #[test]
    fn run_count_matches_the_built_columns() {
        let (t, jd) = setup();
        let ids: Vec<NodeId> = t.ids().collect();
        // Every posting list the tree admits: each subset, in doc order.
        for mask in 0u32..1 << ids.len() {
            let postings: Vec<NodeId> =
                ids.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &n)| n).collect();
            let built: usize = columns(&t, &jd, &postings).iter().map(Vec::len).sum();
            assert_eq!(run_count(&t, &postings), built, "postings {postings:?}");
        }
    }

    #[test]
    fn shallow_postings_skip_deep_columns() {
        let (t, jd) = setup();
        let ids: Vec<NodeId> = t.ids().collect();
        let (a, u) = (ids[1], ids[6]); // depth 2 and depth 4
        let cols = columns(&t, &jd, &[a, u]);
        assert_eq!(cols.len(), 4);
        assert_eq!(col(&cols[1]).row_count(), 2); // both present at level 2
        assert_eq!(col(&cols[2]).row_count(), 1); // only u's chain reaches level 3
        assert_eq!(cols[2][0].start, 1, "row coordinates stay global");
    }

    #[test]
    fn find_and_lower_bound() {
        let col = Column {
            runs: &[
                Run { value: 2, start: 0, len: 3 },
                Run { value: 5, start: 3, len: 1 },
                Run { value: 9, start: 4, len: 2 },
            ],
        };
        assert_eq!(col.find(5).unwrap().start, 3);
        assert!(col.find(4).is_none());
        assert_eq!(col.lower_bound(1), 0);
        assert_eq!(col.lower_bound(3), 1);
        assert_eq!(col.lower_bound(9), 2);
        assert_eq!(col.lower_bound(10), 3);
    }

    #[test]
    fn runs_in_rows_containment() {
        let child = Column {
            runs: &[
                Run { value: 1, start: 0, len: 2 },
                Run { value: 4, start: 2, len: 1 },
                Run { value: 7, start: 3, len: 3 },
            ],
        };
        // Ancestor run covering rows [0,3): contains the first two runs.
        let inside = child.runs_in_rows(0, 3);
        assert_eq!(inside.len(), 2);
        assert_eq!(inside[1].value, 4);
        // Ancestor run covering rows [3,6): only the last run.
        let inside = child.runs_in_rows(3, 6);
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].value, 7);
        assert!(child.runs_in_rows(6, 9).is_empty());
    }

    #[test]
    fn gallop_matches_partition_point_everywhere() {
        let runs: Vec<Run> = (0..200u32)
            .map(|i| Run { value: i * 3, start: i * 2, len: 2 })
            .collect();
        for from in [0usize, 1, 7, 100, 199, 200, 500] {
            for v in 0..=620u32 {
                // Precondition: every index < from has value < v.
                if !runs[..from.min(runs.len())].iter().all(|r| r.value < v) {
                    continue;
                }
                let want = runs.partition_point(|r| r.value < v);
                assert_eq!(gallop_lower_bound(&runs, from, v), want, "from={from} v={v}");
            }
        }
        assert_eq!(gallop_lower_bound(&[], 0, 5), 0);
    }

    #[test]
    fn find_hinted_agrees_with_find() {
        let col = Column {
            runs: &[
                Run { value: 2, start: 0, len: 3 },
                Run { value: 5, start: 3, len: 1 },
                Run { value: 9, start: 4, len: 2 },
                Run { value: 14, start: 6, len: 1 },
            ],
        };
        let mut hint = 0;
        for v in 0..20u32 {
            let (lb, hit) = col.find_hinted(v, hint);
            assert_eq!(hit, col.find(v), "v={v}");
            hint = lb;
        }
        // Stale (backwards) hints restart safely.
        assert_eq!(col.find_hinted(2, 3).1, col.find(2));
        assert_eq!(col.find_hinted(0, 4).1, None);
    }

    #[test]
    fn empty_postings_give_no_columns() {
        let (t, jd) = setup();
        assert!(columns(&t, &jd, &[]).is_empty());
    }

    #[test]
    fn duplicate_values_merge_into_one_run() {
        let (t, jd) = setup();
        let ids: Vec<NodeId> = t.ids().collect();
        // Two postings in the same subtree: level-1 and level-2 runs merge.
        let cols = columns(&t, &jd, &[ids[2], ids[3]]);
        assert_eq!(col(&cols[0]).distinct(), 1);
        assert_eq!(col(&cols[1]).distinct(), 1);
        assert_eq!(col(&cols[2]).distinct(), 2);
    }
}
