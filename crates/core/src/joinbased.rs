//! The join-based algorithm (paper §III, Algorithm 1) — the one driver.
//!
//! Keyword query evaluation is reduced to relational joins over the JDewey
//! columns: for each level `l` from `min_i l_m^i` down to the root, the `k`
//! per-keyword columns are equality-joined on the JDewey number.  A number
//! matched in all `k` columns identifies an LCA at level `l`; because
//! processing is bottom-up, the semantic pruning is a *local* range check
//! (§III-E) against the rows erased by lower matches — no document-order
//! scan, no stack.
//!
//! [`algorithm1`] is that loop, once, for every storage: `l_0`, the
//! left-deep order (smallest column first), the intersection kernels, the
//! evaluate → commit match phase, the statistics and every trace event.
//! A [`ColumnSource`] decides only what a storage backend legitimately
//! decides: how large a column is and how it is read — it lends its
//! stretches to a forward [`RunCursor`] and materialises nothing.  Every
//! join step runs the one window-then-gallop lookup, which adapts per
//! probe where the paper's §III-C picks merge or index join per column.
//! [`MemSource`] lends the in-memory column; a `diskexec::DiskSource`
//! cursor fetches the block a lookup lands in (§III-B).  A column's runs
//! are the compressed `(v, r, c)` triples, so duplicate numbers cost one
//! probe (§III-D).
//!
//! A join step keeps the run it found for every surviving value, so the
//! match phase is handed `(value, k runs)` and searches nothing.
//!
//! # Everything ascends within a level
//!
//! The joined values ascend; so do each keyword's runs (by value *and* by
//! row), the eraser's intervals and the level's nodes by JDewey number.
//! Every lookup is therefore a forward position — in the column
//! ([`RunCursor`]), in the eraser ([`eraser::Cursor`]), in the level's
//! node list ([`LevelCursor`]) — and every update a batch: a level's
//! matched values are *evaluated* (range checks and scoring) against the
//! erasure state as of entering the level, then *committed* — results
//! emitted, each keyword's rows erased by one sorted union.  Range checks
//! and scoring read only rows inside the value's own runs, and same-level
//! runs of distinct values are disjoint, so no evaluation could observe
//! an earlier commit anyway.
//!
//! A query runs on the calling thread (DESIGN §6 has the measurement that
//! decided it).

use crate::eraser::{self, Eraser};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::result::ScoredResult;
use std::convert::Infallible;
use xtk_index::columnar::{Feed, Run, RunCursor};
use xtk_index::{TermData, XmlIndex};
use xtk_obs::{EventKind, Obs};
use xtk_xml::jdewey::LevelCursor;

/// Options for [`join_search`].  The default is unscored ELCA
/// (operational variant).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinOptions {
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// ELCA exclusion variant (ignored for SLCA).
    pub variant: ElcaVariant,
    /// Compute ranking scores for each result (costs one pass over the
    /// matched runs' rows; leave off for pure semantic evaluation).
    pub with_scores: bool,
}

/// Execution counters, for tests, ablations and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Levels (columns) processed.
    pub levels: u32,
    /// Join steps performed across all levels (`k − 1` a level, fewer
    /// when an intermediate runs empty).
    pub steps: u32,
    /// Values matched in all `k` columns (LCA candidates hit).
    pub matches: u64,
    /// Results emitted.
    pub results: u64,
}

/// What a storage backend decides for [`algorithm1`] — and nothing else.
///
/// Keywords are addressed by their position `kw` in the query; after
/// [`enter`](Self::enter) every method answers for that level's columns.
/// A [`feed`](Self::feed) lends the column to one forward [`RunCursor`]:
/// sorted by value, each run bit-identical to the column's run of that
/// value, and a lookup of a value the column holds finds its run.
pub trait ColumnSource {
    /// What a failed column access surfaces as.
    type Error;
    /// How the source lends a column (see [`Feed`]).
    type Feed: Feed<Error = Self::Error>;

    /// Runs once before the level loop (disk: the `prescan` strawman).
    fn begin(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Positions the source on `level` (`1..=l_0`, descending).
    fn enter(&mut self, level: u16) -> Result<(), Self::Error>;
    /// The column's size from the directory, without decoding: the
    /// left-deep order key and the trace's `column_runs`.
    fn size(&self, kw: usize) -> usize;
    /// The column from its start: for a join `step`'s ascending lookups,
    /// or else (the level's driver) to be read whole.
    fn feed(&self, kw: usize, step: bool) -> Result<Self::Feed, Self::Error>;
    /// Runs once after the last level, before `QueryEnd` (disk: the
    /// `store_io` event and the `store.*` metrics).
    fn end(&self, _obs: &Obs) {}
}

/// The in-memory [`ColumnSource`]: borrows `TermData::columns`.
pub struct MemSource<'a> {
    terms: Vec<&'a TermData>,
    level: u16,
}

impl<'a> MemSource<'a> {
    /// A source over `query`'s inverted lists.
    pub fn new(ix: &'a XmlIndex, query: &Query) -> Self {
        Self { terms: query.terms.iter().map(|&t| ix.term(t)).collect(), level: 0 }
    }

    fn column(&self, kw: usize) -> &'a [Run] {
        let level0 = usize::from(self.level).wrapping_sub(1);
        let col = self.terms.get(kw).and_then(|t| t.columns.get(level0));
        col.map_or(&[], |c| c.runs.as_slice())
    }
}

impl<'a> ColumnSource for MemSource<'a> {
    type Error = Infallible;
    type Feed = std::option::IntoIter<&'a [Run]>;

    fn enter(&mut self, level: u16) -> Result<(), Infallible> {
        self.level = level;
        Ok(())
    }

    fn size(&self, kw: usize) -> usize {
        self.column(kw).len()
    }

    fn feed(&self, kw: usize, _: bool) -> Result<Self::Feed, Infallible> {
        Ok(Some(self.column(kw)).into_iter())
    }
}

/// Runs Algorithm 1 and returns results in emission order: level
/// descending (bottom-up), JDewey number ascending within a level.
pub fn join_search(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
) -> (Vec<ScoredResult>, JoinStats) {
    join_search_obs(ix, query, opts, &Obs::default())
}

/// [`join_search`] with observability: counters flush into
/// `obs.metrics` under the `join.*` names and, when the tracer is live,
/// the per-level join structure is recorded as events.
pub fn join_search_obs(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
    obs: &Obs,
) -> (Vec<ScoredResult>, JoinStats) {
    match algorithm1(ix, query, opts, &mut MemSource::new(ix, query), obs) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Algorithm 1 over any [`ColumnSource`].  `ix` supplies the document
/// tree, each list's depth `l_m` and the scoring data; the columns come
/// from `src`.  An empty query, or one with an empty inverted list,
/// answers empty without touching the source.
pub fn algorithm1<S: ColumnSource>(
    ix: &XmlIndex,
    query: &Query,
    opts: &JoinOptions,
    src: &mut S,
    obs: &Obs,
) -> Result<(Vec<ScoredResult>, JoinStats), S::Error> {
    let mut stats = JoinStats::default();
    let mut results = Vec::new();
    let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let k = terms.len();
    if k == 0 || terms.iter().any(|t| t.is_empty()) {
        return Ok((results, stats));
    }
    src.begin()?;
    // No result can sit below the shallowest list's deepest level.
    let l0 = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
    obs.event(EventKind::QueryStart { keywords: k as u32, start_level: l0 as u32 });
    let mut erasers: Vec<Eraser> = (0..k).map(|_| Eraser::new()).collect();
    let mut joined = Joined::default();
    let mut scratch = LevelEval::default();
    for l in (1..=l0).rev() {
        stats.levels += 1;
        let before = stats;
        src.enter(l)?;
        join_level(&*src, query, l, &mut stats, obs, &mut joined)?;
        stats.matches += joined.rows().len() as u64;
        let view = LevelView { ix, terms: &terms, level: l, opts };
        stats.results += match_level(&view, &mut erasers, &joined, &mut scratch, &mut results);
        obs.event(EventKind::LevelEnd {
            level: l as u32,
            matches: stats.matches - before.matches,
            results: stats.results - before.results,
        });
    }
    src.end(obs);
    obs.event(EventKind::QueryEnd { results: stats.results });
    obs.metrics.add("join.levels", stats.levels as u64);
    obs.metrics.add("join.steps", stats.steps as u64);
    obs.metrics.add("join.matches", stats.matches);
    obs.metrics.add("join.results", stats.results);
    Ok((results, stats))
}

/// What a join step keeps of its surviving probes, ascending: the run its
/// column holds for each value, and the probe's position in the step's
/// input — the previous step's output, the driver column for the first —
/// so a survivor's runs chain back to the driver's.
#[derive(Default)]
struct Hits {
    runs: Vec<Run>,
    from: Vec<u32>,
}

/// One level's join, reused across levels: each step's hits in left-deep
/// order, then the survivors' runs gathered row-major.
#[derive(Default)]
struct Joined {
    /// The keywords in join order.
    order: Vec<usize>,
    /// The driver column, when it had to be strung together.
    driver: Vec<Run>,
    steps: Vec<Hits>,
    /// The survivors' positions in the step being gathered.
    chain: Vec<u32>,
    /// Per joined value, ascending: its `k` runs in query order.
    runs: Vec<Run>,
}

impl Joined {
    /// `(value, k runs)` per joined value — one row each.
    fn rows(&self) -> std::slice::ChunksExact<'_, Run> {
        self.runs.chunks_exact(self.order.len().max(1))
    }
}

/// One level's left-deep intersection on JDewey number, into `joined`: the
/// joined values in increasing order, each with its run per keyword.
fn join_level<S: ColumnSource>(
    src: &S,
    query: &Query,
    level: u16,
    stats: &mut JoinStats,
    obs: &Obs,
    joined: &mut Joined,
) -> Result<(), S::Error> {
    let term_of = |kw: usize| query.terms.get(kw).map_or(u32::MAX, |t| t.0);
    let Joined { order, driver, steps, chain, runs } = joined;
    // Left-deep from the smallest column; the stable sort over a freshly
    // seeded `0..k` breaks ties in query order at every level.
    order.clear();
    order.extend(0..query.terms.len());
    order.sort_by_key(|&kw| src.size(kw));
    runs.clear();
    let Some((&first, rest)) = order.split_first() else {
        return Ok(());
    };
    steps.resize_with(rest.len(), Hits::default);
    for hits in steps.iter_mut() {
        hits.runs.clear();
        hits.from.clear();
    }
    // A driver in one stretch — every memory column — is read where it
    // lies; only a column in several blocks is strung together.
    let mut feed = src.feed(first, false)?;
    let lead = feed.land(0)?;
    let lead: &[Run] = lead.as_ref().map_or(&[], |stretch| stretch.as_ref());
    driver.clear();
    while let Some(stretch) = feed.land(0)? {
        if driver.is_empty() {
            driver.extend_from_slice(lead);
        }
        driver.extend_from_slice(stretch.as_ref());
    }
    let driver: &[Run] = if driver.is_empty() { lead } else { driver };
    obs.event(EventKind::LevelStart {
        level: level as u32,
        driver_term: term_of(first),
        driver_runs: driver.len() as u64,
    });
    let mut probes: &[Run] = driver;
    for (&kw, output) in rest.iter().zip(steps.iter_mut()) {
        if probes.is_empty() {
            break;
        }
        stats.steps += 1;
        let mut cursor = RunCursor::new(src.feed(kw, true)?);
        cursor.seek_all(probes, &mut output.runs, &mut output.from)?;
        cursor.finish()?;
        obs.event(EventKind::JoinStep {
            level: level as u32,
            term: term_of(kw),
            column_runs: src.size(kw) as u64,
            input_values: probes.len() as u64,
            output_values: output.runs.len() as u64,
        });
        probes = &output.runs;
    }
    // The last step's hits are the joined values (none, if a step ran
    // dry).  Step by step back to the driver, every survivor's position
    // yields its run and moves to the probe that found it.
    let survivors = steps.last().map_or(driver.len(), |hits| hits.runs.len());
    runs.resize(survivors * order.len(), Run::default());
    chain.clear();
    chain.extend(0..survivors as u32);
    for (hits, &kw) in steps.iter().zip(rest).rev() {
        for (row, at) in runs.chunks_exact_mut(order.len()).zip(chain.iter_mut()) {
            if let (Some(slot), Some(run)) = (row.get_mut(kw), hits.runs.get(*at as usize)) {
                *slot = *run;
            }
            *at = hits.from.get(*at as usize).copied().unwrap_or(0);
        }
    }
    for (row, &at) in runs.chunks_exact_mut(order.len()).zip(chain.iter()) {
        if let (Some(slot), Some(run)) = (row.get_mut(first), driver.get(at as usize)) {
            *slot = *run;
        }
    }
    Ok(())
}

/// What evaluating a level's matched values reads besides the erasers,
/// fixed for the level.
struct LevelView<'a> {
    ix: &'a XmlIndex,
    terms: &'a [&'a TermData],
    level: u16,
    opts: &'a JoinOptions,
}

/// One keyword's state while a level's matched values are evaluated.
/// Values ascend, so the keyword's runs ascend by row: the eraser lookup
/// is a forward position, and the rows to erase come out sorted.
#[derive(Default)]
struct KeywordEval {
    erased: eraser::Cursor,
    /// Row ranges the level's matches erase, ascending and disjoint.
    erase: Vec<(u32, u32)>,
}

/// The evaluation of a level's matched values, committed by
/// [`match_level`]; one is reused across levels.
#[derive(Default)]
struct LevelEval {
    keywords: Vec<KeywordEval>,
    /// `(value, score)` of each surviving value, ascending.
    emits: Vec<(u32, f32)>,
}

/// The semantic pruning + emission of one level's `joined` values;
/// returns the number of results emitted.  Every value is *evaluated*
/// against the level-entry erasure state into `scratch`, which is then
/// *committed*: the survivors emitted (ascending, so the node lookup is a
/// forward cursor over the level) and the rows the matches erase unioned
/// into each keyword's eraser in one sorted pass.  Same-level runs of
/// distinct values are disjoint, so no value's checks or score can see
/// another's erasure, and erasing is a set union: this equals evaluating
/// and committing value by value.
fn match_level(
    view: &LevelView<'_>,
    erasers: &mut [Eraser],
    joined: &Joined,
    scratch: &mut LevelEval,
    results: &mut Vec<ScoredResult>,
) -> u64 {
    view.evaluate(erasers, joined.rows(), scratch);
    let (level, before) = (view.level, results.len());
    // (The type is spelled out for xtk-lint's call resolution.)
    let mut nodes: LevelCursor<'_> = view.ix.jd().level_cursor(level);
    // Every matched value identifies a node in a consistent index.
    results.extend(scratch.emits.iter().filter_map(|&(value, score)| {
        nodes.node_at(value).map(|node| ScoredResult { node, level, score })
    }));
    for (kw, eraser) in scratch.keywords.iter().zip(erasers) {
        eraser.erase_sorted(&kw.erase);
    }
    (results.len() - before) as u64
}

impl LevelView<'_> {
    /// The read-only half of a level: for each of the ascending joined
    /// values — a row of its run per keyword, as the join found them — the
    /// ELCA/SLCA range checks and (when emitting with scores) the ranking
    /// score, against the erasure state as of entering the level.
    fn evaluate<'r>(
        &self,
        erasers: &[Eraser],
        rows: impl Iterator<Item = &'r [Run]>,
        out: &mut LevelEval,
    ) {
        let LevelEval { keywords, emits } = out;
        keywords.resize_with(self.terms.len(), KeywordEval::default);
        for kw in keywords.iter_mut() {
            kw.erased = eraser::Cursor::default();
            kw.erase.clear();
        }
        emits.clear();
        for runs in rows {
            let Some(v) = runs.first().map(|r| r.value) else { continue };
            let mut checks = runs.iter().zip(erasers).zip(keywords.iter_mut());
            let (emit, erase) = match self.opts.semantics {
                // SLCA range check (§III-F): any erased row under this
                // node means a descendant match exists.
                Semantics::Slca => {
                    (checks.all(|((r, e), kw)| !kw.erased.any_in(e, r.start, r.end())), true)
                }
                // ELCA range check (§III-E): survive iff at least one
                // non-erased occurrence per keyword.
                Semantics::Elca => {
                    let alive =
                        checks.all(|((r, e), kw)| kw.erased.count_in(e, r.start, r.end()) < r.len);
                    (alive, alive || self.opts.variant == ElcaVariant::Formal)
                }
            };
            if emit {
                let scored = self.opts.with_scores;
                emits.push((v, if scored { self.score_of(erasers, runs, keywords) } else { 0.0 }));
            }
            if erase {
                for (r, kw) in runs.iter().zip(keywords.iter_mut()) {
                    kw.erase.push((r.start, r.end()));
                }
            }
        }
    }

    /// Ranking score of an emitted result: per keyword (in query order),
    /// the maximum damped score over the *non-erased* rows of its run —
    /// exactly the occurrences that belong to this result rather than to
    /// a lower one.  Walks each run's gaps between erased intervals.
    fn score_of(&self, erasers: &[Eraser], runs: &[Run], keywords: &mut [KeywordEval]) -> f32 {
        let (tree, damping) = (self.ix.tree(), self.ix.damping());
        let mut total = 0.0f32;
        for (((term, eraser), run), kw) in self.terms.iter().zip(erasers).zip(runs).zip(keywords) {
            let mut best = 0.0f32;
            for live in kw.erased.live_in(eraser, run.start, run.end()) {
                let rows = live.start as usize..live.end as usize;
                // A source bounds its covers by the posting list.
                let nodes = term.postings.get(rows.clone()).unwrap_or(&[]);
                let locals = term.scores.get(rows).unwrap_or(&[]);
                for (&node, &local) in nodes.iter().zip(locals) {
                    let damped = damping.damp(local, tree.depth(node), self.level);
                    if damped > best {
                        best = damped;
                    }
                }
            }
            total += best;
        }
        total
    }
}

/// Intersection of an ascending value list with sorted runs — one join
/// step's kernel, for tests and ablations.
pub fn intersect(values: &[u32], runs: &[Run]) -> Vec<u32> {
    let probes: Vec<Run> = values.iter().map(|&value| Run { value, ..Run::default() }).collect();
    let mut cursor = RunCursor::new(Some(runs).into_iter());
    let mut hits = Hits::default();
    match cursor.seek_all(&probes, &mut hits.runs, &mut hits.from) {
        Ok(()) => hits.runs.iter().map(|run| run.value).collect(),
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{naive_elca, naive_slca};
    use xtk_xml::parse;
    use xtk_xml::tree::NodeId;

    fn run(
        xml: &str,
        words: &[&str],
        semantics: Semantics,
        variant: ElcaVariant,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        let opts = JoinOptions { semantics, variant, ..Default::default() };
        let (mut rs, _) = join_search(&ix, &q, &opts);
        rs.sort_by_key(|r| r.node);
        let got: Vec<NodeId> = rs.iter().map(|r| r.node).collect();
        let lists: Vec<&[NodeId]> =
            q.terms.iter().map(|&t| ix.term(t).postings.as_slice()).collect();
        let want = match semantics {
            Semantics::Elca => naive_elca(ix.tree(), &lists, variant),
            Semantics::Slca => naive_slca(ix.tree(), &lists),
        };
        (got, want)
    }

    #[test]
    fn elca_matches_naive_on_fig1_style_doc() {
        let xml = "<root><paper><sec>xml</sec><body><t1>xml</t1><t2>data</t2></body></paper>\
                   <paper><t>data</t></paper></root>";
        for v in [ElcaVariant::Operational, ElcaVariant::Formal] {
            let (got, want) = run(xml, &["xml", "data"], Semantics::Elca, v);
            assert_eq!(got, want, "{v:?}");
        }
    }

    #[test]
    fn slca_matches_naive() {
        let xml = "<r><a><x>p q</x></a><b><y>p</y><z>q</z></b>p q</r>";
        let (got, want) = run(xml, &["p", "q"], Semantics::Slca, ElcaVariant::Operational);
        assert_eq!(got, want);
    }

    #[test]
    fn variants_disagree_exactly_where_expected() {
        // The counterexample from the semantics tests: raw-full non-ELCA
        // descendant w.
        let xml = "<u><w><aa>a b</aa><x1>a</x1></w><c>b</c></u>";
        let (got_op, want_op) =
            run(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Operational);
        assert_eq!(got_op, want_op);
        assert_eq!(got_op.len(), 2, "operational keeps the root");
        let (got_fo, want_fo) = run(xml, &["a", "b"], Semantics::Elca, ElcaVariant::Formal);
        assert_eq!(got_fo, want_fo);
        assert_eq!(got_fo.len(), 1, "formal prunes the root");
    }

    #[test]
    fn three_keywords() {
        let xml = "<r><p>a b c</p><q><s>a</s><t>b</t><u>c</u></q><v>a c</v></r>";
        for sem in [Semantics::Elca, Semantics::Slca] {
            let (got, want) = run(xml, &["a", "b", "c"], sem, ElcaVariant::Operational);
            assert_eq!(got, want, "{sem:?}");
        }
    }

    #[test]
    fn missing_keyword_gives_empty() {
        let ix = XmlIndex::build(parse("<r><a>x y</a></r>").unwrap());
        let q = Query::from_words(&ix, &["x", "y"]).unwrap();
        // Both present: fine. Now a query over one term only:
        let q1 = Query::from_words(&ix, &["x"]).unwrap();
        let (rs, _) = join_search(&ix, &q1, &JoinOptions::default());
        assert_eq!(rs.len(), 1);
        let (rs, _) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn emission_order_is_bottom_up() {
        let xml = "<r>a b<x>a b</x></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, &["a", "b"]).unwrap();
        let (rs, _) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(rs.len(), 2);
        assert!(rs[0].level > rs[1].level, "deeper results first");
    }

    #[test]
    fn steps_count_every_join_step() {
        // Per level `k − 1` steps, minus those skipped once an intermediate
        // runs empty: at level 4 the only p (under `a`) meets no q (under
        // `b`), so the three-keyword query's step into s is skipped.
        let xml = "<r><c><y><a>p s</a><b>q</b></y></c><c><y>p q</y>s</c></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        for (words, want) in [(&["p", "q"][..], 4), (&["p", "q", "s"][..], 7)] {
            let q = Query::from_words(&ix, words).unwrap();
            let obs = Obs::new();
            let (_, stats) = join_search_obs(&ix, &q, &JoinOptions::default(), &obs);
            assert_eq!(stats.levels, 4);
            assert_eq!(stats.steps, want, "{words:?}");
            assert_eq!(obs.metrics.value("join.steps"), u64::from(want));
        }
    }

    #[test]
    fn scores_are_positive_and_damped() {
        // Result at the root (level 1) with occurrences at level 2:
        // score < 2.0 because of damping, > 0.
        let ix = XmlIndex::build(parse("<r><a>p</a><b>q</b></r>").unwrap());
        let q = Query::from_words(&ix, &["p", "q"]).unwrap();
        let opts = JoinOptions { with_scores: true, ..Default::default() };
        let (rs, _) = join_search(&ix, &q, &opts);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].score > 0.0);
        let lambda = ix.damping().lambda();
        assert!(rs[0].score <= 2.0 * lambda + 1e-6, "both occurrences damped once");
    }

    #[test]
    fn joined_rows_hold_each_keywords_own_run_through_steps_that_drop_values() {
        // Level 2, three keywords: `q` misses the first `a`, `s` the third,
        // so both steps drop a value and the survivors' chains skip slots.
        let xml = "<r><a>p s</a><a>p q s</a><a>p q</a><a>p q s</a></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let mut joined = Joined::default();
        // The join order is by size, ties in query order: q, s, p.
        for words in [["p", "q", "s"], ["s", "p", "q"], ["q", "s", "p"]] {
            let query = Query::from_words(&ix, &words).unwrap();
            let mut src = MemSource::new(&ix, &query);
            src.enter(2).unwrap();
            let mut stats = JoinStats::default();
            join_level(&src, &query, 2, &mut stats, &Obs::default(), &mut joined).unwrap();
            assert_eq!(joined.rows().len(), 2, "the second and fourth `a` hold all three");
            for row in joined.rows() {
                for (run, &term) in row.iter().zip(&query.terms) {
                    let column = &ix.term(term).columns[1];
                    assert_eq!(column.find(row[0].value), Some(run), "{words:?}");
                }
            }
        }
    }

    /// The row-by-row score the gap walk replaced: every row of every
    /// run asks the eraser.
    fn score_rows(
        ix: &XmlIndex,
        terms: &[&TermData],
        erasers: &[Eraser],
        runs: &[Run],
        level: u16,
    ) -> f32 {
        let mut total = 0.0f32;
        for ((term, eraser), run) in terms.iter().zip(erasers).zip(runs) {
            let mut best = 0.0f32;
            for row in run.rows().filter(|&row| !eraser.is_erased(row)) {
                let depth = ix.tree().depth(term.postings[row as usize]);
                let damped = ix.damping().damp(term.scores[row as usize], depth, level);
                if damped > best {
                    best = damped;
                }
            }
            assert!(best > 0.0, "emitted results have a live occurrence per keyword");
            total += best;
        }
        total
    }

    /// Algorithm 1 value by value: from-scratch lookups and range checks,
    /// [`score_rows`], and each match erased before the next is evaluated.
    fn reference_search(ix: &XmlIndex, query: &Query, opts: &JoinOptions) -> Vec<ScoredResult> {
        let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
        let l0 = terms.iter().map(|t| t.max_len()).min().unwrap();
        let mut erasers = vec![Eraser::new(); terms.len()];
        let mut results = Vec::new();
        for level in (1..=l0).rev() {
            let cols: Vec<_> = terms.iter().map(|t| &t.columns[usize::from(level) - 1]).collect();
            for value in cols[0].runs.iter().map(|r| r.value) {
                let found: Option<Vec<Run>> = cols.iter().map(|c| c.find(value).copied()).collect();
                let Some(runs) = found else { continue };
                let mut checks = runs.iter().zip(&erasers);
                let (emit, erase) = match opts.semantics {
                    Semantics::Slca => (checks.all(|(r, e)| !e.any_in(r.start, r.end())), true),
                    Semantics::Elca => {
                        let alive = checks.all(|(r, e)| e.count_in(r.start, r.end()) < r.len);
                        (alive, alive || opts.variant == ElcaVariant::Formal)
                    }
                };
                if emit {
                    let score = match opts.with_scores {
                        true => score_rows(ix, &terms, &erasers, &runs, level),
                        false => 0.0,
                    };
                    let node = ix.node_at(level, value).unwrap();
                    results.push(ScoredResult { node, level, score });
                }
                if erase {
                    for (r, e) in runs.iter().zip(&mut erasers) {
                        e.erase(r.start, r.end());
                    }
                }
            }
        }
        results
    }

    fn assert_matches_reference(ix: &XmlIndex, query: &Query) {
        let bits = |rs: &[ScoredResult]| -> Vec<(u32, u16, u32)> {
            rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
        };
        for semantics in [Semantics::Elca, Semantics::Slca] {
            for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
                let opts = JoinOptions { semantics, variant, with_scores: true };
                let want = bits(&reference_search(ix, query, &opts));
                let (got, stats) = join_search(ix, query, &opts);
                assert_eq!(bits(&got), want, "{semantics:?} {variant:?}");
                assert_eq!(stats.results, want.len() as u64);
            }
        }
    }

    #[test]
    fn gap_walk_and_batched_commit_equal_the_value_by_value_reference() {
        use xtk_xml::testutil::prop_check;
        use xtk_xml::XmlTree;
        prop_check(0x6A_9001, 60, |g| {
            // Uniform parents give wide levels, recent ones the chains that
            // erase on every level.
            let n = g.gen_range(2..1500usize);
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
            for v in 1..n {
                let oldest = if g.gen_bool(0.5) { 0 } else { v.saturating_sub(4) };
                children[g.gen_range(oldest..v)].push(v);
            }
            // Arena ids are document order: add in pre-order.
            let mut tree = XmlTree::new();
            let mut nodes = vec![tree.add_root("r")];
            let mut stack: Vec<(usize, NodeId)> =
                children[0].iter().rev().map(|&c| (c, nodes[0])).collect();
            while let Some((v, parent)) = stack.pop() {
                let id = tree.add_child(parent, "n");
                nodes.push(id);
                stack.extend(children[v].iter().rev().map(|&c| (c, id)));
            }
            let k = g.gen_range(2..4usize);
            for &node in &nodes {
                for kw in 0..k {
                    if g.gen_bool(0.4) {
                        tree.append_text(node, &format!("kw{kw}"));
                    }
                }
            }
            for kw in 0..k {
                tree.append_text(nodes[g.gen_range(0..nodes.len())], &format!("kw{kw}"));
            }
            let ix = XmlIndex::build(tree);
            let words: Vec<String> = (0..k).map(|kw| format!("kw{kw}")).collect();
            let query = Query::from_words(&ix, &words).unwrap();
            assert_matches_reference(&ix, &query);
        });
    }

    #[test]
    fn run_erased_except_its_last_row_scores_that_row() {
        // Both keywords' runs under `a` are [x, x, last]: the two `x`
        // match below and erase their rows, the last row is all `a` has.
        let xml = "<r><a><x>p q</x><x>p q</x><y>p</y><z>q</z></a><b>p</b></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let query = Query::from_words(&ix, &["p", "q"]).unwrap();
        assert_matches_reference(&ix, &query);
        let opts = JoinOptions { with_scores: true, ..Default::default() };
        let (rs, _) = join_search(&ix, &query, &opts);
        let a = rs.iter().find(|r| r.level == 2).expect("`a` is an ELCA through y and z");
        let local = |word: &str| {
            let term = ix.term_by_str(word).unwrap();
            term.scores[2] * ix.damping().lambda()
        };
        assert_eq!(a.score.to_bits(), (local("p") + local("q")).to_bits());
    }

    #[test]
    fn stats_count_levels_and_matches() {
        let ix = XmlIndex::build(parse("<r><a>p q</a></r>").unwrap());
        let q = Query::from_words(&ix, &["p", "q"]).unwrap();
        let (_, stats) = join_search(&ix, &q, &JoinOptions::default());
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.matches, 2); // node a and the root both match raw
        assert_eq!(stats.results, 1); // only a survives the pruning
    }
}
