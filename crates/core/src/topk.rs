//! The join-based top-K algorithm (paper §IV-C).
//!
//! Columns are still processed bottom-up (so the semantic pruning stays a
//! local range check), but within each column postings are retrieved in
//! descending **damped** score order and joined with the top-K
//! [star join](crate::starjoin).  Because a posting's damped score at
//! column `l` is `g·λ^(len-l)`, the inverted list is consumed through the
//! per-length **segments** of Fig. 7 — each segment has one global score
//! order; the cursors merge the segment heads online.
//!
//! A completed join result can be emitted without blocking as soon as its
//! score reaches the global threshold: the maximum of (a) the star-join
//! bound over this column's unseen/partial results and (b) for every
//! not-yet-processed column `l' < l`, the bound `Σ_i s_m^i(l')` built from
//! the segment heads.  The paper's skip rule applies: a column with no
//! sequence ending exactly at `l'` is dominated by the column above it and
//! is not computed.
//!
//! Semantics matches the complete join-based algorithm with
//! [`ElcaVariant::Operational`](crate::query::ElcaVariant::Operational)
//! erasure (which is what Algorithm 1 performs), so `topk_search(q, K)`
//! returns exactly the `K` best results of
//! [`join_search`](crate::joinbased::join_search) with scores.
//!
//! # Batched retrieval
//!
//! Each keyword's segment cursors are drained a batch at a time, in place,
//! into a per-keyword queue of scored `(row, damped, value)` candidates;
//! a refill reads only its own keyword's erasure state and positions.
//! Everything behind the batches — the star-join bucket, the erasure
//! commits, and the TA-style threshold check — is strictly sequential
//! too: the threshold compares a *global* bound against the pending heap,
//! and the interleaving of consumed rows must follow the score order the
//! proof of §IV-B assumes.  Queue heads that a later candidate completion
//! erased are dropped at consume time, so the consumed row sequence is
//! the one an unbatched retrieval would produce.  A query runs on the
//! calling thread (DESIGN §6 has the measurement that decided it).

use crate::eraser::Eraser;
use crate::query::{Query, Semantics};
use crate::result::ScoredResult;
use crate::starjoin::{Bucket, F32Ord};
use std::collections::{BinaryHeap, VecDeque};
use xtk_index::score::Damping;
use xtk_index::scored::Segment;
use xtk_index::{Run, TermData, XmlIndex};
use xtk_obs::{EventKind, Obs};

/// Rows drained per keyword per refill.
const BATCH: usize = 64;

/// One drained candidate: `(row, damped score, joined value)`.
type Candidate = (u32, f32, u32);

/// Which unseen-result bound gates the non-blocking output (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdKind {
    /// The paper's star-join bound with partial-result groups:
    /// `max_P ( ms(G_P) + Σ_{j∉P} s^j )`.  Default.
    #[default]
    Tight,
    /// The classic top-K join bound `max_i ( s^i + Σ_{j≠i} s_m^j )` the
    /// paper compares against — kept for the ablation benchmark.
    Classic,
}

/// Options for [`topk_search`].
#[derive(Debug, Clone, Copy)]
pub struct TopKOptions {
    /// Number of results to return.
    pub k: usize,
    /// ELCA or SLCA (the ELCA exclusion is the operational variant, as in
    /// Algorithm 1).
    pub semantics: Semantics,
    /// Unseen-result bound (tight star-join vs classic top-K join).
    pub threshold: ThresholdKind,
}

impl Default for TopKOptions {
    fn default() -> Self {
        Self { k: 10, semantics: Semantics::Elca, threshold: ThresholdKind::Tight }
    }
}

/// Execution counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Rows pulled through the segment cursors.
    pub rows_retrieved: u64,
    /// Columns processed before termination.
    pub columns: u32,
    /// Join results completed (candidates).
    pub candidates: u64,
    /// Results emitted before the final flush (non-blocking output).
    pub emitted_early: u64,
}

/// Advances `*i` past the rows of `seg` erased as of the call and returns
/// the row it stops at (`None` at the end of the segment).
fn skip_erased(seg: &Segment, i: &mut usize, eraser: &Eraser) -> Option<u32> {
    while seg.rows.get(*i).is_some_and(|&r| eraser.is_erased(r)) {
        *i += 1;
    }
    seg.rows.get(*i).copied()
}

/// Per-keyword score-ordered cursors over the length segments.
struct Cursors<'a> {
    term: &'a TermData,
    /// Per segment: next index into `segment.rows` for the **current
    /// column** (reset when the column changes).
    pos: Vec<usize>,
    /// Per segment: first non-erased index from the start — the segment
    /// "head" used for future-column bounds (never reset; only advances as
    /// erasures grow).
    head: Vec<usize>,
    /// Scratch of [`Cursors::drain`]: the current non-erased head
    /// `(segment, row, damped)` of every segment still live at the column.
    seg_heads: Vec<(usize, u32, f32)>,
}

impl<'a> Cursors<'a> {
    fn new(term: &'a TermData) -> Self {
        let n = term.segments.len();
        Self { term, pos: vec![0; n], head: vec![0; n], seg_heads: Vec::with_capacity(n) }
    }

    fn reset_for_column(&mut self) {
        self.pos.iter_mut().for_each(|p| *p = 0);
    }

    /// `s_m(level)`: the best damped score any non-erased posting can
    /// contribute at a *future* column `level`, from the segment heads.
    fn future_max(&mut self, level: u16, eraser: &Eraser, damping: &Damping) -> f32 {
        let mut best = 0.0f32;
        for (si, seg) in self.term.segments.iter().enumerate() {
            if seg.len < level {
                continue;
            }
            let Some(row) = self.head.get_mut(si).and_then(|h| skip_erased(seg, h, eraser))
            else {
                continue;
            };
            let g = self.term.scores.get(row as usize).copied().unwrap_or(0.0);
            best = best.max(g * damping.factor(seg.len - level));
        }
        best
    }

    /// `true` iff some segment of this keyword ends exactly at `level` —
    /// the paper's condition for when a column's bound must be computed.
    fn has_len(&self, level: u16) -> bool {
        self.term.segments.iter().any(|s| s.len == level)
    }

    /// Advances segment `si` past rows erased as of the call and returns
    /// its head `(si, row, damped score at level)`, or `None` when the
    /// segment is used up.
    fn seg_head(
        &mut self,
        si: usize,
        level: u16,
        eraser: &Eraser,
        damping: &Damping,
    ) -> Option<(usize, u32, f32)> {
        let seg = self.term.segments.get(si)?;
        let row = skip_erased(seg, self.pos.get_mut(si)?, eraser)?;
        let g = self.term.scores.get(row as usize).copied().unwrap_or(0.0);
        Some((si, row, g * damping.factor(seg.len - level)))
    }

    /// Refills `out` with up to `cap` rows at `level` in descending
    /// damped-score order (ties broken by segment index then segment
    /// position), continuing from `self.pos` and skipping rows erased as
    /// of the call.
    ///
    /// Each segment's head is derived once and re-derived only after the
    /// segment is advanced: the eraser cannot change during the call, so
    /// every other head stays what it was.
    fn drain(
        &mut self,
        level: u16,
        eraser: &Eraser,
        damping: &Damping,
        cap: usize,
        out: &mut VecDeque<Candidate>,
    ) {
        out.clear();
        let Some(col) = (level as usize).checked_sub(1).and_then(|i| self.term.columns.get(i))
        else {
            return;
        };
        let mut heads = std::mem::take(&mut self.seg_heads);
        heads.clear();
        let term = self.term;
        for (si, seg) in term.segments.iter().enumerate() {
            if seg.len >= level {
                heads.extend(self.seg_head(si, level, eraser, damping));
            }
        }
        // Rows arrive in score order, so each one's number is read through
        // the column's row directory; a column too short to carry one is
        // searched.
        let dir = term.row_directory(level);
        while out.len() < cap {
            // First strict maximum: the lowest segment index wins a tie.
            let mut best: Option<(usize, (usize, u32, f32))> = None;
            for (hi, &h) in heads.iter().enumerate() {
                if best.is_none_or(|(_, b)| h.2 > b.2) {
                    best = Some((hi, h));
                }
            }
            let Some((hi, (si, row, damped))) = best else { break };
            if let Some(p) = self.pos.get_mut(si) {
                *p += 1;
            }
            match (self.seg_head(si, level, eraser, damping), heads.get_mut(hi)) {
                (Some(next), Some(slot)) => *slot = next,
                _ => {
                    heads.remove(hi);
                }
            }
            // Retrieved rows reach this level by construction (seg.len >= level).
            let found = match dir {
                Some(dir) => dir.value_of_row(col, row),
                None => col.value_of_row(row),
            };
            let Some(value) = found else { break };
            out.push_back((row, damped, value));
        }
        self.seg_heads = heads;
    }
}

/// Runs the join-based top-K algorithm, returning at most `opts.k` results
/// in emission order (non-increasing score up to threshold ties).
///
/// Implemented on top of [`TopKStream`]; use the stream directly for
/// pagination ("next 10") without recomputation.
pub fn topk_search(
    ix: &XmlIndex,
    query: &Query,
    opts: &TopKOptions,
) -> (Vec<ScoredResult>, TopKStats) {
    topk_search_obs(ix, query, opts, &Obs::default())
}

/// [`topk_search`] with observability: counters flush into `obs.metrics`
/// under the `topk.*` names; with a live tracer the column progression,
/// threshold drops and emissions are recorded as events.
pub fn topk_search_obs(
    ix: &XmlIndex,
    query: &Query,
    opts: &TopKOptions,
    obs: &Obs,
) -> (Vec<ScoredResult>, TopKStats) {
    let mut stream = TopKStream::new_obs(ix, query, opts, obs.clone());
    let results: Vec<ScoredResult> = stream.by_ref().take(opts.k).collect();
    obs.event(EventKind::QueryEnd { results: results.len() as u64 });
    let stats = stream.stats();
    publish_topk_stats(&stats, obs);
    stream.bucket.stats().publish(&obs.metrics);
    (results, stats)
}

/// Flushes a [`TopKStats`] into the unified registry under `topk.*`.
pub(crate) fn publish_topk_stats(stats: &TopKStats, obs: &Obs) {
    obs.metrics.add("topk.rows_retrieved", stats.rows_retrieved);
    obs.metrics.add("topk.columns", stats.columns as u64);
    obs.metrics.add("topk.candidates", stats.candidates);
    obs.metrics.add("topk.emitted_early", stats.emitted_early);
}

/// One keyword's queue of drained candidates for the current column.
#[derive(Default)]
struct Batch {
    /// Candidates in retrieval order.
    queue: VecDeque<Candidate>,
    /// The current column has no further rows to drain.
    exhausted: bool,
    /// The head may be erased or missing.  Set for the keyword a row was
    /// just popped from, and for every keyword after an erasure or a
    /// column change — the only events that can change a validated head —
    /// so `ensure_heads` re-checks nothing else.
    dirty: bool,
}

impl Batch {
    /// `s^i`: the damped score of the next row, 0 without one.
    fn head_score(&self) -> f32 {
        self.queue.front().map_or(0.0, |&(_, d, _)| d)
    }
}

/// Resumable top-K execution: an [`Iterator`] yielding results in valid
/// rank order (each yielded result's score is at least every later one's).
///
/// The stream holds the full algorithm state — segment cursors, erasure,
/// the star-join bucket and the pending heap — so asking for more results
/// after the first `K` continues where the scan stopped instead of
/// re-running the query.
pub struct TopKStream<'a> {
    ix: &'a XmlIndex,
    terms: Vec<&'a TermData>,
    semantics: Semantics,
    threshold_kind: ThresholdKind,
    /// Retrieval-policy hint (paper §IV-B: round-robin until this many
    /// candidates exist, then highest-next-score).
    k_hint: usize,
    erasers: Vec<Eraser>,
    cursors: Vec<Cursors<'a>>,
    batches: Vec<Batch>,
    /// Per keyword: the damped score of the batch head (`s^i`), 0 when the
    /// keyword has none.  Kept by `ensure_heads`; current once it returns.
    s: Vec<f32>,
    pending: BinaryHeap<(F32Ord, u16, u32)>,
    stats: TopKStats,
    /// Current column (tree level); 0 once every column is exhausted.
    level: u16,
    bucket: Bucket,
    rr: usize,
    s_max_col: Vec<f32>,
    /// The future-column bound `max_{l'<l} Σ_i s_m^i(l')`: a function of
    /// the level and the erasers only, so it is recomputed after an
    /// erasure or a column change (`None`) and reused for every row
    /// between.
    future: Option<f32>,
    /// Per keyword: run-index hint for the candidate-run fetch in
    /// `step()`, carried between completions so the galloping `find`
    /// restarts near the previous hit (reset on column change).
    find_hints: Vec<usize>,
    /// Scratch: keywords `ensure_heads` must refill.
    needy: Vec<usize>,
    /// Scratch: the matched runs of the candidate `step()` just completed.
    runs: Vec<Run>,
    emitted: usize,
    obs: Obs,
    /// Bits of the last threshold recorded to the tracer, so
    /// `topk_threshold` events fire only on change.
    last_threshold_bits: Option<u32>,
}

impl<'a> TopKStream<'a> {
    /// Prepares a stream; no work happens until the first `next()`.
    pub fn new(ix: &'a XmlIndex, query: &Query, opts: &TopKOptions) -> Self {
        Self::new_obs(ix, query, opts, Obs::default())
    }

    /// [`TopKStream::new`] with an observability bundle the stream records
    /// into as it advances.
    pub fn new_obs(ix: &'a XmlIndex, query: &Query, opts: &TopKOptions, obs: Obs) -> Self {
        let terms: Vec<&TermData> = query.terms.iter().map(|&t| ix.term(t)).collect();
        let k = terms.len();
        let empty = terms.iter().any(|t| t.is_empty());
        let l0 = if empty {
            0
        } else {
            terms.iter().map(|t| t.max_len()).min().unwrap_or(0)
        };
        let cursors: Vec<Cursors> = terms.iter().map(|t| Cursors::new(t)).collect();
        let mut stream = Self {
            ix,
            semantics: opts.semantics,
            threshold_kind: opts.threshold,
            k_hint: opts.k.max(1),
            erasers: (0..k).map(|_| Eraser::new()).collect(),
            cursors,
            batches: (0..k).map(|_| Batch::default()).collect(),
            s: vec![0.0; k],
            pending: BinaryHeap::new(),
            stats: TopKStats::default(),
            level: l0,
            bucket: Bucket::new(k.max(1)),
            rr: 0,
            s_max_col: vec![0.0; k],
            future: None,
            find_hints: vec![0; k],
            needy: Vec::with_capacity(k),
            runs: Vec::with_capacity(k),
            emitted: 0,
            obs,
            last_threshold_bits: None,
            terms,
        };
        if stream.level > 0 {
            stream
                .obs
                .event(EventKind::QueryStart { keywords: k as u32, start_level: l0 as u32 });
            stream.enter_column();
        }
        stream
    }

    /// Execution counters so far.
    pub fn stats(&self) -> TopKStats {
        self.stats
    }

    /// Number of results yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    fn enter_column(&mut self) {
        self.stats.columns += 1;
        let runs: u64 = self
            .terms
            .iter()
            .filter_map(|t| (self.level as usize).checked_sub(1).and_then(|i| t.columns.get(i)))
            .map(|c| c.runs.len() as u64)
            .sum();
        self.obs.event(EventKind::TopKColumn { level: self.level as u32, runs });
        // The bucket restarts per column; fold the outgoing counters into
        // the registry so `starjoin.*` totals span the whole query.
        self.bucket.stats().publish(&self.obs.metrics);
        self.bucket.clear();
        self.rr = 0;
        self.future = None;
        for (c, b) in self.cursors.iter_mut().zip(self.batches.iter_mut()) {
            c.reset_for_column();
            b.queue.clear();
            b.exhausted = false;
            b.dirty = true;
        }
        self.find_hints.iter_mut().for_each(|h| *h = 0);
        self.ensure_heads();
        self.s_max_col.copy_from_slice(&self.s);
    }

    /// Restores the invariant that every batch head is a non-erased row or
    /// the keyword's column is exhausted, and that `s` holds the heads'
    /// scores.  Only dirty keywords are looked at.  A refill — the
    /// expensive part: segment merging, erasure skipping and
    /// `value_of_row` scoring — is filtered against the current erasure
    /// state, so its head needs no second look.
    fn ensure_heads(&mut self) {
        self.needy.clear();
        let heads = self.batches.iter_mut().zip(&self.erasers).zip(self.s.iter_mut());
        for (i, ((b, e), s)) in heads.enumerate() {
            if !std::mem::take(&mut b.dirty) {
                continue;
            }
            while b.queue.front().is_some_and(|&(row, _, _)| e.is_erased(row)) {
                b.queue.pop_front();
            }
            *s = b.head_score();
            if b.queue.is_empty() && !b.exhausted {
                self.needy.push(i);
            }
        }
        if self.needy.is_empty() {
            return;
        }
        let damping = self.ix.damping();
        let l = self.level;
        for &i in &self.needy {
            if let (Some(c), Some(e), Some(b), Some(s)) = (
                self.cursors.get_mut(i),
                self.erasers.get(i),
                self.batches.get_mut(i),
                self.s.get_mut(i),
            ) {
                c.drain(l, e, damping, BATCH, &mut b.queue);
                b.exhausted = b.queue.is_empty();
                *s = b.head_score();
            }
        }
    }

    /// One retrieval step in the current column.  Returns `false` when the
    /// column is exhausted.
    fn step(&mut self) -> bool {
        self.ensure_heads();
        if self.batches.iter().all(|b| b.queue.is_empty()) {
            return false;
        }
        let k = self.terms.len();
        let l = self.level;
        let s = &self.s;
        // Pick the keyword: round-robin until k_hint candidates exist,
        // then highest next score (paper §IV-B step 1).
        let pick = if self.stats.candidates < self.k_hint as u64 {
            let mut p = self.rr % k;
            let mut spins = 0;
            // Damped scores are non-negative; `<= 0.0` means "no live head"
            // without an exact float comparison.
            while s.get(p).copied().unwrap_or(0.0) <= 0.0 && spins < k {
                p = (p + 1) % k;
                spins += 1;
            }
            self.rr = p + 1;
            p
        } else {
            let mut p = 0;
            let mut best = s.first().copied().unwrap_or(0.0);
            for (i, &si) in s.iter().enumerate().skip(1) {
                if si > best {
                    p = i;
                    best = si;
                }
            }
            p
        };
        let Some(b) = self.batches.get_mut(pick) else { return false };
        let Some((_row, damped, value)) = b.queue.pop_front() else {
            // Unreachable when `pick` has a live head; treat as exhausted.
            return false;
        };
        b.dirty = true;
        self.stats.rows_retrieved += 1;
        if let Some(done) = self.bucket.insert(value, pick, damped) {
            self.stats.candidates += 1;
            // Fetch the matched runs for the range check + erasure; a
            // completed value is present in every column by construction.
            // Each keyword carries a galloping hint between completions —
            // completed values cluster, and a stale hint just restarts.
            self.runs.clear();
            for (t, hint) in self.terms.iter().zip(self.find_hints.iter_mut()) {
                let Some(col) = (l as usize).checked_sub(1).and_then(|i| t.columns.get(i))
                else {
                    continue;
                };
                let (lb, hit) = col.find_hinted(value, *hint);
                *hint = lb;
                self.runs.extend(hit.copied());
            }
            if self.runs.len() != k {
                return true; // inconsistent index; skip this candidate
            }
            let accept = match self.semantics {
                // Completion already implies one non-erased occurrence
                // per keyword — the operational ELCA condition.
                Semantics::Elca => true,
                // SLCA additionally requires no erased row underneath.
                Semantics::Slca => self
                    .runs
                    .iter()
                    .zip(&self.erasers)
                    .all(|(r, e)| !e.any_in(r.start, r.end())),
            };
            for (r, e) in self.runs.iter().zip(self.erasers.iter_mut()) {
                e.erase(r.start, r.end());
            }
            // Erased rows may sit at any batch head and under any segment
            // head the future bound was built from.
            self.batches.iter_mut().for_each(|b| b.dirty = true);
            self.future = None;
            if accept {
                self.pending.push((F32Ord(done.score), l, value));
            }
        }
        true
    }

    /// The current global threshold over everything not yet generated:
    /// this column's star-join bound plus the future-column bounds with
    /// the paper's skip rule.
    fn threshold(&mut self) -> f32 {
        self.ensure_heads();
        let here = match self.threshold_kind {
            ThresholdKind::Tight => self.bucket.threshold(&self.s),
            ThresholdKind::Classic => Bucket::classic_threshold(&self.s, &self.s_max_col),
        };
        here.max(self.future_bound())
    }

    /// `max_{l'<l} Σ_i s_m^i(l')` over the not-yet-processed columns
    /// (`-∞` when there are none), memoised in `future`.
    fn future_bound(&mut self) -> f32 {
        if let Some(bound) = self.future {
            return bound;
        }
        let damping = self.ix.damping();
        let l = self.level;
        let mut best = f32::NEG_INFINITY;
        for lf in (1..l).rev() {
            // Skip rule: a column below l-1 where no sequence ends is
            // dominated by the column above it.
            if lf < l - 1 && !self.cursors.iter().any(|c| c.has_len(lf)) {
                continue;
            }
            let mut bound = 0.0f32;
            for (c, e) in self.cursors.iter_mut().zip(&self.erasers) {
                bound += c.future_max(lf, e, damping);
            }
            best = best.max(bound);
        }
        self.future = Some(best);
        best
    }

    fn emit(&mut self, score: f32, level: u16, value: u32) -> Option<ScoredResult> {
        // `None` only on an inconsistent index (every accepted value names
        // a node); the stream skips such entries instead of panicking.
        let node = self.ix.node_at(level, value)?;
        self.emitted += 1;
        Some(ScoredResult { node, level, score })
    }
}

impl Iterator for TopKStream<'_> {
    type Item = ScoredResult;

    fn next(&mut self) -> Option<ScoredResult> {
        loop {
            if self.level == 0 {
                // Every column processed: flush by score.
                let (F32Ord(score), level, value) = self.pending.pop()?;
                match self.emit(score, level, value) {
                    Some(r) => {
                        self.obs.event(EventKind::TopKEmit {
                            value,
                            level: level as u32,
                            score_bits: score.to_bits(),
                            early: false,
                        });
                        return Some(r);
                    }
                    None => continue,
                }
            }
            if !self.step() {
                // Column exhausted: move up.
                self.level -= 1;
                if self.level > 0 {
                    self.enter_column();
                }
                continue;
            }
            // Computing the threshold only pays off when a candidate is
            // actually waiting to be emitted.
            if self.pending.is_empty() {
                continue;
            }
            let threshold = self.threshold();
            if self.obs.tracer.enabled() && self.last_threshold_bits != Some(threshold.to_bits())
            {
                self.last_threshold_bits = Some(threshold.to_bits());
                self.obs.event(EventKind::TopKThreshold {
                    level: self.level as u32,
                    threshold_bits: threshold.to_bits(),
                });
            }
            if let Some(&(F32Ord(score), level, value)) = self.pending.peek() {
                if score >= threshold {
                    self.pending.pop();
                    if let Some(r) = self.emit(score, level, value) {
                        self.stats.emitted_early += 1;
                        self.obs.event(EventKind::TopKEmit {
                            value,
                            level: level as u32,
                            score_bits: score.to_bits(),
                            early: true,
                        });
                        return Some(r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joinbased::{join_search, JoinOptions};
    use crate::query::ElcaVariant;
    use crate::result::sort_ranked;
    use xtk_xml::parse;

    /// Asserts that `got` is a valid top-K of `complete`: scores match the
    /// K best (ties at the boundary may swap which node is returned).
    fn assert_topk_valid(got: &[ScoredResult], complete: &[ScoredResult], k: usize) {
        let mut complete = complete.to_vec();
        sort_ranked(&mut complete);
        let expect_len = k.min(complete.len());
        assert_eq!(got.len(), expect_len, "result count");
        for (i, r) in got.iter().enumerate() {
            // Result must exist in the complete set with the same score.
            let found = complete
                .iter()
                .find(|c| c.node == r.node)
                .unwrap_or_else(|| panic!("top-K returned non-result {:?}", r.node));
            assert!(
                (found.score - r.score).abs() < 1e-4,
                "score mismatch for {:?}: topk={} complete={}",
                r.node,
                r.score,
                found.score
            );
            // Score must match the i-th best score.
            assert!(
                (complete[i].score - r.score).abs() < 1e-4,
                "rank {i}: topk score {} vs complete {}",
                r.score,
                complete[i].score
            );
        }
    }

    fn check(xml: &str, words: &[&str], k: usize, semantics: Semantics) {
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, words).unwrap();
        let (got, _) = topk_search(&ix, &q, &TopKOptions { k, semantics, ..Default::default() });
        let opts = JoinOptions { semantics, variant: ElcaVariant::Operational, with_scores: true };
        let (complete, _) = join_search(&ix, &q, &opts);
        assert_topk_valid(&got, &complete, k);
    }

    #[test]
    fn topk_equals_complete_prefix_small() {
        let xml = "<r><a><p>x y</p><q>x</q></a><b><s>x y</s></b><c>y</c></r>";
        for k in 1..5 {
            check(xml, &["x", "y"], k, Semantics::Elca);
            check(xml, &["x", "y"], k, Semantics::Slca);
        }
    }

    #[test]
    fn topk_on_three_keywords() {
        let xml = "<r><u><p>a b c</p></u><v><p>a b</p><q>c</q></v><w>a<x>b c</x></w></r>";
        for k in [1, 2, 3, 10] {
            check(xml, &["a", "b", "c"], k, Semantics::Elca);
            check(xml, &["a", "b", "c"], k, Semantics::Slca);
        }
    }

    #[test]
    fn nested_results_rank_by_damping() {
        // Deep compact match should outrank the root-level spread match.
        let xml = "<r><deep><d2><d3>m n</d3></d2></deep><m1>m</m1><n1>n</n1></r>";
        let ix = XmlIndex::build(parse(xml).unwrap());
        let q = Query::from_words(&ix, &["m", "n"]).unwrap();
        let (got, _) = topk_search(&ix, &q, &TopKOptions { k: 1, semantics: Semantics::Elca, ..Default::default() });
        assert_eq!(got.len(), 1);
        assert_eq!(ix.tree().label(got[0].node), "d3", "compact subtree wins");
    }

    #[test]
    fn k_zero_and_missing_results() {
        let ix = XmlIndex::build(parse("<r><a>x</a><b>y</b></r>").unwrap());
        let q = Query::from_words(&ix, &["x", "y"]).unwrap();
        let (got, _) = topk_search(&ix, &q, &TopKOptions { k: 0, semantics: Semantics::Elca, ..Default::default() });
        assert!(got.is_empty());
        // K exceeding result count returns everything.
        let (got, _) = topk_search(&ix, &q, &TopKOptions { k: 99, semantics: Semantics::Elca, ..Default::default() });
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn early_emission_happens_when_threshold_drops() {
        // Many independent matches at the same level: the best one should
        // be emitted before the whole column is consumed... at minimum the
        // run must produce correct results with some early emissions
        // across a larger corpus.
        let mut xml = String::from("<r>");
        for i in 0..50 {
            xml.push_str(&format!("<p><s>alpha{}</s>beta gamma</p>", i % 3));
        }
        for _ in 0..30 {
            xml.push_str("<p>beta</p><p>gamma</p>");
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(parse(&xml).unwrap());
        let q = Query::from_words(&ix, &["beta", "gamma"]).unwrap();
        let (got, stats) = topk_search(&ix, &q, &TopKOptions { k: 5, semantics: Semantics::Elca, ..Default::default() });
        assert_eq!(got.len(), 5);
        let (complete, _) = join_search(
            &ix,
            &q,
            &JoinOptions { with_scores: true, ..Default::default() },
        );
        assert_topk_valid(&got, &complete, 5);
        assert!(stats.rows_retrieved > 0);
    }

    #[test]
    fn classic_threshold_agrees_but_emits_later() {
        // Both thresholds are sound, so the result sets must agree; the
        // tight bound must never emit fewer results early.
        let mut xml = String::from("<r>");
        for i in 0..60 {
            xml.push_str(&format!("<p><s>pad{}</s>aa bb</p>", i % 5));
        }
        xml.push_str("<q>aa</q><q>bb</q></r>");
        let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
        let q = Query::from_words(&ix, &["aa", "bb"]).unwrap();
        let opts = |threshold| TopKOptions { k: 5, semantics: Semantics::Elca, threshold };
        let (tight, st) = topk_search(&ix, &q, &opts(ThresholdKind::Tight));
        let (classic, sc) = topk_search(&ix, &q, &opts(ThresholdKind::Classic));
        assert_eq!(tight.len(), classic.len());
        for (a, b) in tight.iter().zip(&classic) {
            assert!((a.score - b.score).abs() < 1e-5);
        }
        assert!(
            st.emitted_early >= sc.emitted_early,
            "tight bound must unblock at least as early ({} vs {})",
            st.emitted_early,
            sc.emitted_early
        );
    }

    #[test]
    fn stream_pagination_equals_one_shot() {
        // Pulling K then K more from one stream equals asking for 2K.
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<p><s>f{}</s>aa bb</p>", i % 4));
        }
        xml.push_str("</r>");
        let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
        let q = Query::from_words(&ix, &["aa", "bb"]).unwrap();
        let opts = TopKOptions { k: 5, semantics: Semantics::Elca, ..Default::default() };
        let mut stream = TopKStream::new(&ix, &q, &opts);
        let first: Vec<_> = stream.by_ref().take(5).collect();
        let second: Vec<_> = stream.by_ref().take(5).collect();
        assert_eq!(first.len(), 5);
        assert_eq!(second.len(), 5);
        let (oneshot, _) = topk_search(
            &ix,
            &q,
            &TopKOptions { k: 10, semantics: Semantics::Elca, ..Default::default() },
        );
        let paged: Vec<f32> = first.iter().chain(&second).map(|r| r.score).collect();
        let direct: Vec<f32> = oneshot.iter().map(|r| r.score).collect();
        for (a, b) in paged.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "paged {a} vs direct {b}");
        }
        assert_eq!(stream.emitted(), 10);
    }

    #[test]
    fn stream_yields_monotone_scores_and_terminates() {
        let ix = XmlIndex::build(
            xtk_xml::parse("<r><a>x y</a><b>x</b><c><d>x y</d>y</c></r>").unwrap(),
        );
        let q = Query::from_words(&ix, &["x", "y"]).unwrap();
        let stream = TopKStream::new(&ix, &q, &TopKOptions::default());
        let all: Vec<_> = stream.collect();
        assert!(!all.is_empty());
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-6, "scores must not increase");
        }
        // Draining past the end keeps returning None.
        let mut again = TopKStream::new(&ix, &q, &TopKOptions::default());
        let n = again.by_ref().count();
        assert_eq!(n, all.len());
        assert_eq!(again.next(), None);
        assert_eq!(again.next(), None);
    }

    /// The merge `Cursors::drain` must reproduce: every row rescans,
    /// rescores and redamps the head of every segment.
    fn naive_drain(
        term: &TermData,
        pos: &mut [usize],
        level: u16,
        eraser: &Eraser,
        damping: &Damping,
        cap: usize,
    ) -> Vec<Candidate> {
        let col = &term.columns[level as usize - 1];
        let mut out = Vec::new();
        while out.len() < cap {
            let mut best: Option<(usize, f32)> = None;
            for (si, seg) in term.segments.iter().enumerate() {
                if seg.len < level {
                    continue;
                }
                while seg.rows.get(pos[si]).is_some_and(|&r| eraser.is_erased(r)) {
                    pos[si] += 1;
                }
                let Some(&row) = seg.rows.get(pos[si]) else { continue };
                let damped = term.scores[row as usize] * damping.factor(seg.len - level);
                if best.is_none_or(|(_, b)| damped > b) {
                    best = Some((si, damped));
                }
            }
            let Some((si, damped)) = best else { break };
            let row = term.segments[si].rows[pos[si]];
            pos[si] += 1;
            out.push((row, damped, col.value_of_row(row).unwrap()));
        }
        out
    }

    #[test]
    fn drain_matches_the_rescanning_merge_under_random_erasure() {
        use xtk_index::{IndexOptions, LocalScorer};
        use xtk_xml::testutil::prop_check;
        // Postings of `w` at five depths; pure tf–idf repeats the same three
        // local scores at every depth, so segments interleave and tie.
        let mut xml = String::from("<r>");
        for i in 0..120 {
            let text = "w ".repeat(1 + i % 3);
            xml.push_str(&match i % 5 {
                0 => format!("<a>{text}</a>"),
                1 => format!("<a><b>{text}</b></a>"),
                2 => format!("<a><b><c>{text}</c>{text}</b></a>"),
                3 => format!("<a><b><c><d>{text}</d></c></b>{text}</a>"),
                _ => format!("<a>{text}<b>{text}</b></a>"),
            });
        }
        xml.push_str("</r>");
        let opts = IndexOptions { scorer: LocalScorer::TfIdf, ..Default::default() };
        let ix = XmlIndex::build_with(parse(&xml).unwrap(), opts);
        let term = ix.term_by_str("w").unwrap();
        assert!(term.segments.len() >= 4);
        // Both ways to a row's number are drained: through a directory
        // and, on the short columns, through the search.
        let carried = |l| term.row_directory(l).is_some();
        assert!((1..=term.max_len()).any(carried) && !(1..=term.max_len()).all(carried));
        let rows = term.len() as u32;
        // λ = 1 damps nothing: equal local scores then tie across
        // segments, which is what the segment-index tie-break is for.
        let flat = Damping::new(1.0);
        prop_check(0x7d, 120, |g| {
            let damping = if g.gen_bool(0.5) { &flat } else { ix.damping() };
            let level = g.gen_range(1..term.max_len() + 1);
            let cap = g.gen_range(1..40usize);
            let mut eraser = Eraser::new();
            let mut cursors = Cursors::new(term);
            let mut pos = vec![0usize; term.segments.len()];
            let mut queue = VecDeque::new();
            loop {
                // The stream erases between refills, never during one.
                for _ in 0..g.gen_range(0..4u32) {
                    let start = g.gen_range(0..rows);
                    eraser.erase(start, (start + g.gen_range(1..12u32)).min(rows));
                }
                cursors.drain(level, &eraser, damping, cap, &mut queue);
                let want = naive_drain(term, &mut pos, level, &eraser, damping, cap);
                let bits = |c: &Candidate| (c.0, c.1.to_bits(), c.2);
                assert_eq!(
                    queue.iter().map(bits).collect::<Vec<_>>(),
                    want.iter().map(bits).collect::<Vec<_>>()
                );
                if want.is_empty() {
                    break;
                }
            }
        });
    }

    #[test]
    fn stream_on_empty_query_terms() {
        let ix = XmlIndex::build(xtk_xml::parse("<r>only</r>").unwrap());
        let q = Query::from_words(&ix, &["only"]).unwrap();
        let mut stream = TopKStream::new(&ix, &q, &TopKOptions::default());
        assert!(stream.next().is_some());
        assert!(stream.next().is_none());
    }
}
