//! Differential tests for the top-K star join's hot loop: what it returns
//! and what it counts may not depend on the batches its rows are retrieved
//! in nor on the caches the stream and the bucket keep (head scores, group
//! tops, the future-column bound) — a reference stream that keeps nothing
//! between two rows must agree.  One small trace is pinned byte for byte, so a
//! change to the order or the number of retrieved rows, threshold drops or
//! emissions shows as a diff of this file.

mod common;

use common::{build_corpus, corpus, deep_corpus, query};
use std::collections::BinaryHeap;
use xtk_core::eraser::Eraser;
use xtk_core::query::{Query, Semantics};
use xtk_core::starjoin::{Bucket, BucketStats};
use xtk_core::topk::{topk_search_obs, ThresholdKind, TopKOptions, TopKStats};
use xtk_index::scored::Segment;
use xtk_index::{TermData, XmlIndex};
use xtk_obs::{Obs, TraceLevel};
use xtk_xml::testutil::prop_check;

/// Everything observable about one traced run.
#[derive(Debug, PartialEq)]
struct Run {
    /// `(node, level, score bits)` in emission order.
    results: Vec<(u32, u16, u32)>,
    stats: TopKStats,
    bucket: BucketStats,
    trace: String,
}

fn run(ix: &XmlIndex, q: &Query, opts: &TopKOptions) -> Run {
    let obs = Obs::for_level(TraceLevel::Events);
    let (results, stats) = topk_search_obs(ix, q, opts, &obs);
    Run {
        results: results.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect(),
        stats,
        bucket: BucketStats {
            inserts: obs.metrics.value("starjoin.inserts"),
            duplicates: obs.metrics.value("starjoin.duplicates"),
            completions: obs.metrics.value("starjoin.completions"),
        },
        trace: obs.tracer.finish().expect("tracing is on").to_json_lines(),
    }
}

/// The engine against the [`Reference`] stream: results with score bits
/// in emission order, `TopKStats` and the bucket's counters.
fn assert_matches_reference(ix: &XmlIndex, q: &Query, k: usize) {
    for semantics in [Semantics::Elca, Semantics::Slca] {
        for threshold in [ThresholdKind::Tight, ThresholdKind::Classic] {
            let opts = TopKOptions { k, semantics, threshold };
            let got = run(ix, q, &opts);
            assert_eq!(got.bucket.inserts, got.stats.rows_retrieved);
            assert_eq!(got.bucket.completions, got.stats.candidates);
            let want = Reference::new(ix, q, &opts).run();
            assert_eq!(
                (got.results, got.stats, got.bucket),
                want,
                "{semantics:?} {threshold:?} top-{k}"
            );
        }
    }
}

#[test]
fn random_and_deep_corpora_match_the_searching_reference() {
    prop_check(0x91, 48, |g| {
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_matches_reference(&ix, &query(&ix, k), 3);
    });
    prop_check(0x92, 32, |g| {
        let (shape, placements, k) = deep_corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_matches_reference(&ix, &query(&ix, k), 5);
    });
}

/// `n` papers holding `foo`, `bar` and `baz` at three depths, in six
/// shapes that complete at different levels.
fn papers(n: usize) -> XmlIndex {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(match i % 6 {
            0 => "<p>foo bar</p>",
            1 => "<p>foo<q>bar baz</q></p>",
            2 => "<p><q>foo</q><q>bar</q>baz</p>",
            3 => "<p>bar bar</p>",
            4 => "<p><q>foo foo baz</q></p>",
            _ => "<p>baz<q><s>foo bar</s></q></p>",
        });
    }
    xml.push_str("</r>");
    XmlIndex::build(xtk_xml::parse(&xml).unwrap())
}

#[test]
fn many_batches_and_columns_are_refill_invariant() {
    // Enough rows per keyword for several 64-row refills in each of three
    // columns, with completions (erasures) landing between them.
    let ix = papers(400);
    for words in [&["foo", "bar"][..], &["foo", "bar", "baz"][..]] {
        let q = Query::from_words(&ix, words).unwrap();
        for k in [1, 10, 200] {
            assert_matches_reference(&ix, &q, k);
        }
    }
}

/// The stream of `topk.rs` with nothing kept between two rows: no batches,
/// no cached heads or bounds, and every row's number read by
/// `Column::value_of_row`.  Each step rescans every segment head of every
/// keyword and recomputes both bounds from the erasure state.
struct Reference<'a> {
    ix: &'a XmlIndex,
    terms: Vec<TermData<'a>>,
    opts: TopKOptions,
    erasers: Vec<Eraser>,
    /// Per keyword and segment: the next row for the current column.
    pos: Vec<Vec<usize>>,
    /// Per keyword and segment: the first row not erased (only advances;
    /// an index into the segment, so the future bound need not rescan the
    /// erased prefix).
    live_from: Vec<Vec<usize>>,
    level: u16,
    bucket: Bucket,
    bucket_stats: BucketStats,
    rr: usize,
    s_max_col: Vec<f32>,
    /// `(score bits, level, value)`: scores are positive, so their bits
    /// order as they do.
    pending: BinaryHeap<(u32, u16, u32)>,
    stats: TopKStats,
}

/// The first row of `seg` at or after `*i` that is not erased.
fn live(seg: &Segment<'_>, i: &mut usize, eraser: &Eraser) -> Option<u32> {
    while seg.rows.get(*i).is_some_and(|&r| eraser.is_erased(r)) {
        *i += 1;
    }
    seg.rows.get(*i).copied()
}

impl<'a> Reference<'a> {
    fn new(ix: &'a XmlIndex, q: &Query, opts: &TopKOptions) -> Self {
        let terms: Vec<TermData> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let k = terms.len();
        let level = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
        let pos: Vec<Vec<usize>> = terms.iter().map(|t| vec![0; t.segments().count()]).collect();
        let mut reference = Reference {
            ix,
            opts: *opts,
            erasers: (0..k).map(|_| Eraser::new()).collect(),
            live_from: pos.clone(),
            pos,
            level,
            bucket: Bucket::new(k.max(1)),
            bucket_stats: BucketStats::default(),
            rr: 0,
            s_max_col: vec![0.0; k],
            pending: BinaryHeap::new(),
            stats: TopKStats::default(),
            terms,
        };
        if level > 0 {
            reference.enter_column();
        }
        reference
    }

    fn fold_bucket_stats(&mut self) {
        let now = self.bucket.stats();
        self.bucket_stats.inserts += now.inserts;
        self.bucket_stats.duplicates += now.duplicates;
        self.bucket_stats.completions += now.completions;
    }

    fn enter_column(&mut self) {
        self.stats.columns += 1;
        self.fold_bucket_stats();
        self.bucket.clear();
        self.rr = 0;
        self.pos.iter_mut().flatten().for_each(|p| *p = 0);
        self.s_max_col = self.head_scores();
    }

    /// Keyword `i`'s next row at this column, `(segment, row, damped)`:
    /// the first strict maximum over its segments' live heads.
    fn head(&mut self, i: usize) -> Option<(usize, u32, f32)> {
        let (term, level) = (self.terms[i], self.level);
        let mut best: Option<(usize, u32, f32)> = None;
        for (si, seg) in term.segments().enumerate() {
            if seg.len < level {
                continue;
            }
            let Some(row) = live(&seg, &mut self.pos[i][si], &self.erasers[i]) else { continue };
            let damped = term.scores()[row as usize] * self.ix.damping().factor(seg.len - level);
            if best.is_none_or(|(_, _, b)| damped > b) {
                best = Some((si, row, damped));
            }
        }
        best
    }

    fn head_scores(&mut self) -> Vec<f32> {
        (0..self.terms.len()).map(|i| self.head(i).map_or(0.0, |h| h.2)).collect()
    }

    /// `max_{l' < l} Σ_i s_m^i(l')` with the paper's skip rule.
    fn future_bound(&mut self) -> f32 {
        let mut best = f32::NEG_INFINITY;
        for lf in (1..self.level).rev() {
            let ends_here = |t: &TermData| t.segments().any(|s| s.len == lf);
            if lf < self.level - 1 && !self.terms.iter().any(ends_here) {
                continue;
            }
            let mut bound = 0.0f32;
            for (i, term) in self.terms.iter().enumerate() {
                let mut s_m = 0.0f32;
                for (si, seg) in term.segments().enumerate() {
                    if seg.len < lf {
                        continue;
                    }
                    if let Some(row) = live(&seg, &mut self.live_from[i][si], &self.erasers[i]) {
                        let damping = self.ix.damping().factor(seg.len - lf);
                        s_m = s_m.max(term.scores()[row as usize] * damping);
                    }
                }
                bound += s_m;
            }
            best = best.max(bound);
        }
        best
    }

    /// One row; `false` when the column has none left.
    fn step(&mut self) -> bool {
        let s = self.head_scores();
        if s.iter().all(|&x| x <= 0.0) {
            return false;
        }
        let k = self.terms.len();
        let pick = if self.stats.candidates < self.opts.k.max(1) as u64 {
            let mut p = self.rr % k;
            while s[p] <= 0.0 {
                p = (p + 1) % k;
            }
            self.rr = p + 1;
            p
        } else {
            // First maximum.
            (0..k).rev().max_by(|&a, &b| s[a].total_cmp(&s[b])).unwrap()
        };
        let (si, row, damped) = self.head(pick).expect("a positive head score");
        self.pos[pick][si] += 1;
        let level = self.level;
        let column = |t: TermData<'a>| t.column(level).unwrap();
        let value = column(self.terms[pick]).value_of_row(row).expect("the row reaches the level");
        self.stats.rows_retrieved += 1;
        let Some(done) = self.bucket.insert(value, pick, damped) else { return true };
        self.stats.candidates += 1;
        let runs: Vec<xtk_index::Run> = self.terms.iter().map(|&t| *column(t).find(value).unwrap()).collect();
        let accept = match self.opts.semantics {
            Semantics::Elca => true,
            Semantics::Slca => {
                runs.iter().zip(&self.erasers).all(|(r, e)| !e.any_in(r.start, r.end()))
            }
        };
        for (r, e) in runs.iter().zip(self.erasers.iter_mut()) {
            e.erase(r.start, r.end());
        }
        if accept {
            self.pending.push((done.score.to_bits(), self.level, value));
        }
        true
    }

    /// The next result as `(node, level, score bits)`.
    fn next(&mut self) -> Option<(u32, u16, u32)> {
        loop {
            if self.level == 0 {
                let (bits, level, value) = self.pending.pop()?;
                return Some((self.ix.node_at(level, value).unwrap().0, level, bits));
            }
            if !self.step() {
                self.level -= 1;
                if self.level > 0 {
                    self.enter_column();
                }
                continue;
            }
            let Some(&(bits, level, value)) = self.pending.peek() else { continue };
            let s = self.head_scores();
            let here = match self.opts.threshold {
                ThresholdKind::Tight => self.bucket.threshold(&s),
                ThresholdKind::Classic => Bucket::classic_threshold(&s, &self.s_max_col),
            };
            if f32::from_bits(bits) >= here.max(self.future_bound()) {
                self.pending.pop();
                self.stats.emitted_early += 1;
                return Some((self.ix.node_at(level, value).unwrap().0, level, bits));
            }
        }
    }

    /// What `run` reports of the engine, of this stream.
    fn run(mut self) -> (Vec<(u32, u16, u32)>, TopKStats, BucketStats) {
        let mut results = Vec::new();
        while results.len() < self.opts.k {
            let Some(r) = self.next() else { break };
            results.push(r);
        }
        self.fold_bucket_stats();
        (results, self.stats, self.bucket_stats)
    }
}

#[test]
fn columns_with_row_directories_match_the_searching_reference() {
    // Thousands of postings per keyword at three depths: the columns the
    // stream drains carry row directories, which the corpora above are too
    // small for.
    let ix = papers(3600);
    for words in [&["foo", "bar"][..], &["foo", "bar", "baz"][..]] {
        let q = Query::from_words(&ix, words).unwrap();
        for &t in &q.terms {
            assert!(ix.term(t).len() >= 2000);
            assert!(ix.term(t).row_directory(2).is_some() && ix.term(t).row_directory(3).is_some());
        }
        for k in [1, 10, 50] {
            assert_matches_reference(&ix, &q, k);
        }
    }
}

/// The event stream of one small query, as the engine produced it before
/// the hot loop was made allocation-free.  Refresh only for a change that
/// is meant to alter what the star join retrieves or emits.
const GOLDEN_TRACE: &str = r#"{"seq":0,"event":"query_start","keywords":2,"start_level":5}
{"seq":1,"event":"topk_column","level":5,"runs":2}
{"seq":2,"event":"topk_threshold","level":5,"threshold_bits":1061927366}
{"seq":3,"event":"topk_column","level":4,"runs":8}
{"seq":4,"event":"topk_threshold","level":4,"threshold_bits":1061546356}
{"seq":5,"event":"topk_threshold","level":4,"threshold_bits":1061518118}
{"seq":6,"event":"topk_threshold","level":4,"threshold_bits":1061205042}
{"seq":7,"event":"topk_threshold","level":4,"threshold_bits":1060592229}
{"seq":8,"event":"topk_column","level":3,"runs":9}
{"seq":9,"event":"topk_threshold","level":3,"threshold_bits":1059821814}
{"seq":10,"event":"topk_emit","value":2,"level":3,"score_bits":1060592229,"early":1}
{"seq":11,"event":"topk_emit","value":1,"level":5,"score_bits":1060553485,"early":1}
{"seq":12,"event":"topk_threshold","level":3,"threshold_bits":1059796400}
{"seq":13,"event":"topk_emit","value":1,"level":4,"score_bits":1060342719,"early":1}
{"seq":14,"event":"query_end","results":3}
"#;

#[test]
fn small_trace_is_pinned() {
    let xml = "<bib><conf><paper><title>xml keyword search</title><abs>xml</abs></paper>\
               <paper><title>keyword</title><sec>xml search<p>xml keyword</p></sec></paper>\
               <paper>xml<title>top k keyword</title></paper></conf>\
               <conf><paper>keyword xml</paper><paper><title>xml</title></paper></conf></bib>";
    let ix = XmlIndex::build(xtk_xml::parse(xml).unwrap());
    let q = Query::from_words(&ix, &["xml", "keyword"]).unwrap();
    let got = run(&ix, &q, &TopKOptions { k: 3, ..Default::default() });
    assert_eq!(got.results.len(), 3);
    assert_eq!(got.trace, GOLDEN_TRACE);
}
