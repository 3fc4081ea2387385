//! Differential tests for the top-K star join's hot loop: what it returns,
//! what it counts and what it traces may not depend on how the batches are
//! refilled (serial in place, or on the pool from copied cursors) nor on
//! the caches the stream and the bucket keep (head scores, group tops, the
//! future-column bound).  One small trace is pinned byte for byte, so a
//! change to the order or the number of retrieved rows, threshold drops or
//! emissions shows as a diff of this file.

mod common;

use common::{build_corpus, corpus, deep_corpus, query};
use xtk_core::pool::Parallelism;
use xtk_core::query::{Query, Semantics};
use xtk_core::starjoin::BucketStats;
use xtk_core::topk::{topk_search_obs, ThresholdKind, TopKOptions, TopKStats};
use xtk_index::XmlIndex;
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

fn assert_refill_invariant(ix: &XmlIndex, q: &Query, k: usize) {
    for semantics in [Semantics::Elca, Semantics::Slca] {
        for threshold in [ThresholdKind::Tight, ThresholdKind::Classic] {
            let opts = TopKOptions { k, semantics, threshold, ..Default::default() };
            let serial = run(ix, q, &opts);
            assert_eq!(serial.bucket.inserts, serial.stats.rows_retrieved);
            assert_eq!(serial.bucket.completions, serial.stats.candidates);
            let pooled = run(ix, q, &TopKOptions { parallelism: Parallelism::Fixed(2), ..opts });
            assert_eq!(serial, pooled, "{semantics:?} {threshold:?} top-{k}");
        }
    }
}

#[test]
fn serial_and_pooled_refills_are_indistinguishable() {
    prop_check(0x91, 48, |g| {
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_refill_invariant(&ix, &query(&ix, k), 3);
    });
    prop_check(0x92, 32, |g| {
        let (shape, placements, k) = deep_corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_refill_invariant(&ix, &query(&ix, k), 5);
    });
}

#[test]
fn many_batches_and_columns_are_refill_invariant() {
    // Enough rows per keyword for several 64-row refills in each of three
    // columns, with completions (erasures) landing between them.
    let mut xml = String::from("<r>");
    for i in 0..400 {
        match i % 6 {
            0 => xml.push_str("<p>foo bar</p>"),
            1 => xml.push_str("<p>foo<q>bar baz</q></p>"),
            2 => xml.push_str("<p><q>foo</q><q>bar</q>baz</p>"),
            3 => xml.push_str("<p>bar bar</p>"),
            4 => xml.push_str("<p><q>foo foo baz</q></p>"),
            _ => xml.push_str("<p>baz<q><s>foo bar</s></q></p>"),
        }
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    for words in [&["foo", "bar"][..], &["foo", "bar", "baz"][..]] {
        let q = Query::from_words(&ix, words).unwrap();
        for k in [1, 10, 200] {
            assert_refill_invariant(&ix, &q, k);
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
