//! Differential tests for the threads that remain: an index built at any
//! [`Parallelism`] must be **bit-identical**, structure by structure, to
//! the serial build — on random corpora, on deep chain-heavy corpora and
//! on the DBLP/XMark-style generated datasets — and a batch run on several
//! workers must answer every item as [`Engine::run`] does.  (A single
//! query runs on the calling thread; the shard scatter is covered by
//! `shard_differential`.)

mod common;

use common::{build_corpus, corpus, deep_corpus};
use xtk_core::pool::Parallelism;
use xtk_core::query::Semantics;
use xtk_core::{BatchItem, BatchOptions, Engine};
use xtk_index::{IndexOptions, XmlIndex};
use xtk_xml::testutil::prop_check;
use xtk_xml::XmlTree;

const PARS: [Parallelism; 3] =
    [Parallelism::Fixed(2), Parallelism::Fixed(8), Parallelism::Auto];

/// Builds the same tree twice (generation is seed-deterministic) and
/// compares every physical index structure between a serial and a
/// parallel build.
fn assert_build_identical(mk: impl Fn() -> XmlTree) {
    let serial = XmlIndex::build_with(mk(), IndexOptions::default());
    for par in PARS {
        let parallel = XmlIndex::build_with(
            mk(),
            IndexOptions { parallelism: par, ..Default::default() },
        );
        assert_eq!(serial.vocab_size(), parallel.vocab_size(), "vocab under {par}");
        assert_eq!(serial.doc_count(), parallel.doc_count(), "doc count under {par}");
        for ((ia, ta), (ib, tb)) in serial.terms().zip(parallel.terms()) {
            assert_eq!(ia, ib);
            assert_eq!(ta.term, tb.term, "term id assignment under {par}");
            assert_eq!(ta.postings, tb.postings, "postings of {} under {par}", ta.term);
            let sa: Vec<u32> = ta.scores.iter().map(|s| s.to_bits()).collect();
            let sb: Vec<u32> = tb.scores.iter().map(|s| s.to_bits()).collect();
            assert_eq!(sa, sb, "score bits of {} under {par}", ta.term);
            assert_eq!(ta.columns.len(), tb.columns.len());
            for (ca, cb) in ta.columns.iter().zip(&tb.columns) {
                let ra: Vec<(u32, u32, u32)> =
                    ca.runs.iter().map(|r| (r.value, r.start, r.len)).collect();
                let rb: Vec<(u32, u32, u32)> =
                    cb.runs.iter().map(|r| (r.value, r.start, r.len)).collect();
                assert_eq!(ra, rb, "columns of {} under {par}", ta.term);
            }
            let ga: Vec<(u16, &[u32])> =
                ta.segments.iter().map(|s| (s.len, s.rows.as_slice())).collect();
            let gb: Vec<(u16, &[u32])> =
                tb.segments.iter().map(|s| (s.len, s.rows.as_slice())).collect();
            assert_eq!(ga, gb, "segments of {} under {par}", ta.term);
            let (ma, mb) = (ta.max_score.to_bits(), tb.max_score.to_bits());
            assert_eq!(ma, mb, "max score of {} under {par}", ta.term);
        }
    }
}

#[test]
fn random_corpora_are_parallelism_invariant() {
    prop_check(0x61, 48, |g| {
        let (shape, placements, k) = corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_build_identical(|| ix.tree().clone());
    });
}

#[test]
fn deep_corpora_are_parallelism_invariant() {
    prop_check(0x62, 32, |g| {
        let (shape, placements, k) = deep_corpus(g);
        let ix = build_corpus(&shape, &placements, k);
        assert_build_identical(|| ix.tree().clone());
    });
}

#[test]
fn dblp_corpus_is_parallelism_invariant() {
    use xtk_datagen::dblp::{generate, DblpConfig};
    let cfg = DblpConfig {
        conferences: 10,
        years_per_conf: 3,
        papers_per_year: 6,
        ..Default::default()
    };
    assert_build_identical(|| generate(&cfg).tree);
}

#[test]
fn xmark_corpus_is_parallelism_invariant() {
    use xtk_datagen::xmark::{generate, XmarkConfig};
    let cfg = XmarkConfig::default();
    assert_build_identical(|| generate(&cfg).tree);
}

#[test]
fn engine_facade_is_parallelism_invariant() {
    let mut xml = String::from("<r>");
    for i in 0..400 {
        xml.push_str(&format!("<p><t>alpha beta</t><u>gamma{}</u></p>", i % 7));
    }
    xml.push_str("</r>");
    use xtk_core::request::{QueryAlgorithm, QueryRequest};
    let engine = Engine::from_xml(&xml).unwrap();
    let requests = [
        QueryRequest::complete(Semantics::Elca),
        QueryRequest::complete(Semantics::Slca),
        QueryRequest::top_k(7, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        QueryRequest::top_k(7, Semantics::Elca),
    ];
    let items: Vec<BatchItem> = ["alpha beta", "alpha gamma3", "beta gamma0 alpha"]
        .iter()
        .flat_map(|text| requests.iter().map(|req| (engine.query(text).unwrap(), *req)))
        .map(|(query, req)| BatchItem::new(query, req))
        .collect();
    let opts = BatchOptions { parallelism: Parallelism::Fixed(3), ..Default::default() };
    let report = engine.run_batch_report(&items, &opts);
    assert_eq!(report.responses.len(), items.len());
    for (item, got) in items.iter().zip(&report.responses) {
        let want = engine.run(&item.query, &item.request);
        assert_eq!(want.engine, got.engine, "planner choice");
        assert_eq!(want.results.len(), got.results.len());
        for (a, b) in want.results.iter().zip(&got.results) {
            assert_eq!((a.node, a.level), (b.node, b.level));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(want.metrics, got.metrics, "per-query metrics");
    }
}
