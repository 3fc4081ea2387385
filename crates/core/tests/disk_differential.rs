//! Differential tests for the disk executor: the answer to a query must
//! not depend on the cache capacity, nor on whether a term's lists are
//! inline records or column records.  The
//! stores read in-memory file images; nothing touches the filesystem.
//! Results are compared **bit-identically** (nodes, levels, `f32` score
//! bits, join stats) against a run over an unbounded cache, and the decode
//! counters are pinned where the design makes them deterministic
//! (unbounded cache: every block decoded at most once).

mod common;

use common::store_image as image;
use std::sync::Arc;
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{Query, Semantics};
use xtk_core::result::ScoredResult;
use xtk_index::bytes::ColumnBytes;
use xtk_index::cache::{BlockCache, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS};
use xtk_core::{DiskEngine, Engine, Executor, QueryRequest};
use xtk_index::disk::INLINE_MAX_POSTINGS;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;

/// A corpus wide enough that the long lists span many blocks.
fn corpus(n: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!(
            "<conf><p><t>common topic{}</t></p><p>rare{}</p></conf>",
            i % 7,
            i % 91
        ));
    }
    xml.push_str("</r>");
    xml
}

fn open(image: &ColumnBytes, cache: Arc<dyn BlockCache>) -> DiskColumnStore {
    DiskColumnStore::open_bytes(image.clone(), cache).unwrap()
}

fn assert_bit_identical(base: &[ScoredResult], got: &[ScoredResult], what: &str) {
    assert_eq!(base.len(), got.len(), "{what}: result count");
    for (a, b) in base.iter().zip(got) {
        assert_eq!(a.node, b.node, "{what}: node");
        assert_eq!(a.level, b.level, "{what}: level");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}: score bits");
    }
}

#[test]
fn results_invariant_under_cache_capacity() {
    let xml = corpus(900);
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let image = image(&ix);
    let queries = [
        vec!["common", "rare17"],
        vec!["common", "topic3"],
        vec!["topic1", "rare5", "common"],
    ];
    type CacheCtor = fn() -> Arc<dyn BlockCache>;
    let caches: Vec<(&str, CacheCtor)> = vec![
        ("one-block", || Arc::new(ShardedLruCache::with_block_capacity(1))),
        ("default", || {
            Arc::new(ShardedLruCache::with_block_capacity(DEFAULT_CAPACITY_BLOCKS))
        }),
        ("tiny-bytes", || Arc::new(ShardedLruCache::with_byte_capacity(1 << 13))),
        ("unbounded", || Arc::new(ShardedLruCache::unbounded())),
    ];

    for words in &queries {
        let q = Query::from_words(&ix, words).unwrap();
        for semantics in [Semantics::Elca, Semantics::Slca] {
            // Baseline: an unbounded cache, cold.
            let base_store = open(&image, Arc::new(ShardedLruCache::unbounded()));
            let opts = JoinOptions { semantics, with_scores: true, ..Default::default() };
            let (base, base_stats, base_reads) =
                join_search_disk(&ix, &base_store, &q, &opts).unwrap();
            assert!(base_reads > 0, "cold baseline must decode blocks");

            for (name, mk_cache) in &caches {
                let store = open(&image, mk_cache());
                let (got, stats, reads) = join_search_disk(&ix, &store, &q, &opts).unwrap();
                let what = format!("{words:?} {semantics:?} cache={name}");
                assert_bit_identical(&base, &got, &what);
                assert_eq!(base_stats, stats, "{what}: join stats");
                assert!(reads > 0, "{what}: cold run must decode");
                if *name == "unbounded" {
                    // Every needed block is decoded exactly once.
                    assert_eq!(base_reads, reads, "{what}: decode count");
                }
            }
        }
    }
}

#[test]
fn capacity_one_still_terminates_and_repeats_deterministically() {
    // The worst cache (one block) forces re-decodes; two identical runs
    // on one store must still agree with each other bit for bit.
    let xml = corpus(400);
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let store = open(&image(&ix), Arc::new(ShardedLruCache::with_block_capacity(1)));
    let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let (a, sa, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    let (b, sb, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    assert_bit_identical(&a, &b, "repeat on capacity-1 cache");
    assert_eq!(sa, sb);
    assert!(store.cache_stats().evictions > 0, "capacity 1 must evict");
}

/// The Zipf tail on both sides of the inline threshold: `r{k}` in `k`
/// papers spread over 40 conferences, for every `k` up to one past the
/// most postings an inline record holds — in titles, and for `k` a
/// multiple of three once in a conference name, a level up; `common` in
/// every title, a list of column records.
fn tail_corpus() -> String {
    let (confs, papers) = (40, 6);
    let mut titles = vec![vec!["common".to_string()]; confs * papers];
    let mut names = vec![Vec::new(); confs];
    for k in 1..=INLINE_MAX_POSTINGS + 1 {
        for j in 0..k {
            // 23 is prime to the 240 slots: k distinct papers.
            let slot = (7 * k + 23 * j) % (confs * papers);
            if k % 3 == 0 && j == 0 {
                names[slot / papers].push(format!("r{k}"));
            } else {
                titles[slot].push(format!("r{k}"));
            }
        }
    }
    let mut xml = String::from("<r>");
    for (c, name) in names.iter().enumerate() {
        xml.push_str(&format!("<conf><name>venue {}</name>", name.join(" ")));
        for (p, title) in titles[c * papers..(c + 1) * papers].iter().enumerate() {
            xml.push_str(&format!(
                "<paper><title>{}</title><author>a{}</author></paper>",
                title.join(" "),
                (c + p) % 13
            ));
        }
        xml.push_str("</conf>");
    }
    xml.push_str("</r>");
    xml
}

#[test]
fn inline_terms_answer_as_the_memory_engine() {
    let engine = Engine::from_xml(&tail_corpus()).unwrap();
    let ix = engine.index();
    let image = image(ix);
    let tail: Vec<String> = (1..=INLINE_MAX_POSTINGS + 1).map(|k| format!("r{k}")).collect();
    let lens: Vec<usize> = tail.iter().map(|w| ix.term_by_str(w).unwrap().len()).collect();
    assert_eq!(lens, (1..=INLINE_MAX_POSTINGS + 1).collect::<Vec<_>>());

    // Each column of an inline term is one block: a cold scan is one
    // access and one decode, a warm one one hit, a `find` outside its
    // span no access at all.
    let store = open(&image, Arc::new(ShardedLruCache::unbounded()));
    for word in tail.iter().filter(|w| ix.term_by_str(w).unwrap().len() <= INLINE_MAX_POSTINGS) {
        for col in store.columns(word) {
            assert_eq!(col.block_count(), 1, "{word}");
            let before = store.io_stats();
            col.scan().unwrap();
            col.scan().unwrap();
            let io = store.io_stats().since(&before);
            assert_eq!((io.misses, io.decodes, io.hits), (1, 1, 1), "{word}");
            let (_, last) = col.value_span().unwrap();
            let before = store.io_stats();
            assert_eq!(col.find(last + 1).unwrap(), None);
            assert_eq!(store.io_stats().since(&before), Default::default(), "{word}");
        }
    }

    let mut queries: Vec<Vec<&str>> = Vec::new();
    for (i, a) in tail.iter().enumerate() {
        queries.push(vec![a, "common"]);
        for b in &tail[i + 1..] {
            queries.push(vec![a, b]);
        }
    }
    queries.push(vec!["r1", "r4", "r9"]);
    queries.push(vec!["a3", "r6", "common"]);
    for words in &queries {
        let q = Query::from_words(ix, words).unwrap();
        let columns: u64 = q.terms.iter().map(|&t| u64::from(ix.term(t).max_len())).sum();
        for semantics in [Semantics::Elca, Semantics::Slca] {
            let what = format!("{words:?} {semantics:?}");
            let opts = JoinOptions { semantics, with_scores: true, ..Default::default() };
            let (want, want_stats) = join_search(ix, &q, &opts);
            let store = open(&image, Arc::new(ShardedLruCache::unbounded()));
            let (got, got_stats, decodes) = join_search_disk(ix, &store, &q, &opts).unwrap();
            assert_bit_identical(&want, &got, &what);
            assert_eq!(want_stats, got_stats, "{what}");
            // No column of these terms spans two blocks: at most one
            // decode per column, and a warm rerun makes the same accesses
            // from the cache.
            let cold = store.io_stats();
            assert!(decodes <= columns && cold.misses == decodes, "{what}: {cold:?}");
            let (again, _, warm) = join_search_disk(ix, &store, &q, &opts).unwrap();
            assert_bit_identical(&want, &again, &what);
            let io = store.io_stats().since(&cold);
            assert_eq!((warm, io.hits), (0, cold.hits + cold.misses), "{what}");
            // The request surface too: complete and top-K, ranked.
            let disk = DiskEngine::new(ix, &store);
            for req in [QueryRequest::complete(semantics), QueryRequest::top_k(3, semantics)] {
                let memory = engine.run(&q, &req).results;
                assert_bit_identical(&memory, &disk.execute(&q, &req).unwrap().results, &what);
            }
        }
    }
}
