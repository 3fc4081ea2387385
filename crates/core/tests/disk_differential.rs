//! Differential tests for the disk executor: the answer to a query must
//! not depend on the cache capacity.  The
//! stores read in-memory file images; nothing touches the filesystem.
//! Results are compared **bit-identically** (nodes, levels, `f32` score
//! bits, join stats) against a run over an unbounded cache, and the decode
//! counters are pinned where the design makes them deterministic
//! (unbounded cache: every block decoded at most once).

mod common;

use common::store_image as image;
use std::sync::Arc;
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::JoinOptions;
use xtk_core::query::{Query, Semantics};
use xtk_core::result::ScoredResult;
use xtk_index::bytes::ColumnBytes;
use xtk_index::cache::{BlockCache, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS};
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
