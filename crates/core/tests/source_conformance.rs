//! The `ColumnSource` contract, checked against the in-memory columns as
//! ground truth: over random corpora × every level × random ascending
//! probe sets, for memory and disk v2 and v3 × `block_skip` on/off ×
//! a one-block and an unbounded cache, the whole-column feed hands over
//! the column's runs bit for bit, and a cursor on a join step's feed or
//! the driver's answers an ascending lookup sequence exactly as
//! `Column::find` does — present and absent values alike — landing each
//! block at most once.  A cursor
//! keeps reading its block after the cache evicted it.  Plus the fault
//! case: a store whose block is torn mid-payload
//! makes the generic driver return `Err` — on the single store and
//! through the sharded engine — and never panic; so does a store written
//! from a larger corpus than the index it is read with.

mod common;

use common::store_image as image;
use std::sync::Arc;
use xtk_core::diskexec::{join_search_disk_spec, DiskJoinSpec, DiskSource};
use xtk_core::joinbased::{algorithm1, join_search, ColumnSource, JoinOptions, MemSource};
use xtk_core::shard::{write_sharded_with, ShardedEngine, STORE_FILE};
use xtk_core::{Executor, Query, QueryAlgorithm, QueryRequest, ScoredResult, Semantics};
use xtk_index::cache::{BlockCache, ShardedLruCache};
use xtk_index::columnar::{Column, Feed, Run, RunCursor};
use xtk_index::disk::WriteIndexOptions;
use xtk_index::diskcol::{DiskColumnStore, IoSession};
use xtk_index::XmlIndex;
use xtk_obs::Obs;
use xtk_xml::testutil::{prop_check, Gen, TempPath};

fn cache(one_block: bool) -> Arc<dyn BlockCache> {
    if one_block {
        Arc::new(ShardedLruCache::with_block_capacity(1))
    } else {
        Arc::new(ShardedLruCache::unbounded())
    }
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// An ascending, deduplicated probe list mixing values the column holds
/// with values it does not; sometimes empty.
fn random_probes(g: &mut Gen, runs: &[Run]) -> Vec<u32> {
    let hi = runs.last().map_or(8, |r| r.value + 4);
    let n = g.gen_range(0..(runs.len() + 3));
    let mut probes: Vec<u32> = (0..n)
        .map(|_| match g.rng().choose(runs) {
            Some(r) if g.gen_bool(0.7) => r.value,
            _ => g.gen_range(0..hi),
        })
        .collect();
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// What [`check_contract`] knows of the storage under test.
struct Storage<'a> {
    label: &'a str,
    /// What this storage's directory calls a column's size.
    size_of: fn(Column<'_>) -> usize,
    /// Block accesses so far (memory: always 0).
    accesses: &'a dyn Fn() -> u64,
    /// A column's block count (memory: 0).
    blocks_of: &'a dyn Fn(&str, u16) -> u64,
}

/// Walks `src` through every level of `query` and checks `size`, the
/// whole-column feed and cursors on both kinds of feed against the memory
/// columns.
fn check_contract<'s, S: ColumnSource<'s>>(
    storage: &Storage<'_>,
    src: &mut S,
    ix: &XmlIndex,
    query: &Query,
    g: &mut Gen,
) where
    S::Error: std::fmt::Debug,
{
    let Storage { label, size_of, accesses, blocks_of } = *storage;
    let terms: Vec<_> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let l0 = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
    for (kw, term) in terms.iter().enumerate() {
        let rows = src.rows(kw);
        assert_eq!((rows.postings, rows.levels), (term.postings(), term.max_len()), "{label}");
        assert!(rows.scores.iter().map(|s| s.to_bits()).eq(term.scores().iter().map(|s| s.to_bits())));
    }
    for level in (1..=l0).rev() {
        assert_eq!(src.floor(), 1, "{label}: a whole index is read down to the root");
        src.enter(level).unwrap();
        for (kw, term) in terms.iter().enumerate() {
            let what = format!("{label} level {level} kw {kw}");
            let col = term.column(level).unwrap();
            let blocks = blocks_of(term.name(), level);
            assert_eq!(src.size(kw), size_of(col), "{what}: size");
            let (mut whole, mut feed) = (Vec::new(), src.feed(kw, false).unwrap());
            let before = accesses();
            while let Some(stretch) = feed.land(0).unwrap() {
                whole.extend_from_slice(stretch.as_ref());
            }
            assert_eq!(whole, col.runs, "{what}: whole column");
            assert_eq!(accesses() - before, blocks, "{what}: the driver reads each block once");
            for _ in 0..3 {
                let probes = random_probes(g, col.runs);
                for step in [true, false] {
                    let what = format!("{what} step={step} probes {probes:?}");
                    let before = accesses();
                    let mut cursor = RunCursor::new(src.feed(kw, step).unwrap());
                    for &v in &probes {
                        assert_eq!(cursor.seek(v).unwrap(), col.find(v).copied(), "{what}: {v}");
                    }
                    cursor.finish().unwrap();
                    assert!(accesses() - before <= blocks, "{what}: a block landed twice");
                }
            }
        }
    }
}

/// [`check_contract`] for memory and every disk configuration, and the
/// one driver over each disk source against the memory answer.
fn check_every_source(ix: &XmlIndex, query: &Query, g: &mut Gen) {
    let mut mem = MemSource::new(ix, query);
    let memory =
        Storage { label: "memory", size_of: |c| c.runs.len(), accesses: &|| 0, blocks_of: &|_, _| 0 };
    check_contract(&memory, &mut mem, ix, query, g);

    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let (want, _) = join_search(ix, query, &opts);
    let bytes = image(ix);
    for block_skip in [true, false] {
        for one_block in [true, false] {
            let label = format!("skip={block_skip} cap1={one_block}");
            let store = DiskColumnStore::open_bytes(bytes.clone(), cache(one_block)).unwrap();
            let spec = DiskJoinSpec { join: opts, block_skip, prescan: false };
            let session = IoSession::default();
            let mut disk = DiskSource::new(ix, &store, query, &spec, &session);
            let disk_store = Storage {
                label: &label,
                size_of: |c| c.row_count() as usize,
                accesses: &|| session.stats().hits + session.stats().misses,
                blocks_of: &|term, l| {
                    store.column(term, l).map_or(0, |c| c.block_count() as u64)
                },
            };
            check_contract(&disk_store, &mut disk, ix, query, g);
            // And the one driver over it answers as over memory.
            let session = IoSession::default();
            let mut disk = DiskSource::new(ix, &store, query, &spec, &session);
            let (got, _) = algorithm1(ix, query, &opts, &mut disk, &Obs::default()).unwrap();
            assert_eq!(bits(&want), bits(&got), "{label}: driver results");
        }
    }
}

#[test]
fn every_source_honours_the_cursor_contract() {
    prop_check(0x5C_0001, 40, |g| {
        // Flat and chain-heavy shapes alternate: few wide columns, then
        // many levels.
        let (shape, placements, k) =
            if g.gen_bool(0.5) { common::corpus(g) } else { common::deep_corpus(g) };
        let ix = common::build_corpus(&shape, &placements, k);
        check_every_source(&ix, &common::query(&ix, k), g);
    });
}

/// 40 000 papers: `common` spans several blocks.
fn many_block_corpus() -> XmlIndex {
    let mut xml = String::from("<r>");
    for i in 0..40_000 {
        xml.push_str(&format!("<p><t>common x{}</t></p>", i % 50));
    }
    xml.push_str("</r>");
    XmlIndex::build(xtk_xml::parse(&xml).unwrap())
}

#[test]
fn cursors_cross_block_boundaries_as_they_cross_runs() {
    let ix = many_block_corpus();
    let query = Query::from_words(&ix, &["x7", "common"]).unwrap();
    check_every_source(&ix, &query, &mut Gen::new(0x5C_0002, 100));
}

#[test]
fn a_cursor_keeps_its_block_when_the_cache_evicts_it() {
    let ix = many_block_corpus();
    let col = ix.term_by_str("common").unwrap().column(3).unwrap();
    let store = DiskColumnStore::open_bytes(image(&ix), cache(true)).unwrap();
    let dc = store.column("common", 3).unwrap();
    assert!(dc.block_count() > 1, "the column must span blocks");
    let mut cursor = RunCursor::new(dc.feed(true, usize::MAX));
    let (first, rest) = col.runs.split_first().unwrap();
    assert_eq!(cursor.seek(first.value).unwrap(), Some(*first));
    // Another column's block takes the cache's one slot.
    let evictions = store.cache_stats().evictions;
    store.column("common", 2).unwrap().scan().unwrap();
    assert!(store.cache_stats().evictions > evictions, "nothing was evicted");
    // The cursor reads on in the evicted block, without a decode,
    // until a lookup leaves it.
    let decodes = store.reads();
    let mut in_block = 0;
    for run in rest {
        assert_eq!(cursor.seek(run.value).unwrap(), Some(*run));
        assert_eq!(cursor.seek(run.value).unwrap(), Some(*run), "a repeat");
        if store.reads() > decodes {
            break;
        }
        in_block += 1;
    }
    assert!(in_block > 0, "the first block holds one run only");
}

/// 40 000 papers: `common` in each, `early` in the first tenth only, so a
/// step probing `common` with `early`'s values is done a tenth of the way
/// into the column — and has too many probes for the retired per-step
/// cost rule to have called it an index join.
fn clustered_corpus() -> XmlIndex {
    let mut xml = String::from("<r>");
    for i in 0..40_000 {
        let early = if i < 4_000 { " early" } else { "" };
        xml.push_str(&format!("<p><t>common x{}{early}</t></p>", i % 50));
    }
    xml.push_str("</r>");
    XmlIndex::build(xtk_xml::parse(&xml).unwrap())
}

#[test]
fn block_skip_is_the_one_skip_rule_on_every_format() {
    let ix = clustered_corpus();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    // Per query: `(decodes, misses, evictions)` through a one-block cache
    // under `block_skip` on and off — the counts of the per-step
    // strategies this rule replaced, which decoded the same blocks.
    type Io = (u64, u64, u64);
    let queries: [(&[&str], [Io; 2]); 3] = [
        (&["x7", "common"], [(8, 8, 7), (8, 8, 7)]),
        (&["early", "common"], [(6, 6, 5), (8, 8, 7)]),
        (&["x7", "early", "common"], [(9, 9, 8), (11, 11, 10)]),
    ];
    for (words, pinned) in queries {
        let query = Query::from_words(&ix, words).unwrap();
        let (want, _) = join_search(&ix, &query, &opts);
        assert!(!want.is_empty(), "{words:?}");
        let bytes = image(&ix);
        let io = [true, false].map(|block_skip| {
            let store = DiskColumnStore::open_bytes(bytes.clone(), cache(true)).unwrap();
            let spec = DiskJoinSpec { join: opts, block_skip, prescan: false };
            let (got, _, decodes) =
                join_search_disk_spec(&ix, &store, &query, &spec, &Obs::default()).unwrap();
            assert_eq!(bits(&want), bits(&got), "{words:?} skip={block_skip}");
            let cache = store.cache_stats();
            (decodes, cache.misses, cache.evictions)
        });
        let [skip, scan] = io;
        assert!(skip.0 <= scan.0, "{words:?}: skipping decoded more, {io:?}");
        if words == ["early", "common"] {
            // A step stops at the first block above its last probe.
            assert!(skip.0 < scan.0, "{io:?}");
        }
        assert_eq!(io, pinned, "{words:?}");
    }
}

fn wide_corpus() -> XmlIndex {
    let mut xml = String::from("<r>");
    for i in 0..700 {
        xml.push_str(&format!(
            "<conf><p><t>common topic{}</t></p><p>rare{} common</p></conf>",
            i % 7,
            i % 91
        ));
    }
    xml.push_str("</r>");
    XmlIndex::build(xtk_xml::parse(&xml).unwrap())
}

/// `bytes` with an 8-byte window at `at` overwritten by varint
/// continuation bytes: what a block looks like when its valid bytes stop
/// mid-payload.  (Cutting the image itself short cannot open: the
/// directory pass bounds-checks every payload extent.)
fn torn(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for b in out.iter_mut().skip(at).take(8) {
        *b = 0xFF;
    }
    out
}

#[test]
fn torn_block_makes_the_driver_err_on_disk_never_panic() {
    let ix = wide_corpus();
    // One keyword, no block skipping: the driver scans every block of
    // every level of "common", so a torn block there cannot be missed.
    let query = Query::from_words(&ix, &["common"]).unwrap();
    let two = Query::from_words(&ix, &["common", "rare17"]).unwrap();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let bytes = image(&ix);
    let (mut opened, mut errs) = (0u32, 0u32);
    for at in (64..bytes.len() - 8).step_by(13) {
        let Ok(store) = DiskColumnStore::open_bytes(torn(bytes.as_slice(), at).into(), cache(false))
        else {
            continue; // the tear hit the directory: refused at open
        };
        opened += 1;
        let scans_fail = (1..=store.levels_of("common"))
            .any(|l| store.column("common", l).is_none_or(|c| c.scan().is_err()));
        let spec = DiskJoinSpec { join: opts, block_skip: false, prescan: false };
        let r = join_search_disk_spec(&ix, &store, &query, &spec, &Obs::default());
        if scans_fail {
            assert!(r.is_err(), "tear at {at}: a failing scan must surface");
            errs += 1;
        }
        // The probing pipeline over the same damage: any outcome but a panic.
        let spec = DiskJoinSpec { join: opts, block_skip: true, prescan: false };
        let _ = join_search_disk_spec(&ix, &store, &two, &spec, &Obs::default());
    }
    assert!(opened > 0 && errs > 0, "{opened} stores opened, {errs} erred");
}

#[test]
fn torn_block_makes_the_sharded_engine_err_never_panic() {
    let ix = wide_corpus();
    let query = Query::from_words(&ix, &["common"]).unwrap();
    let req = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased);
    let dir = TempPath::new("xtk_source_conformance_torn");
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_sharded_with(&ix, &dir, 2, opts).unwrap();
    let store_path = dir.join(STORE_FILE);
    let pristine = std::fs::read(&store_path).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).unwrap().execute(&query, &req).is_ok());
    let mut errs = 0u32;
    for at in (64..pristine.len() - 8).step_by(211) {
        std::fs::write(&store_path, torn(&pristine, at)).unwrap();
        // Refused at open, refused at execute, or a tear the decoder
        // cannot tell from data — never a panic.
        if ShardedEngine::open(&ix, &dir).and_then(|e| e.execute(&query, &req)).is_err() {
            errs += 1;
        }
    }
    assert!(errs > 0, "no tear surfaced as Err");
}

/// `confs` conferences over one vocabulary; each of the first `heavy`
/// carries three extra `common` occurrences.
fn skewed_corpus(confs: usize, heavy: usize) -> XmlIndex {
    let mut xml = String::from("<r>");
    for i in 0..confs {
        xml.push_str(&format!(
            "<conf><p><t>common topic{}</t></p><p>rare{} common</p>",
            i % 7,
            i % 13
        ));
        if i < heavy {
            xml.push_str("<p>common</p><p>common</p><p>common</p>");
        }
        xml.push_str("</conf>");
    }
    xml.push_str("</r>");
    XmlIndex::build(xtk_xml::parse(&xml).unwrap())
}

#[test]
fn store_of_a_larger_corpus_makes_the_scored_join_err_never_panic() {
    // Same vocabulary and levels, longer lists: the store's covers reach
    // rows the index has no posting or score for.
    let (small, large) = (skewed_corpus(60, 0), skewed_corpus(60, 60));
    let query = Query::from_words(&small, &["common", "rare5"]).unwrap();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let store = DiskColumnStore::open_bytes(image(&large), cache(false)).unwrap();
    for block_skip in [true, false] {
        let spec = DiskJoinSpec { join: opts, block_skip, prescan: false };
        let r = join_search_disk_spec(&small, &store, &query, &spec, &Obs::default());
        let err = r.expect_err("rows past the posting list must surface");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "skip={block_skip}");
    }

    // Sharded: the small corpus's directory holding the large corpus's
    // store (equal vocabulary and levels, longer lists).
    let query = Query::from_words(&small, &["common", "rare5"]).unwrap();
    let req = QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased);
    let dir = TempPath::new("xtk_source_conformance_swapped");
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_sharded_with(&small, &dir, 2, opts).unwrap();
    assert!(ShardedEngine::open(&small, &dir).unwrap().execute(&query, &req).is_ok());
    std::fs::write(dir.join(STORE_FILE), image(&large).as_slice()).unwrap();
    let swapped = ShardedEngine::open(&small, &dir).and_then(|e| e.execute(&query, &req));
    assert!(swapped.is_err(), "ranges reading another corpus's store must surface");
}
