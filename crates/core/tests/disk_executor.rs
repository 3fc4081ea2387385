//! The on-disk `ColumnSource` through the `join_search_disk*` wrappers:
//! memory ≡ disk on results, the I/O counters move the way the access-path
//! spec says, and nothing here touches the filesystem — stores open over
//! in-memory images written by `write_index_to`.

use std::sync::Arc;
use xtk_core::diskexec::{join_search_disk, join_search_disk_spec, DiskJoinSpec};
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{ElcaVariant, Query, Semantics};
use xtk_index::bytes::ColumnBytes;
use xtk_index::cache::ShardedLruCache;
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_obs::Obs;
use xtk_xml::parse;

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

/// The index plus its (shareable) store image.
fn setup(xml: &str) -> (XmlIndex, ColumnBytes) {
    let ix = XmlIndex::build(parse(xml).unwrap());
    let mut image = Vec::new();
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_index_to(&ix, &mut image, opts).unwrap();
    (ix, ColumnBytes::from(Arc::<[u8]>::from(image)))
}

/// A fresh store (cold, private unbounded cache) over the image.
fn open(image: &ColumnBytes) -> DiskColumnStore {
    DiskColumnStore::open_bytes(image.clone(), Arc::new(ShardedLruCache::unbounded())).unwrap()
}

#[test]
fn disk_execution_matches_in_memory() {
    let (ix, image) = setup(&corpus(300));
    let store = open(&image);
    for words in
        [vec!["common", "rare0"], vec!["common", "topic3"], vec!["topic1", "rare5", "common"]]
    {
        let q = Query::from_words(&ix, &words).unwrap();
        for semantics in [Semantics::Elca, Semantics::Slca] {
            for variant in [ElcaVariant::Operational, ElcaVariant::Formal] {
                let opts = JoinOptions { semantics, variant, with_scores: true };
                let (mem, mem_stats) = join_search(&ix, &q, &opts);
                let (disk, disk_stats, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
                let what = format!("{words:?} {semantics:?} {variant:?}");
                assert_eq!(mem.len(), disk.len(), "{what}");
                // One driver: the emission order is the same, not just the set.
                for (a, b) in mem.iter().zip(&disk) {
                    assert_eq!((a.node, a.level), (b.node, b.level), "{what}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}");
                }
                assert_eq!(mem_stats.levels, disk_stats.levels, "{what}");
                assert_eq!(mem_stats.matches, disk_stats.matches, "{what}");
                assert_eq!(mem_stats.results, disk_stats.results, "{what}");
            }
        }
    }
}

#[test]
fn selective_query_touches_few_blocks() {
    // A long list ("common": many blocks at leaf level) probed by a short
    // one: the cold run decodes, a repeat run on the warm cache is free.
    let (ix, image) = setup(&corpus(800));
    let store = open(&image);
    let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
    let opts = JoinOptions::default();
    let (_, _, reads1) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    assert!(reads1 > 0, "cold run must hit the disk");
    let (_, _, reads2) = join_search_disk(&ix, &store, &q, &opts).unwrap();
    assert_eq!(reads2, 0, "hot-cache run decodes nothing");
}

#[test]
fn access_path_spec_never_changes_results() {
    let (ix, image) = setup(&corpus(400));
    let store = open(&image);
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    for words in [vec!["common", "rare17"], vec!["common", "topic3", "rare5"]] {
        let q = Query::from_words(&ix, &words).unwrap();
        let (base, _, _) = join_search_disk(&ix, &store, &q, &opts).unwrap();
        for (block_skip, prescan) in [(true, false), (false, false), (true, true), (false, true)] {
            let spec = DiskJoinSpec { join: opts, block_skip, prescan };
            let (rs, _, _) =
                join_search_disk_spec(&ix, &store, &q, &spec, &Obs::default()).unwrap();
            assert_eq!(base.len(), rs.len(), "{words:?} {block_skip} {prescan}");
            for (a, b) in base.iter().zip(&rs) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
}

#[test]
fn prescan_decodes_strictly_more_blocks() {
    let (ix, image) = setup(&corpus(600));
    let q = Query::from_words(&ix, &["common", "rare17"]).unwrap();
    let opts = JoinOptions::default();
    // Fresh stores per run: a shared block cache would otherwise absorb
    // the second run's decodes.
    let lean_spec = DiskJoinSpec { join: opts, block_skip: true, prescan: false };
    let (_, _, lean) =
        join_search_disk_spec(&ix, &open(&image), &q, &lean_spec, &Obs::default()).unwrap();
    let fat_spec = DiskJoinSpec { join: opts, block_skip: false, prescan: true };
    let (_, _, fat) =
        join_search_disk_spec(&ix, &open(&image), &q, &fat_spec, &Obs::default()).unwrap();
    assert!(lean < fat, "optimized pipeline must decode fewer blocks ({lean} vs {fat})");
}

#[test]
fn stats_reflect_plan_choices() {
    let (ix, image) = setup(&corpus(500));
    let q = Query::from_words(&ix, &["common", "rare3"]).unwrap();
    let (_, stats, _) = join_search_disk(&ix, &open(&image), &q, &JoinOptions::default()).unwrap();
    assert!(stats.levels >= 1);
    assert_eq!(stats.steps, stats.levels, "two keywords: one step a level");
}
