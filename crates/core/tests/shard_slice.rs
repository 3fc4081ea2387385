//! A shard is a row window of the corpus store.  On random corpora (one
//! of them numbered with a JDewey gap), at 2, 4 and 8 shards, the store
//! `write_sharded` writes is the corpus store byte for byte, and for every
//! term, every level from 2 down and every range, the windowed source
//! reads the column run for run as the memory column's runs in the
//! range's rows, with the range's present rows as its size.  A block a
//! range edge falls inside decodes once for both ranges.  The sharded
//! engine over the store answers as the unsharded join.

use std::fs;
use std::ops::Range;
use xtk_core::diskexec::{DiskJoinSpec, DiskSource};
use xtk_core::joinbased::{join_search, ColumnSource, JoinOptions, KeywordRows};
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, ShardedEngine, MANIFEST_FILE, STORE_FILE};
use xtk_core::{Executor, Query, QueryRequest, Semantics};
use xtk_index::columnar::Feed;
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::diskcol::{DiskColumnStore, IoSession};
use xtk_index::{IndexOptions, Run, XmlIndex};
use xtk_xml::testutil::{prop_check, Gen, TempPath};
use xtk_xml::{NodeId, XmlTree};

const WORDS: [&str; 8] = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"];

/// Appends a random subtree under `parent` in pre-order (arena ids are
/// document order), with words drawn from a skewed vocabulary.
fn grow(tree: &mut XmlTree, parent: NodeId, depth: u32, g: &mut Gen) {
    let node = tree.add_child(parent, "n");
    for _ in 0..g.gen_range(0..3usize) {
        let w = WORDS[g.gen_range(0..WORDS.len()).min(g.gen_range(0..WORDS.len()))];
        tree.append_text(node, w);
    }
    if depth > 0 {
        for _ in 0..g.gen_range(0..4usize) {
            grow(tree, node, depth - 1, g);
        }
    }
}

fn random_corpus(g: &mut Gen, jdewey_gap: u32) -> XmlIndex {
    let mut tree = XmlTree::new();
    let root = tree.add_root("bib");
    if g.gen_bool(0.3) {
        tree.append_text(root, "alpha");
    }
    for _ in 0..g.gen_range(1..12usize) {
        grow(&mut tree, root, g.gen_range(0..5u32), g);
    }
    XmlIndex::build_with(tree, IndexOptions { jdewey_gap, ..Default::default() })
}

/// The node range of each shard's documents, from the manifest.
fn shard_nodes(ix: &XmlIndex, dir: &TempPath) -> Vec<Range<u32>> {
    let docs = ix.tree().children(ix.tree().root());
    let end = ix.tree().len() as u32;
    let root = |d: usize| docs.get(d).map_or(end, |n| n.0);
    let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let ranges = text.lines().filter_map(|l| l.strip_prefix("range "));
    ranges
        .map(|e| {
            let f: Vec<usize> = e.split_whitespace().map(|t| t.parse().unwrap()).collect();
            root(f[1])..root(f[2])
        })
        .collect()
}

/// Every run `source` lends for keyword 0 at the current level.
fn lent<'a>(source: &DiskSource<'a>) -> Vec<Run> {
    let (mut runs, mut feed) = (Vec::new(), source.feed(0, false).unwrap());
    while let Some(stretch) = feed.land(0).unwrap() {
        runs.extend_from_slice(stretch.as_ref());
    }
    runs
}

/// Every term of `ix` through a source windowed to the documents `nodes`:
/// at every level from 2 down to the term's deepest, the source's size is
/// the range's present rows and its feed the memory column's runs in the
/// range's rows.
fn check_range(ix: &XmlIndex, store: &DiskColumnStore, nodes: &Range<u32>) {
    let spec = DiskJoinSpec { join: JoinOptions::default(), block_skip: false, prescan: false };
    let slice = ix.slice(NodeId(nodes.start)..NodeId(nodes.end));
    for (id, t) in ix.terms() {
        let inside: Vec<usize> =
            (0..t.len()).filter(|&r| nodes.contains(&t.postings()[r].0)).collect();
        let Some((&lo, &last)) = inside.first().zip(inside.last()) else { continue };
        let rows = lo as u32..last as u32 + 1;
        assert_eq!(rows.len(), inside.len(), "{}: the range's rows are contiguous", t.name());
        let session = IoSession::default();
        let keyword = KeywordRows::of(t);
        let terms = vec![(Some(id.0 as usize), keyword)];
        let mut src = DiskSource::over(store, terms, Some(&slice), &spec, &session);
        assert_eq!(src.floor(), 2, "a range never enters level 1");
        for level in 2..=t.max_len() {
            let what = format!("{} level {level} nodes {nodes:?}", t.name());
            src.enter(level).unwrap();
            let deep = |&&r: &&usize| ix.tree().depth(t.postings()[r]) >= level;
            let present = inside.iter().filter(deep).count();
            assert_eq!(src.size(0), present, "{what}: size");
            let want = t.column(level).unwrap().runs_in_rows(rows.start, rows.end);
            assert_eq!(lent(&src), want, "{what}");
        }
    }
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// Every topology of `ix` at 2, 4 and 8 shards: the store is the corpus
/// store, each range's windows are its rows of the corpus columns, and
/// the engine answers a two-keyword query as the unsharded join does,
/// less its level-1 results; returns how many results that is.
fn check_corpus(ix: &XmlIndex, tag: &str) -> usize {
    let words: Vec<&str> =
        WORDS.iter().copied().filter(|w| ix.term_id(w).is_some()).take(2).collect();
    let query = Query::from_words(ix, &words).unwrap();
    let opts = JoinOptions { semantics: Semantics::Elca, with_scores: true, ..Default::default() };
    let mut want = join_search(ix, &query, &opts).0;
    want.retain(|r| r.level > 1);
    sort_ranked(&mut want);
    let mut image = Vec::new();
    write_index_to(ix, &mut image, WriteIndexOptions { include_scores: true, ..Default::default() })
        .unwrap();
    for shards in [2, 4, 8] {
        let dir = TempPath::new(&format!("xtk_shard_slice_{tag}_{shards}"));
        write_sharded(ix, &dir, shards).unwrap();
        assert!(fs::read(dir.join(STORE_FILE)).unwrap() == image, "the store is the corpus store");
        let store = DiskColumnStore::open(&dir.join(STORE_FILE)).unwrap();
        for nodes in shard_nodes(ix, &dir) {
            check_range(ix, &store, &nodes);
        }
        let engine = ShardedEngine::open(ix, &dir).unwrap();
        let resp = engine.execute(&query, &QueryRequest::complete(Semantics::Elca)).unwrap();
        assert_eq!(bits(&resp.results), bits(&want), "{shards} shards");
    }
    want.len()
}

#[test]
fn every_range_window_reads_as_the_corpus_column_in_its_rows() {
    let results = std::cell::Cell::new(0);
    prop_check(0x5A1CE, 10, |g| {
        let gap = if g.gen_bool(0.5) { 0 } else { g.gen_range(1..4u32) };
        results.set(results.get() + check_corpus(&random_corpus(g, gap), "random"));
    });
    assert!(results.get() > 10, "the corpora answer the query below the root");
}

#[test]
fn a_gapped_numbering_slices_as_a_dense_one() {
    let mut results = 0;
    for seed in 0..6 {
        let ix = random_corpus(&mut Gen::new(0x6A9 + seed, 60), 1 + seed as u32 % 3);
        assert!(ix.jd().gap() > 0);
        results += check_corpus(&ix, &format!("gapped{seed}"));
    }
    assert!(results > 0, "the gapped corpora answer the query below the root");
}

#[test]
fn a_block_two_ranges_share_decodes_once() {
    // 6 000 documents holding `w` once or twice, 600 empty ones after
    // every 64th to spread the level-2 numbers: `w`'s level-2 column
    // spans several blocks, and the edge between two ranges falls inside
    // one.
    let mut xml = String::from("<bib>");
    for i in 0..6000u32 {
        xml.push_str(if i % 3 == 0 { "<c><d>w</d></c>" } else { "<c><d>w</d><d>w</d></c>" });
        if i % 64 == 0 {
            xml.push_str(&"<x/>".repeat(600));
        }
    }
    xml.push_str("</bib>");
    let ix = XmlIndex::build(xtk_xml::parse(&xml).unwrap());
    let dir = TempPath::new("xtk_shard_slice_shared_block");
    write_sharded(&ix, &dir, 2).unwrap();
    let store = DiskColumnStore::open(&dir.join(STORE_FILE)).unwrap();
    let ranges = shard_nodes(&ix, &dir);
    let w = ix.term_by_str("w").unwrap();
    let column = store.column("w", 2).unwrap();
    assert!(column.block_count() > 1, "the column spans several blocks");
    let windows: Vec<_> = ranges
        .iter()
        .map(|nodes| {
            let rows = ix.slice(NodeId(nodes.start)..NodeId(nodes.end)).rows(w.postings());
            column.window(rows)
        })
        .collect();
    let blocks: usize = windows.iter().map(|c| c.block_count()).sum();
    assert_eq!(blocks, column.block_count() + 1, "the range edge falls inside a block");
    let runs: Vec<Run> = windows.iter().flat_map(|c| c.scan().unwrap()).collect();
    assert_eq!(runs, w.column(2).unwrap().runs, "the windows split the column");
    let io = store.io_stats();
    assert_eq!(io.decodes, column.block_count() as u64, "every block decodes once");
    assert_eq!(io.hits, 1, "the second range finds the shared block cached");
}
