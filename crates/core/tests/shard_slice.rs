//! A shard's store is its slice of the corpus index.  On random corpora
//! (one of them numbered with a JDewey gap), at 1 to 7 shards and at more
//! shards than documents, every column of every shard store decodes to the
//! corpus column clipped to the shard's rows — rows counted from the
//! shard's first, values less the level's base — its lengths array and
//! score bits are the corpus slice's, and its vocabulary is exactly the
//! corpus terms with a posting in the shard, in corpus vocabulary order.
//! The sharded engine over such a store answers as the unsharded join.

use std::fs;
use std::ops::Range;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{shard_dir_name, write_sharded, ShardedEngine, MANIFEST_FILE, STORE_FILE};
use xtk_core::{Executor, Query, QueryRequest, Semantics};
use xtk_index::codec::try_read_varint;
use xtk_index::diskcol::DiskColumnStore;
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

fn varint(bytes: &[u8], pos: &mut usize) -> u32 {
    try_read_varint(bytes, pos).expect("a varint")
}

/// One term record of a store file: its name, lengths array and score
/// bits.  The column records are skipped; the store decodes them.
struct Record {
    name: String,
    depths: Vec<u16>,
    score_bits: Vec<u32>,
}

fn records(bytes: &[u8]) -> Vec<Record> {
    let mut pos = 0;
    varint(bytes, &mut pos); // magic
    let terms = varint(bytes, &mut pos);
    assert_eq!(bytes[pos], 1, "shards are written with scores");
    pos += 1;
    let mut out = Vec::new();
    for _ in 0..terms {
        let len = varint(bytes, &mut pos) as usize;
        let name = String::from_utf8(bytes[pos..pos + len].to_vec()).unwrap();
        pos += len;
        let rows = varint(bytes, &mut pos) as usize;
        let depths = (0..rows).map(|_| varint(bytes, &mut pos) as u16).collect();
        let score_bits = bytes[pos..pos + 4 * rows]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        pos += 4 * rows;
        for _ in 0..varint(bytes, &mut pos) {
            pos += 1; // scheme
            let blocks = varint(bytes, &mut pos);
            for _ in 0..4 * blocks {
                varint(bytes, &mut pos);
            }
            pos += varint(bytes, &mut pos) as usize;
        }
        out.push(Record { name, depths, score_bits });
    }
    assert_eq!(pos, bytes.len(), "the records fill the file");
    out
}

/// The documents of each shard, from the manifest.
fn shard_docs(dir: &TempPath) -> Vec<Range<usize>> {
    let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let entries = text.lines().filter_map(|l| l.strip_prefix("shard "));
    entries
        .map(|e| {
            let f: Vec<usize> = e.split_whitespace().map(|t| t.parse().unwrap()).collect();
            f[1]..f[2]
        })
        .collect()
}

/// The corpus column of `level`, clipped to `rows` and renumbered — the
/// column an index over the shard's documents alone holds.
fn clipped(runs: &[Run], rows: &Range<u32>, base: u32) -> Vec<Run> {
    let inside = runs.iter().filter(|r| r.start < rows.end && r.end() > rows.start);
    inside
        .map(|r| {
            let start = r.start.max(rows.start);
            let end = r.end().min(rows.end);
            Run { value: r.value - base, start: start - rows.start, len: end - start }
        })
        .collect()
}

fn check_shard(ix: &XmlIndex, nodes: Range<u32>, path: &std::path::Path) {
    let tree = ix.tree();
    // A level's base: the number of the shard's first node at that level,
    // less one; the range holds no root, so level 1 keeps its numbers.
    let base = |level: u16| {
        let first = nodes.clone().map(NodeId).find(|&n| tree.depth(n) == level);
        first.map_or(0, |n| ix.jd().number(n) - 1)
    };
    let bytes = fs::read(path).unwrap();
    let store = DiskColumnStore::open(path).unwrap();
    let held: Vec<_> = ix
        .terms()
        .map(|(_, t)| t)
        .filter(|t| t.postings().iter().any(|n| nodes.contains(&n.0)))
        .collect();
    let recs = records(&bytes);
    assert_eq!(store.term_names().len(), held.len(), "the store's vocabulary is the slice's");
    assert_eq!(recs.len(), held.len());
    for (t, rec) in held.iter().zip(&recs) {
        assert_eq!(rec.name, t.name(), "records follow the corpus vocabulary");
        let rows: Vec<usize> =
            (0..t.len()).filter(|&r| nodes.contains(&t.postings()[r].0)).collect();
        let rows = rows[0] as u32..*rows.last().unwrap() as u32 + 1;
        assert_eq!(rows.len(), rec.depths.len(), "{}: the slice's rows are contiguous", t.name());
        let slice = rows.start as usize..rows.end as usize;
        let depths: Vec<u16> = t.postings()[slice.clone()].iter().map(|&n| tree.depth(n)).collect();
        assert_eq!(rec.depths, depths, "{}", t.name());
        let bits: Vec<u32> = t.scores()[slice].iter().map(|s| s.to_bits()).collect();
        assert_eq!(rec.score_bits, bits, "{}", t.name());
        let levels = depths.iter().copied().max().unwrap();
        assert_eq!(store.levels_of(t.name()), levels, "{}", t.name());
        for level in 1..=levels {
            let want = clipped(t.column(level).unwrap().runs, &rows, base(level));
            let got = store.column(t.name(), level).unwrap().scan().unwrap();
            assert_eq!(got, want, "{} level {level}", t.name());
        }
    }
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// Every topology of `ix`: each shard store is the corpus slice, and the
/// engine over them answers a two-keyword query as the unsharded join
/// does, less its level-1 results; returns how many results that is.
fn check_corpus(ix: &XmlIndex, tag: &str) -> usize {
    let docs = ix.tree().children(ix.tree().root()).to_vec();
    let words: Vec<&str> =
        WORDS.iter().copied().filter(|w| ix.term_id(w).is_some()).take(2).collect();
    let query = Query::from_words(ix, &words).unwrap();
    let opts = JoinOptions { semantics: Semantics::Elca, with_scores: true, ..Default::default() };
    let mut want = join_search(ix, &query, &opts).0;
    want.retain(|r| r.level > 1);
    sort_ranked(&mut want);
    for shards in (1..=7).chain([docs.len() + 3]) {
        let dir = TempPath::new(&format!("xtk_shard_slice_{tag}_{shards}"));
        let written = write_sharded(ix, &dir, shards).unwrap();
        assert_eq!(written, shards.min(docs.len()));
        let end = ix.tree().len() as u32;
        for (id, part) in shard_docs(&dir).iter().enumerate() {
            let root = |d: usize| docs.get(d).map_or(end, |n| n.0);
            let path = dir.join(shard_dir_name(id as u32)).join(STORE_FILE);
            check_shard(ix, root(part.start)..root(part.end), &path);
        }
        let engine = ShardedEngine::open(ix, &dir).unwrap();
        let resp = engine.execute(&query, &QueryRequest::complete(Semantics::Elca)).unwrap();
        assert_eq!(bits(&resp.results), bits(&want), "{shards} shards");
    }
    want.len()
}

#[test]
fn shard_stores_are_the_corpus_sliced() {
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
