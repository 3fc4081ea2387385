//! Robustness of the sharded-corpus open/query path: a missing,
//! truncated, or version-mismatched shard directory (a v1 one over a
//! gapped corpus included), or a shard store
//! that is not its slice of the corpus (another shard's, or one with a
//! term's rows cut), must surface as `Err` — never a panic — and the same
//! holds under randomized byte corruption of the manifest and the shard
//! stores (extending the persisted-index corruption prop-test one layer
//! up).

use std::fs;
use std::path::Path;
use xtk_core::shard::{
    shard_dir_name, write_sharded, ShardedEngine, MANIFEST_FILE, MANIFEST_HEADER, STORE_FILE,
};
use xtk_core::{Executor, Query, QueryRequest, Semantics};
use xtk_index::{IndexOptions, XmlIndex};
use xtk_xml::parse;
use xtk_xml::testutil::{prop_check, TempPath};

const DOC: &str = "<bib><conf><paper><title>xml keyword search</title></paper>\
                   <paper><title>top k join</title></paper></conf>\
                   <conf><paper><title>xml top k</title></paper></conf>\
                   <conf><paper><title>keyword ranking</title></paper></conf></bib>";

fn scratch(tag: &str) -> TempPath {
    TempPath::new(&format!("xtk_shard_corrupt_{tag}"))
}

fn corpus() -> XmlIndex {
    XmlIndex::build(parse(DOC).unwrap())
}

fn written(tag: &str, ix: &XmlIndex, shards: usize) -> TempPath {
    let dir = scratch(tag);
    write_sharded(ix, &dir, shards).expect("write sharded corpus");
    dir
}

/// Open must fail cleanly; on the off chance a mutation keeps the layout
/// well-formed, querying through it must still never panic.
fn open_never_panics(ix: &XmlIndex, dir: &Path) {
    if let Ok(engine) = ShardedEngine::open(ix, dir) {
        let q = Query::from_words(ix, &["xml", "top"]).expect("vocab");
        let _ = engine.execute(&q, &QueryRequest::top_k(2, Semantics::Elca));
    }
}

#[test]
fn missing_directory_and_missing_manifest_err() {
    let ix = corpus();
    assert!(ShardedEngine::open(&ix, &scratch("nowhere")).is_err());
    let dir = scratch("empty");
    fs::create_dir_all(&dir).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err(), "no manifest");
}

#[test]
fn missing_and_truncated_shard_stores_err() {
    let ix = corpus();
    // Missing shard directory.
    let dir = written("missing_shard", &ix, 3);
    fs::remove_dir_all(dir.join(shard_dir_name(1))).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err());
    // Truncated store file: every prefix length must fail cleanly.
    let dir = written("truncated", &ix, 2);
    let store = dir.join(shard_dir_name(1)).join(STORE_FILE);
    let bytes = fs::read(&store).unwrap();
    for cut in [0, 1, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        fs::write(&store, &bytes[..cut]).unwrap();
        let r = ShardedEngine::open(&ix, &dir);
        assert!(r.is_err(), "truncated store at {cut} bytes must not open");
    }
}

#[test]
fn version_mismatched_manifest_errs() {
    let ix = corpus();
    let dir = written("version", &ix, 2);
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(&manifest, text.replacen(MANIFEST_HEADER, "xtk-shard-manifest v9", 1)).unwrap();
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A v1 directory numbered each shard densely: it still opens, and
/// answers alike, over a corpus without a JDewey gap, where that is the
/// corpus numbering less the base; over a gapped corpus it is refused,
/// never misread.
#[test]
fn a_v1_manifest_opens_over_a_dense_corpus_only() {
    let as_v1 = |dir: &Path| {
        let manifest = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, text.replacen(MANIFEST_HEADER, "xtk-shard-manifest v1", 1)).unwrap();
    };
    let ix = corpus();
    let dir = written("v1_dense", &ix, 2);
    let q = Query::from_words(&ix, &["xml", "top"]).expect("vocab");
    let req = QueryRequest::top_k(3, Semantics::Elca);
    let want = ShardedEngine::open(&ix, &dir).unwrap().execute(&q, &req).unwrap();
    as_v1(&dir);
    let got = ShardedEngine::open(&ix, &dir).expect("a dense v1 directory opens");
    assert_eq!(got.execute(&q, &req).unwrap().results, want.results);

    let gapped = XmlIndex::build_with(
        parse(DOC).unwrap(),
        IndexOptions { jdewey_gap: 2, ..Default::default() },
    );
    let dir = written("v1_gapped", &gapped, 2);
    as_v1(&dir);
    let err = ShardedEngine::open(&gapped, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn manifest_corpus_mismatch_errs() {
    let ix = corpus();
    let dir = written("mismatch", &ix, 2);
    // A different corpus must not open someone else's shard directory.
    let other = XmlIndex::build(
        parse("<bib><conf><paper><title>entirely other corpus</title></paper></conf></bib>")
            .unwrap(),
    );
    let err = ShardedEngine::open(&other, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // A manifest claiming a different topology than its own writer's
    // partition is rejected too.
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(&manifest, text.replacen("shard 0 0 2", "shard 0 0 3", 1)).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err());
}

#[test]
fn swapped_shard_stores_err() {
    // Two shards with as many terms each: only the terms tell them apart.
    let ix = XmlIndex::build(
        parse("<bib><conf><paper>xml keyword</paper></conf><conf><paper>top k</paper></conf></bib>")
            .unwrap(),
    );
    let dir = written("swapped", &ix, 2);
    let (a, b) = (dir.join(shard_dir_name(0)), dir.join(shard_dir_name(1)));
    fs::rename(a.join(STORE_FILE), dir.join(STORE_FILE)).unwrap();
    fs::rename(b.join(STORE_FILE), a.join(STORE_FILE)).unwrap();
    fs::rename(dir.join(STORE_FILE), b.join(STORE_FILE)).unwrap();
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("does not match its slice"), "{err}");
    open_never_panics(&ix, &dir);
}

#[test]
fn a_store_with_a_term_cut_short_errs() {
    // The same documents with one `xml` fewer in the first shard: every
    // term, level and node count still agrees, `xml`'s rows do not.
    let ix = corpus();
    let dir = written("cut", &ix, 2);
    let cut = XmlIndex::build(parse(&DOC.replacen("xml top k", "top k", 1)).unwrap());
    assert_eq!(cut.tree().len(), ix.tree().len());
    let other = written("cut_source", &cut, 2);
    let store = |d: &Path| d.join(shard_dir_name(0)).join(STORE_FILE);
    fs::copy(store(&other), store(&dir)).unwrap();
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("does not match its slice"), "{err}");
    open_never_panics(&ix, &dir);
}

#[test]
fn prop_manifest_byte_flips_never_panic() {
    let ix = corpus();
    let dir = written("prop_manifest", &ix, 2);
    let manifest = dir.join(MANIFEST_FILE);
    let pristine = fs::read(&manifest).unwrap();
    prop_check(0xC0_0001, 64, |g| {
        let mut bytes = pristine.clone();
        for _ in 0..g.gen_range(1..4u32) {
            let at = g.gen_range(0..bytes.len());
            bytes[at] ^= 1 << g.gen_range(0..8u32);
        }
        fs::write(&manifest, &bytes).unwrap();
        open_never_panics(&ix, &dir);
    });
    fs::write(&manifest, &pristine).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_ok(), "pristine manifest restored");
}

#[test]
fn prop_store_byte_flips_never_panic() {
    let ix = corpus();
    let dir = written("prop_store", &ix, 2);
    let store = dir.join(shard_dir_name(0)).join(STORE_FILE);
    let pristine = fs::read(&store).unwrap();
    prop_check(0xC0_0002, 48, |g| {
        let mut bytes = pristine.clone();
        let at = g.gen_range(0..bytes.len());
        bytes[at] ^= 1 << g.gen_range(0..8u32);
        fs::write(&store, &bytes).unwrap();
        open_never_panics(&ix, &dir);
    });
    fs::write(&store, &pristine).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_ok(), "pristine store restored");
}
