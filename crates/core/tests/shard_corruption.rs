//! Robustness of the sharded-corpus open/query path: a missing,
//! truncated, or version-mismatched directory (the one-store-per-shard
//! v1 and v2 layouts included), a range line that is not the corpus's
//! partition, or a store that is not the corpus index's (another
//! corpus's, or one with a term's rows cut), must surface as `Err` —
//! never a panic — and the same holds under randomized byte corruption of
//! the manifest and the store (extending the persisted-index corruption
//! prop-test one layer up).

use std::fs;
use std::path::Path;
use xtk_core::shard::{write_sharded, ShardedEngine, MANIFEST_FILE, MANIFEST_HEADER, STORE_FILE};
use xtk_core::{Executor, Query, QueryRequest, Semantics};
use xtk_index::XmlIndex;
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

fn rewrite_manifest(dir: &Path, from: &str, to: &str) {
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    assert!(text.contains(from), "{text}");
    fs::write(&manifest, text.replacen(from, to, 1)).unwrap();
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
    // Missing store.
    let dir = written("missing_store", &ix, 3);
    fs::remove_file(dir.join(STORE_FILE)).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err());
    // Truncated store file: every prefix length must fail cleanly.
    let dir = written("truncated", &ix, 2);
    let store = dir.join(STORE_FILE);
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
    rewrite_manifest(&dir, MANIFEST_HEADER, "xtk-shard-manifest v9");
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// The v1 and v2 layouts wrote one store per shard: a directory headed by
/// either is refused by name, with the way out, never misread.
#[test]
fn v1_and_v2_manifests_are_refused_by_name() {
    let ix = corpus();
    for version in ["v1", "v2"] {
        let dir = written(&format!("old_{version}"), &ix, 2);
        rewrite_manifest(&dir, MANIFEST_HEADER, &format!("xtk-shard-manifest {version}"));
        let err = ShardedEngine::open(&ix, &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(version), "{msg}");
        assert!(msg.contains("rewrite the directory with write_sharded"), "{msg}");
    }
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
    // A range line that disagrees with its writer's partition is
    // rejected too, as is one out of order.
    for (from, to) in [
        ("range 0 0 2", "range 0 0 1"),
        ("range 1 2 3", "range 1 1 3"),
        ("range 1", "range 0"),
    ] {
        let dir = written("range", &ix, 2);
        rewrite_manifest(&dir, from, to);
        let err = ShardedEngine::open(&ix, &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{to}");
    }
}

#[test]
fn a_foreign_corpus_store_errs() {
    // Another corpus's store over the same documents' count: the terms
    // tell them apart.
    let ix = corpus();
    let dir = written("foreign", &ix, 2);
    let other = XmlIndex::build(parse(&DOC.replace("xml", "sgml")).unwrap());
    let source = written("foreign_source", &other, 2);
    fs::copy(source.join(STORE_FILE), dir.join(STORE_FILE)).unwrap();
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("does not match the corpus index"), "{err}");
    open_never_panics(&ix, &dir);
}

#[test]
fn a_store_with_a_term_cut_short_errs() {
    // The same documents with one `xml` fewer: every term, level and
    // node count still agrees, `xml`'s rows do not.
    let ix = corpus();
    let dir = written("cut", &ix, 2);
    let cut = XmlIndex::build(parse(&DOC.replacen("xml top k", "top k", 1)).unwrap());
    assert_eq!(cut.tree().len(), ix.tree().len());
    let other = written("cut_source", &cut, 2);
    fs::copy(other.join(STORE_FILE), dir.join(STORE_FILE)).unwrap();
    let err = ShardedEngine::open(&ix, &dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("does not match the corpus index"), "{err}");
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
    let store = dir.join(STORE_FILE);
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
