//! Robustness of the sharded-corpus open/query path: a missing directory,
//! a missing or truncated store, or a store that is not the corpus
//! index's (another corpus's, or one with a term's rows cut), must
//! surface as `Err` — never a panic — and the same holds under randomized
//! byte corruption of the store (extending the persisted-index corruption
//! prop-test one layer up).

use std::fs;
use std::path::Path;
use xtk_core::shard::{write_sharded, ShardedEngine, STORE_FILE};
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

#[test]
fn missing_directory_and_missing_manifest_err() {
    let ix = corpus();
    assert!(ShardedEngine::open(&ix, &scratch("nowhere")).is_err());
    let dir = scratch("empty");
    fs::create_dir_all(&dir).unwrap();
    assert!(ShardedEngine::open(&ix, &dir).is_err(), "no store");
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
