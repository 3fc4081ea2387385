//! Failure injection for the on-disk index format: truncations and random
//! byte mutations of a valid file must produce a clean `InvalidData`
//! error or — when the mutation happens to keep the file well-formed — a
//! successful parse.  Never a panic.  Images are `Vec<u8>`s handed to the
//! reader as they are; nothing touches the filesystem.

use std::io;
use std::sync::Arc;
use xtk_index::cache::ShardedLruCache;
use xtk_index::codec::{try_read_varint, write_varint};
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::prop_check;

fn valid_index_bytes() -> Vec<u8> {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<p><t>alpha beta{} gamma</t></p>", i % 11));
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(parse(&xml).unwrap());
    let mut image = Vec::new();
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    write_index_to(&ix, &mut image, opts).unwrap();
    image
}

/// The one reader: a store over `image`.
fn open(image: &[u8]) -> io::Result<DiskColumnStore> {
    DiskColumnStore::open_bytes(image.to_vec().into(), Arc::new(ShardedLruCache::unbounded()))
}

fn scan_all(store: &DiskColumnStore) -> io::Result<()> {
    for term in store.term_names() {
        for level in 1..=store.levels_of(term) {
            store.column(term, level).expect("a listed level").scan()?;
        }
    }
    Ok(())
}

/// One verdict on an image: it opens and every column scans, or it fails
/// with `InvalidData` (a panic fails the test).  Returns whether it loaded.
fn verdict(image: &[u8], what: &str) -> bool {
    let loaded = open(image).and_then(|store| scan_all(&store));
    if let Err(err) = &loaded {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }
    loaded.is_ok()
}

#[test]
fn every_truncation_point_is_handled() {
    let bytes = valid_index_bytes();
    assert!(verdict(&bytes, "pristine"));
    // Truncating at every prefix is O(n^2) in file size; sample prefixes
    // densely at the start (header/directory) and sparsely later.
    let mut cuts: Vec<usize> = (0..bytes.len().min(200)).collect();
    cuts.extend((200..bytes.len()).step_by(97));
    for cut in cuts {
        // Must not panic; Err expected for almost every cut.
        verdict(&bytes[..cut], &format!("cut at {cut}"));
    }
}

#[test]
fn random_mutations_never_panic() {
    prop_check(0x41, 48, |g| {
        let n_flips = g.gen_range(1..8usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes();
        for &(pos, val) in &flips {
            let n = bytes.len();
            bytes[pos % n] = val;
        }
        // A lucky mutation may still be well-formed.
        verdict(&bytes, &format!("flips {flips:?}"));
    });
}

#[test]
fn mutated_store_scan_and_find_never_panic() {
    // The block-granular reader defers payload decoding to `scan`/`find`,
    // so a mutation the directory pass misses must surface there — as an
    // `Err` (or a well-formed `Ok`), never a panic.  Mutations are aimed
    // past the directory to stress the lazy decode paths.
    prop_check(0x42, 32, |g| {
        let n_flips = g.gen_range(1..6usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes();
        let n = bytes.len();
        for (pos, val) in flips {
            // Skip the first ~64 bytes so the open() usually succeeds and
            // the decode paths actually run.
            bytes[64 + pos % (n - 64)] = val;
        }
        if let Ok(store) = open(&bytes) {
            for term in store.term_names() {
                for level in 1..=store.levels_of(term) {
                    let Some(col) = store.column(term, level) else { continue };
                    let _ = col.scan(); // Ok or Err, never a panic
                    let _ = col.find(0);
                    let _ = col.find(u32::MAX);
                }
            }
        }
    });
}

#[test]
fn empty_and_garbage_files_rejected() {
    for content in [&b""[..], &b"\x00"[..], &b"garbage not an index"[..]] {
        assert!(!verdict(content, "garbage"));
    }
}

#[test]
fn version_1_image_is_rejected_by_every_reader() {
    // An empty but well-formed file of each earlier version (magic, no
    // terms, no score flag): version 1 had no row counts in its
    // directory, version 2 held varint blocks, and version 3's delta
    // blocks repeated their row count.  Their readers are gone, and each
    // file is refused by name rather than misread.
    for version in 1..=3u32 {
        let mut image = Vec::new();
        write_varint(0x5854_4B00 | version, &mut image);
        image.extend_from_slice(&[0, 0]);
        let err = open(&image).expect_err(&format!("opened a version-{version} image"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{version}: {err}");
        let named = format!("unsupported format version {version}");
        assert!(err.to_string().contains(&named), "{version}: {err}");
    }
}

/// A varint of the first term record that open must validate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    /// The depth of the term's first posting.
    FirstDepth,
    /// The row count in the first directory entry of the term's first
    /// column.
    FirstBlockRows,
}

/// The byte range `field` occupies in a pristine image, and its value.
fn locate(bytes: &[u8], field: Field) -> (std::ops::Range<usize>, u32) {
    let mut pos = 0;
    let varint = |pos: &mut usize| try_read_varint(bytes, pos).unwrap();
    // magic, term count, score flag (set), the first term's text.
    varint(&mut pos);
    varint(&mut pos);
    pos += 1;
    pos += varint(&mut pos) as usize;
    let postings = varint(&mut pos) as usize;
    assert!(postings > 0, "first term has postings");
    let at = pos;
    let depth = varint(&mut pos);
    if field == Field::FirstDepth {
        return (at..pos, depth);
    }
    // The other depths, scores; column count, scheme byte, block count;
    // the first entry's offset and first value.
    for _ in 1..postings {
        varint(&mut pos);
    }
    pos += 4 * postings;
    varint(&mut pos);
    pos += 1;
    assert!(varint(&mut pos) > 0, "first column has blocks");
    varint(&mut pos);
    varint(&mut pos);
    let at = pos;
    let rows = varint(&mut pos);
    (at..pos, rows)
}

#[test]
fn damaged_directory_field_is_rejected_by_every_reader() {
    // One row per open-time check of a single field — the two drifts
    // found so far between two readers that shared this parse: a
    // first-entry row count of `rows + 1`, and a depth of 65 536 + d
    // (truncated to `d` by an `as u16`).  The format is sequential with
    // payload-relative block offsets, so a longer varint shifts nothing
    // that is addressed: the field is the only thing wrong with the image.
    type Damage = (Field, fn(u32) -> u32);
    let damage: [Damage; 2] =
        [(Field::FirstBlockRows, |rows| rows + 1), (Field::FirstDepth, |depth| depth + 65_536)];
    let bytes = valid_index_bytes();
    assert!(verdict(&bytes, "pristine"), "pristine image refused");
    for (field, replace) in damage {
        let (at, value) = locate(&bytes, field);
        let mut image = bytes[..at.start].to_vec();
        write_varint(replace(value), &mut image);
        image.extend_from_slice(&bytes[at.end..]);
        let what = format!("{field:?} {value} -> {}", replace(value));
        let err = open(&image).expect_err(&format!("{what}: opened"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }
}
