//! Failure injection for the on-disk index format: truncations and random
//! byte mutations of a valid file must produce a clean `InvalidData`
//! error or — when the mutation happens to keep the file well-formed — a
//! successful parse.  Never a panic, and never a file one entry point
//! accepts and the other refuses.  Images are `Vec<u8>`s handed to the
//! readers as they are; nothing touches the filesystem.

use std::io;
use std::sync::Arc;
use xtk_index::cache::ShardedLruCache;
use xtk_index::codec::{try_read_varint, write_varint};
use xtk_index::disk::{read_index_bytes, write_index_to, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::prop_check;

/// Both formats: varint (v2) and bit-packed (v3) block payloads.  Every
/// injection below runs against each, so truncated and bit-flipped packed
/// lanes get the same coverage as varint payloads.
const FORMATS: [FormatVersion; 2] = [FormatVersion::V2, FormatVersion::V3];

fn valid_index_bytes(format: FormatVersion) -> Vec<u8> {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<p><t>alpha beta{} gamma</t></p>", i % 11));
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(parse(&xml).unwrap());
    let mut image = Vec::new();
    write_index_to(&ix, &mut image, WriteIndexOptions { include_scores: true, format }).unwrap();
    image
}

/// The lazy entry point: a store over `image`.
fn open(image: &[u8]) -> io::Result<DiskColumnStore> {
    DiskColumnStore::open_bytes(image.to_vec().into(), Arc::new(ShardedLruCache::unbounded()))
}

/// The eager entry point: every column of `image` decoded.
fn read(image: &[u8]) -> io::Result<()> {
    read_index_bytes(image.to_vec().into()).map(|_| ())
}

/// Both entry points' verdicts on one image, by name.
fn both(image: &[u8]) -> [(&'static str, io::Result<()>); 2] {
    [("read_index", read(image)), ("open_bytes", open(image).map(|_| ()))]
}

fn scan_all(store: &DiskColumnStore) -> io::Result<()> {
    for term in store.term_names() {
        for level in 1..=store.levels_of(term) {
            store.column(term, level).expect("a listed level").scan()?;
        }
    }
    Ok(())
}

/// The two entry points share one directory parse, so an image the store
/// refuses to open the eager reader refuses too, and the eager reader
/// loads exactly the images whose every column then scans.  Errors are
/// `InvalidData`.  Returns the eager outcome.
fn assert_readers_agree(image: &[u8], what: &str) -> bool {
    let (eager, lazy) = (read(image), open(image));
    for err in [eager.as_ref().err(), lazy.as_ref().err()].into_iter().flatten() {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }
    if lazy.is_err() {
        assert!(eager.is_err(), "{what}: read_index loaded an image open_bytes refuses");
    }
    let scanned = lazy.and_then(|store| scan_all(&store));
    assert_eq!(eager.is_ok(), scanned.is_ok(), "{what}: eager {eager:?} vs open + scan {scanned:?}");
    eager.is_ok()
}

#[test]
fn every_truncation_point_is_handled() {
    for format in FORMATS {
        let bytes = valid_index_bytes(format);
        assert!(assert_readers_agree(&bytes, "pristine"), "{format:?}");
        // Truncating at every prefix is O(n^2) in file size; sample
        // prefixes densely at the start (header/directory) and sparsely
        // later.
        let mut cuts: Vec<usize> = (0..bytes.len().min(200)).collect();
        cuts.extend((200..bytes.len()).step_by(97));
        for cut in cuts {
            // Must not panic; Err expected for almost every cut.
            assert_readers_agree(&bytes[..cut], &format!("{format:?} cut at {cut}"));
        }
    }
}

#[test]
fn random_mutations_never_panic() {
    prop_check(0x41, 48, |g| {
        let format = FORMATS[g.gen_range(0..FORMATS.len())];
        let n_flips = g.gen_range(1..8usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes(format);
        for &(pos, val) in &flips {
            let n = bytes.len();
            bytes[pos % n] = val;
        }
        // A lucky mutation may still be well-formed; either way both
        // entry points say the same.
        assert_readers_agree(&bytes, &format!("{format:?} flips {flips:?}"));
    });
}

#[test]
fn mutated_store_scan_and_find_never_panic() {
    // The block-granular reader defers payload decoding to `scan`/`find`,
    // so a mutation the directory pass misses must surface there — as an
    // `Err` (or a well-formed `Ok`), never a panic.  Mutations are aimed
    // past the directory to stress the lazy decode paths.
    prop_check(0x42, 32, |g| {
        let format = FORMATS[g.gen_range(0..FORMATS.len())];
        let n_flips = g.gen_range(1..6usize);
        let flips: Vec<(usize, u8)> = (0..n_flips)
            .map(|_| (g.gen_range(0..1_000_000usize), g.gen_range(0..256u32) as u8))
            .collect();
        let mut bytes = valid_index_bytes(format);
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
        assert!(!assert_readers_agree(content, "garbage"));
    }
}

#[test]
fn version_1_image_is_rejected_by_every_reader() {
    // An empty but well-formed version-1 file (magic, no terms, no score
    // flag): readers of the directory without row counts are gone, and
    // the file is refused by name rather than half-read.
    let mut image = Vec::new();
    write_varint(0x5854_4B01, &mut image);
    image.extend_from_slice(&[0, 0]);
    for (reader, outcome) in both(&image) {
        let err = outcome.expect_err(&format!("{reader} opened a version-1 image"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reader}: {err}");
        assert!(err.to_string().contains("unsupported format version 1"), "{reader}: {err}");
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
    // `read_index` and `DiskColumnStore::open_bytes` must agree on what a
    // valid file is.  One row per open-time check of a single field — the
    // two drifts found so far: a first-entry row count of `rows + 1`
    // loaded in the eager reader alone, a depth of 65 536 + d used to open
    // (truncated to `d` by an `as u16`) in the store alone.  The format is
    // sequential with payload-relative block
    // offsets, so a longer varint shifts nothing that is addressed: the
    // field is the only thing wrong with the image.
    type Damage = (Field, fn(u32) -> u32);
    let damage: [Damage; 2] =
        [(Field::FirstBlockRows, |rows| rows + 1), (Field::FirstDepth, |depth| depth + 65_536)];
    for format in FORMATS {
        let bytes = valid_index_bytes(format);
        assert!(assert_readers_agree(&bytes, "pristine"), "{format:?}: pristine image refused");
        for (field, replace) in damage {
            let (at, value) = locate(&bytes, field);
            let mut image = bytes[..at.start].to_vec();
            write_varint(replace(value), &mut image);
            image.extend_from_slice(&bytes[at.end..]);
            let what = format!("{format:?} {field:?} {value} -> {}", replace(value));
            for (reader, outcome) in both(&image) {
                let err = outcome.expect_err(&format!("{what}: {reader} accepted it"));
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {reader}: {err}");
            }
        }
    }
}
