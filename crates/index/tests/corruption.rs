//! Failure injection for the on-disk index format: truncations and random
//! byte mutations of a valid file must produce a clean `InvalidData`
//! error or — when the mutation happens to keep the file well-formed — a
//! successful parse.  Never a panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xtk_index::cache::ShardedLruCache;
use xtk_index::codec::{try_read_varint, write_varint};
use xtk_index::disk::{read_index, write_index, FormatVersion, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::prop_check;
use xtk_xml::prop_assert_eq;

/// Both lazily-decoded formats: varint (v2) and bit-packed (v3) block
/// payloads.  Every injection below runs against each, so truncated and
/// bit-flipped packed lanes get the same coverage as varint payloads.
const FORMATS: [FormatVersion; 2] = [FormatVersion::V2, FormatVersion::V3];

/// A temp path unique per call: the tests of this file run on parallel
/// threads of one process, so the process id alone lets one thread remove
/// the file another is about to read.
fn unique_temp(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xtk_corrupt_{}_{tag}_{n}.bin", std::process::id()))
}

fn valid_index_bytes(format: FormatVersion) -> Vec<u8> {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<p><t>alpha beta{} gamma</t></p>", i % 11));
    }
    xml.push_str("</r>");
    let ix = XmlIndex::build(parse(&xml).unwrap());
    let path = unique_temp("base");
    write_index(&ix, &path, WriteIndexOptions { include_scores: true, format }).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn write_temp(bytes: &[u8], tag: &str) -> std::path::PathBuf {
    let path = unique_temp(tag);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn every_truncation_point_is_handled() {
    for format in FORMATS {
        let bytes = valid_index_bytes(format);
        // Truncating at every prefix is O(n^2) in file size; sample
        // prefixes densely at the start (header/directory) and sparsely
        // later.
        let mut cuts: Vec<usize> = (0..bytes.len().min(200)).collect();
        cuts.extend((200..bytes.len()).step_by(97));
        for cut in cuts {
            let path = write_temp(&bytes[..cut], "trunc");
            // Must not panic; Err expected for almost every cut.
            let _ = read_index(&path);
            let _ = DiskColumnStore::open(&path);
            std::fs::remove_file(&path).ok();
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
        for (pos, val) in flips {
            let n = bytes.len();
            bytes[pos % n] = val;
        }
        let path = write_temp(&bytes, "flip");
        match read_index(&path) {
            Ok(loaded) => {
                // A lucky mutation may still be well-formed; walking the
                // terms must at least not panic.
                for (term, t) in &loaded.terms {
                    let _ = (term.len(), t.depths.len());
                }
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            }
        }
        let _ = DiskColumnStore::open(&path);
        std::fs::remove_file(&path).ok();
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
        let path = write_temp(&bytes, "scanflip");
        if let Ok(store) = DiskColumnStore::open(&path) {
            for term in store.term_names() {
                for level in 1..=store.levels_of(term) {
                    let Some(col) = store.column(term, level) else { continue };
                    let _ = col.scan(); // Ok or Err, never a panic
                    let _ = col.find(0);
                    let _ = col.find(u32::MAX);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn empty_and_garbage_files_rejected() {
    for content in [&b""[..], &b"\x00"[..], &b"garbage not an index"[..]] {
        let path = write_temp(content, "garbage");
        assert!(read_index(&path).is_err());
        assert!(DiskColumnStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn depth_beyond_u16_is_rejected_by_both_readers() {
    // `read_index` and `DiskColumnStore::open_bytes` walk the same
    // directory and must agree on what a valid file is.  A posting depth
    // of 65 536 + d used to be `Err` from the first and — truncated to
    // `d` by an `as u16` — a store that opened and scanned from the
    // second.  The format is sequential with payload-relative block
    // offsets, so the longer varint shifts nothing that is addressed:
    // the depth is the only thing wrong with the image.
    let both = |image: &[u8]| {
        let path = write_temp(image, "depth");
        let read = read_index(&path).map(|_| ());
        std::fs::remove_file(&path).ok();
        let cache = Arc::new(ShardedLruCache::unbounded());
        let opened = DiskColumnStore::open_bytes(image.to_vec().into(), cache).map(|_| ());
        [read, opened]
    };
    for format in FORMATS {
        let bytes = valid_index_bytes(format);
        // magic, term count, score flag, the first term's text, its
        // posting count — the next varint is its first posting's depth.
        let mut pos = 0;
        try_read_varint(&bytes, &mut pos).unwrap();
        try_read_varint(&bytes, &mut pos).unwrap();
        pos += 1;
        pos += try_read_varint(&bytes, &mut pos).unwrap() as usize;
        assert!(try_read_varint(&bytes, &mut pos).unwrap() > 0, "first term has postings");
        let at = pos;
        let depth = try_read_varint(&bytes, &mut pos).unwrap();
        assert!((1..=u32::from(u16::MAX)).contains(&depth), "walked to a depth: {depth}");

        let mut image = bytes[..at].to_vec();
        write_varint(depth + 65_536, &mut image);
        image.extend_from_slice(&bytes[pos..]);

        for (reader, outcome) in ["read_index", "open_bytes"].iter().zip(both(&bytes)) {
            assert!(outcome.is_ok(), "{format:?}: {reader} rejects the pristine image");
        }
        for (reader, outcome) in ["read_index", "open_bytes"].iter().zip(both(&image)) {
            let err = outcome.expect_err(&format!("{format:?}: {reader} accepted depth 65 536 + {depth}"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{reader}: {err}");
        }
    }
}
