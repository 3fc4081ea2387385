//! Failure injection for the on-disk index format: truncations and random
//! byte mutations of a valid file must produce a clean `InvalidData`
//! error or — when the mutation happens to keep the file well-formed — a
//! successful parse.  Never a panic.  Images are `Vec<u8>`s handed to the
//! reader as they are; nothing touches the filesystem.

use std::io;
use std::sync::Arc;
use xtk_index::cache::ShardedLruCache;
use xtk_index::codec::{try_read_varint, write_varint};
use xtk_index::disk::{write_index_to, WriteIndexOptions, INLINE_MAX_POSTINGS};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::parse;
use xtk_xml::testutil::prop_check;

/// Long lists in column records, then the Zipf tail in inline records:
/// `lone` (one posting), `pair` (two postings sharing `r/q`, the second
/// one deeper) and `octet` (eight postings, the most an inline record
/// holds).
fn valid_index_bytes() -> Vec<u8> {
    let mut xml = String::from("<r>");
    for i in 0..120 {
        xml.push_str(&format!("<p><t>alpha beta{} gamma</t></p>", i % 11));
    }
    xml.push_str("<q><s>lone pair</s><u><v>pair</v></u></q>");
    for i in 0..INLINE_MAX_POSTINGS {
        xml.push_str(&format!("<q><s>octet</s>{}</q>", "<w/>".repeat(i)));
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
    // directory, version 2 held varint blocks, version 3's delta blocks
    // repeated their row count, and version 4's blocks their first value
    // (and it wrote no inline records).  Their readers are gone, and each
    // file is refused by name rather than misread.
    for version in 1..=4u32 {
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

/// Term `name`'s inline record in a pristine image: the byte range of its
/// length varint and bytes, and per posting its depth, its shared count
/// and its other numbers.
struct InlineRecord {
    at: std::ops::Range<usize>,
    postings: Vec<(u32, u32, Vec<u32>)>,
}

/// Walks the image's term records to `name`'s (it must be inline),
/// stepping over column records by their framing.
fn locate_inline(bytes: &[u8], name: &str) -> InlineRecord {
    let mut pos = 0;
    let varint = |pos: &mut usize| try_read_varint(bytes, pos).unwrap();
    varint(&mut pos);
    let terms = varint(&mut pos);
    let scores = bytes[pos] != 0;
    pos += 1;
    for _ in 0..terms {
        let len = varint(&mut pos) as usize;
        let term = std::str::from_utf8(&bytes[pos..pos + len]).unwrap().to_string();
        pos += len;
        let n = varint(&mut pos) as usize;
        let depths: Vec<u32> = (0..n).map(|_| varint(&mut pos)).collect();
        pos += if scores { 4 * n } else { 0 };
        let columns = varint(&mut pos);
        if n <= INLINE_MAX_POSTINGS {
            let start = pos;
            let len = varint(&mut pos) as usize;
            if term == name {
                let mut at = pos;
                let postings = depths
                    .iter()
                    .map(|&d| {
                        let shared = varint(&mut at);
                        (d, shared, (shared..d).map(|_| varint(&mut at)).collect())
                    })
                    .collect();
                assert_eq!(at, pos + len, "{name}: the record is its postings");
                return InlineRecord { at: start..pos + len, postings };
            }
            pos += len;
            continue;
        }
        assert_ne!(term, name, "{name} is not inline");
        for _ in 0..columns {
            pos += 1;
            let blocks = varint(&mut pos);
            for _ in 0..4 * blocks {
                varint(&mut pos);
            }
            pos += varint(&mut pos) as usize;
        }
    }
    panic!("no term {name}");
}

/// `postings` as an inline record: shared counts and numbers as varints,
/// but a number of `u64` past `u32` as the five-byte varint a `u32`
/// cannot hold; then its byte length in front.
fn inline_record(postings: &[(u32, u32, Vec<u64>)]) -> Vec<u8> {
    let mut body = Vec::new();
    for (_, shared, numbers) in postings {
        write_varint(*shared, &mut body);
        for &v in numbers {
            match u32::try_from(v) {
                Ok(v) => write_varint(v, &mut body),
                Err(_) => body.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]),
            }
        }
    }
    let mut record = Vec::new();
    write_varint(body.len() as u32, &mut record);
    record.extend_from_slice(&body);
    record
}

#[test]
fn damaged_inline_record_is_rejected_by_every_reader() {
    // One row per check of the inline record's walk, each on `pair`: the
    // record rewritten with one thing wrong and its length framing it, so
    // every other byte of the image is as written.
    type Postings = Vec<(u32, u32, Vec<u64>)>;
    let bytes = valid_index_bytes();
    assert!(verdict(&bytes, "pristine"), "pristine image refused");
    let pair = locate_inline(&bytes, "pair");
    let pristine: Postings = pair
        .postings
        .iter()
        .map(|(d, s, numbers)| (*d, *s, numbers.iter().map(|&v| u64::from(v)).collect()))
        .collect();
    // Two postings under `r/q`, the second one level deeper.
    assert!(matches!(pristine.as_slice(), [(3, 0, _), (4, 2, _)]), "{pristine:?}");
    assert_eq!(inline_record(&pristine), bytes[pair.at.clone()], "the test's encoder is the writer's");
    // What is wrong, how, and what the error names.
    type Row = (&'static str, fn(&mut Postings), &'static str);
    let rows: [Row; 4] = [
        (
            "a shared count past the previous posting's depth",
            |p| {
                p[1].1 = p[0].0 + 1;
                p[1].2.clear();
            },
            "inline shared count exceeds a posting's depth",
        ),
        ("a number past u32", |p| p[1].2[1] = 1 << 32, "inline number"),
        (
            "numbers that descend within a level",
            |p| p[0].2[2] = p[1].2[0] + 1,
            "inline numbers descend within a level",
        ),
        (
            "a record cut short",
            |p| {
                p[1].2.pop();
            },
            "inline number",
        ),
    ];
    for (what, damage, named) in rows {
        let mut postings = pristine.clone();
        damage(&mut postings);
        let mut image = bytes[..pair.at.start].to_vec();
        image.extend_from_slice(&inline_record(&postings));
        image.extend_from_slice(&bytes[pair.at.end..]);
        let err = open(&image).expect_err(&format!("{what}: opened"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().ends_with(named), "{what}: {err}");
        assert!(!verdict(&image, what), "{what}: loaded");
    }
}
