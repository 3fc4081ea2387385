//! Property-based tests for the physical index layer: columnar invariants
//! on random trees, codec round-trips on random run shapes, block-directory
//! lookups, and builder/posting invariants.
//!
//! Runs on the in-tree [`testutil`](xtk_xml::testutil) runner.

use xtk_index::codec::{choose_scheme, decode_column, encode_column, CompressedColumn, Scheme};
use xtk_index::cache::ShardedLruCache;
use xtk_index::columnar::{
    Column, RowDirectory, Run, ROW_DIRECTORY_MIN_RUNS, ROW_DIRECTORY_STRIDE,
};
use xtk_index::disk::{write_index_to, WriteIndexOptions, INLINE_MAX_POSTINGS};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::testutil::{prop_check, Gen};
use xtk_xml::tree::{NodeId, XmlTree};
use xtk_xml::{prop_assert, prop_assert_eq};

/// Builds a random pre-order tree with random text placements.
fn build_tree(shape: &[usize], texts: &[(usize, u8)]) -> XmlTree {
    let n = shape.len() + 1;
    let mut parents = vec![usize::MAX; n];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in shape.iter().enumerate() {
        let p = c % (i + 1);
        parents[i + 1] = p;
        children[p].push(i + 1);
    }
    let mut tree = XmlTree::with_capacity(n);
    let mut map = vec![NodeId(0); n];
    map[0] = tree.add_root("n0");
    let mut stack: Vec<usize> = children[0].iter().rev().copied().collect();
    while let Some(v) = stack.pop() {
        map[v] = tree.add_child(map[parents[v]], format!("n{v}"));
        for &c in children[v].iter().rev() {
            stack.push(c);
        }
    }
    for &(node, word) in texts {
        tree.append_text(map[node % n], &format!("t{}", word % 6));
    }
    tree
}

/// Random parent-choice vector of length in `[1, max)`, size-scaled.
fn shape(g: &mut Gen, max: usize) -> Vec<usize> {
    let cap = max.min(g.size() + 2).max(2);
    let n = g.gen_range(1..cap);
    (0..n).map(|_| g.gen_range(0..10_000usize)).collect()
}

/// Random text placements `(node, word)` of length in `[1, max)`.
fn placements(g: &mut Gen, max: usize, words: u8) -> Vec<(usize, u8)> {
    let cap = max.min(2 * g.size() + 2).max(2);
    let n = g.gen_range(1..cap);
    (0..n)
        .map(|_| (g.gen_range(0..10_000usize), g.gen_range(0..words as u32) as u8))
        .collect()
}

/// Random well-formed column of fewer than `max_runs` runs (the cap grows
/// with the generator's size), each shorter than `max_len` rows: sorted
/// distinct values, contiguous-or-gapped rows.
fn random_column(g: &mut Gen, max_runs: usize, max_len: u32) -> Vec<Run> {
    let n = g.gen_range(0..max_runs.min(max_runs / 100 * g.size() + 1));
    let mut runs = Vec::new();
    let mut value = 0u32;
    let mut row = 0u32;
    for _ in 0..n {
        value += g.gen_range(1..5000u32);
        row += g.gen_range(0..3u32); // gap = rows absent at this level
        let len = g.gen_range(1..max_len);
        runs.push(Run { value, start: row, len });
        row += len;
    }
    runs
}

#[test]
fn codec_roundtrip_both_schemes() {
    prop_check(0x31, 128, |g| {
        let runs = random_column(g, 200, 20);
        let present: Vec<u32> = runs.iter().flat_map(|r| r.rows()).collect();
        for scheme in [Scheme::Delta, Scheme::Rle] {
            let cc = encode_column(&runs, scheme);
            let back = decode_column(&cc, &present).expect("well-formed payload decodes");
            prop_assert_eq!(&back, &runs, "{:?}", scheme);
        }
        // The adaptive choice also round-trips.
        let cc = encode_column(&runs, choose_scheme(&runs));
        prop_assert_eq!(decode_column(&cc, &present), Some(runs));
    });
}

/// Whether some block of `cc` ends inside a run: its last row and the
/// next block's first row are adjacent rows of one value.
fn cuts_a_run(cc: &CompressedColumn, present: &[u32]) -> bool {
    let mut end = 0usize;
    cc.blocks.windows(2).any(|w| {
        end += w[0].rows as usize;
        w[0].last == w[1].first && present[end - 1] + 1 == present[end]
    })
}

#[test]
fn blocks_end_at_run_boundaries() {
    // Over random columns of up to 2 000 runs of one to three rows (13-bit
    // deltas: several blocks) with random present-row gaps, for both
    // schemes: the directory's row counts add up to the column, no block
    // ends inside a run, and the column decodes back.
    prop_check(0x37, 128, |g| {
        let runs = random_column(g, 2_000, 4);
        let present: Vec<u32> = runs.iter().flat_map(|r| r.rows()).collect();
        for scheme in [Scheme::Delta, Scheme::Rle] {
            let cc = encode_column(&runs, scheme);
            let rows: u64 = cc.blocks.iter().map(|b| u64::from(b.rows)).sum();
            prop_assert_eq!(rows, Column { runs: &runs }.row_count(), "{:?}", scheme);
            prop_assert!(!cuts_a_run(&cc, &present), "{:?}: a block ends inside a run", scheme);
            let back = decode_column(&cc, &present).expect("payload decodes");
            prop_assert_eq!(&back, &runs, "{:?}", scheme);
        }
    });
}

#[test]
fn corrupted_packed_lanes_reject_without_panicking() {
    // Truncations and bit flips inside the packed lanes (width bytes,
    // entry counts, lane payloads) must produce `None` — or, when the
    // mutation keeps the block well-formed, a successful decode — and
    // never a panic.  The lanes are exact-length, so a truncated or
    // over-long lane is always detected.
    prop_check(0x38, 128, |g| {
        let runs = random_column(g, 200, 20);
        let present: Vec<u32> = runs.iter().flat_map(|r| r.rows()).collect();
        let scheme = if g.gen_range(0..2u32) == 0 { Scheme::Delta } else { Scheme::Rle };
        let mut cc = encode_column(&runs, scheme);
        if cc.bytes.is_empty() {
            return; // empty column: nothing to corrupt
        }
        match g.gen_range(0..3u32) {
            0 => {
                // Truncate the payload at a random point.
                let cut = g.gen_range(0..cc.bytes.len());
                cc.bytes.truncate(cut);
            }
            1 => {
                // Flip bits somewhere in a lane or header byte.
                let pos = g.gen_range(0..cc.bytes.len());
                cc.bytes[pos] ^= 1 << g.gen_range(0..8u32);
            }
            _ => {
                // Overwrite a byte entirely (hits width bytes too).
                let pos = g.gen_range(0..cc.bytes.len());
                cc.bytes[pos] = g.gen_range(0..256u32) as u8;
            }
        }
        let decoded = decode_column(&cc, &present); // Some or None, never a panic
        if let Some(back) = decoded {
            // A lucky mutation must still yield a structurally sane column.
            for w in back.windows(2) {
                prop_assert!(w[0].end() <= w[1].start, "rows must not overlap");
            }
        }
    });
}

#[test]
fn sparse_index_locates_every_value() {
    // The block directory is the paper's sparse index, and `find` the one
    // lookup through it: over the columns of two random keywords written
    // to an in-memory image, every run value comes back as its run after
    // landing exactly one block (so at most one decode), and a value no
    // block's `[first, last]` range holds comes back `None` after landing
    // none.
    let multi_block = std::cell::Cell::new(0u32);
    prop_check(0x32, 24, |g| {
        // A root over up to 10 000 children: `w` sits in a child itself,
        // and in a grandchild of some of those (a delta column of one- and
        // two-row runs, with value gaps), `v` in three to five children of
        // a child (an RLE column of longer runs over a delta column).
        // Delta blocks end at run boundaries, so no run reaches the
        // reader in two parts.
        let mut tree = XmlTree::with_capacity(16);
        let root = tree.add_root("r");
        for _ in 0..g.gen_range(1..100 * g.size() + 2) {
            let child = tree.add_child(root, "c");
            if g.gen_bool(0.6) {
                tree.append_text(child, "w");
                if g.gen_bool(0.3) {
                    let leaf = tree.add_child(child, "e");
                    tree.append_text(leaf, "w");
                }
            }
            if g.gen_bool(0.5) {
                for _ in 0..g.gen_range(3..6u32) {
                    let leaf = tree.add_child(child, "d");
                    tree.append_text(leaf, "v");
                }
            }
        }
        let ix = XmlIndex::build(tree);
        let mut image = Vec::new();
        write_index_to(&ix, &mut image, WriteIndexOptions::default()).unwrap();
        let cache = std::sync::Arc::new(ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(image.into(), cache).unwrap();
        let landed = || store.io_stats().hits + store.io_stats().misses;
        let columns = ["w", "v"]
            .into_iter()
            .filter_map(|word| Some((word, ix.term_by_str(word)?)))
            .flat_map(|(word, term)| term.columns().zip(1u16..).map(move |(col, l)| (word, l, col)));
        for (word, level, col) in columns {
            let dc = store.column(word, level).unwrap();
            let what = format!("{word} level {level}");
            // The directory the writer emitted for this column.
            let cc = encode_column(col.runs, choose_scheme(col.runs));
            prop_assert_eq!(dc.block_count(), cc.block_count(), "{}", what);
            multi_block.set(multi_block.get() + u32::from(cc.block_count() > 1));
            let present: Vec<u32> = col.runs.iter().flat_map(|r| r.rows()).collect();
            prop_assert!(!cuts_a_run(&cc, &present), "{}: a block ends inside a run", what);
            for run in col.runs {
                let (before, decodes) = (landed(), store.reads());
                prop_assert_eq!(dc.find(run.value).unwrap(), Some(*run), "{}", what);
                prop_assert_eq!(landed() - before, 1, "{}: value {} landed", what, run.value);
                prop_assert!(store.reads() - decodes <= 1, "{}", what);
            }
            // Below the first block, in the gap between two blocks (both
            // ends of it), above the last.
            let mut absent: Vec<u32> = Vec::new();
            absent.extend(cc.blocks.first().and_then(|b| b.first.checked_sub(1)));
            absent.extend(cc.blocks.last().and_then(|b| b.last.checked_add(1)));
            for w in cc.blocks.windows(2).filter(|w| w[0].last + 1 < w[1].first) {
                absent.extend([w[0].last + 1, w[1].first - 1]);
            }
            for v in absent {
                let before = landed();
                prop_assert_eq!(dc.find(v).unwrap(), None, "{}: value {}", what, v);
                prop_assert_eq!(landed(), before, "{}: absent value {} landed a block", what, v);
            }
        }
    });
    assert!(multi_block.get() > 0, "no generated column spanned two blocks");
}

#[test]
fn store_serves_exact_columns_across_the_inline_threshold() {
    // Over random trees, a term `c{k}` in k distinct nodes for every k up
    // to one past the inline threshold, beside a few long random lists:
    // the store hands back every column of every term as the memory
    // index holds it — runs, rows, blocks, value span, and `find` of each
    // run — whether the term went inline or into column records, and the
    // one-walk `columns` equals the per-level `column`.
    let inline_terms = std::cell::Cell::new(0u32);
    prop_check(0x51, 40, |g| {
        let shape = shape(g, 300);
        let mut tree = build_tree(&shape, &placements(g, 200, 3));
        let n = tree.len();
        let mut nodes: Vec<u32> = (0..n as u32).collect();
        for k in 1..=INLINE_MAX_POSTINGS + 1 {
            // The first k of a partial shuffle: k distinct nodes.
            for i in 0..k.min(n) {
                let j = g.gen_range(i..n);
                nodes.swap(i, j);
                tree.append_text(NodeId(nodes[i]), &format!("c{k}"));
            }
        }
        let ix = XmlIndex::build(tree);
        let mut image = Vec::new();
        let opts = WriteIndexOptions { include_scores: g.gen_bool(0.5), ..Default::default() };
        write_index_to(&ix, &mut image, opts).unwrap();
        let cache = std::sync::Arc::new(ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(image.into(), cache).unwrap();
        prop_assert_eq!(store.term_names().len(), ix.vocab_size());
        for (_, term) in ix.terms() {
            let name = term.name();
            inline_terms.set(inline_terms.get() + u32::from(term.len() <= INLINE_MAX_POSTINGS));
            prop_assert_eq!(store.levels_of(name), term.max_len(), "{}", name);
            let walked: Vec<_> = store.columns(name).collect();
            prop_assert_eq!(walked.len(), usize::from(term.max_len()), "{}", name);
            for ((col, dc), level) in term.columns().zip(&walked).zip(1u16..) {
                let what = format!("{name} ({} postings) level {level}", term.len());
                let one = store.column(name, level).unwrap();
                let blocks = encode_column(col.runs, choose_scheme(col.runs)).block_count();
                let span = col.runs.first().zip(col.runs.last()).map(|(f, l)| (f.value, l.value));
                for dc in [dc, &one] {
                    prop_assert_eq!(dc.scan().unwrap(), col.runs.to_vec(), "{}", what);
                    prop_assert_eq!(dc.row_count() as u64, col.row_count(), "{}", what);
                    prop_assert_eq!(dc.block_count(), blocks, "{}", what);
                    prop_assert_eq!(dc.value_span(), span, "{}", what);
                }
                for run in col.runs {
                    prop_assert_eq!(one.find(run.value).unwrap(), Some(*run), "{}", what);
                }
            }
        }
    });
    assert!(inline_terms.get() > 200, "{} inline terms", inline_terms.get());
}

#[test]
fn columns_are_sorted_with_contiguous_runs() {
    prop_check(0x33, 128, |g| {
        let shape = shape(g, 80);
        let texts = placements(g, 120, 6);
        let ix = XmlIndex::build(build_tree(&shape, &texts));
        for (_, term) in ix.terms() {
            // Postings sorted (doc order).
            prop_assert!(term.postings().windows(2).all(|w| w[0] < w[1]));
            for (li, col) in term.columns().enumerate() {
                let level = (li + 1) as u16;
                // Values strictly increase; rows never overlap.
                for w in col.runs.windows(2) {
                    prop_assert!(w[0].value < w[1].value, "level {level}");
                    prop_assert!(w[0].end() <= w[1].start, "level {level}");
                }
                // Row count equals postings at >= level.
                let expect = term
                    .postings()
                    .iter()
                    .filter(|&&n| ix.tree().depth(n) >= level)
                    .count() as u64;
                prop_assert_eq!(col.row_count(), expect);
                // Every run's value resolves to a node at this level, and
                // all rows in the run are descendants-or-self of it.
                for run in col.runs {
                    let node = ix.node_at(level, run.value).expect("value resolves");
                    for row in run.rows() {
                        let p = term.postings()[row as usize];
                        prop_assert!(
                            ix.tree().is_ancestor_or_self(node, p),
                            "level {level} run {} row {row}",
                            run.value
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn run_containment_across_adjacent_levels() {
    prop_check(0x34, 128, |g| {
        // §III-E: a run at level l is contained in exactly one run at
        // level l-1 (never partially overlapping).
        let shape = shape(g, 80);
        let texts = placements(g, 100, 4);
        let ix = XmlIndex::build(build_tree(&shape, &texts));
        for (_, term) in ix.terms() {
            for l in 2..=usize::from(term.max_len()) {
                let upper = term.column(l as u16 - 1).unwrap();
                let lower = term.column(l as u16).unwrap();
                for lr in lower.runs {
                    let covering: Vec<&Run> = upper
                        .runs
                        .iter()
                        .filter(|ur| ur.start <= lr.start && lr.end() <= ur.end())
                        .collect();
                    prop_assert_eq!(
                        covering.len(),
                        1,
                        "lower run {:?} at level {} not covered exactly once",
                        lr,
                        l
                    );
                    // And nothing partially overlaps.
                    for ur in upper.runs {
                        let overlap = ur.start < lr.end() && lr.start < ur.end();
                        let contains = ur.start <= lr.start && lr.end() <= ur.end();
                        prop_assert!(!overlap || contains);
                    }
                }
            }
        }
    });
}

#[test]
fn segments_partition_rows_in_score_order() {
    prop_check(0x35, 128, |g| {
        let shape = shape(g, 60);
        let texts = placements(g, 100, 4);
        let ix = XmlIndex::build(build_tree(&shape, &texts));
        for (_, term) in ix.terms() {
            let mut seen = vec![false; term.len()];
            for seg in term.segments() {
                let mut prev = f32::INFINITY;
                for &row in seg.rows {
                    prop_assert!(!seen[row as usize], "row in two segments");
                    seen[row as usize] = true;
                    let depth = ix.tree().depth(term.postings()[row as usize]);
                    prop_assert_eq!(depth, seg.len, "segment groups one depth");
                    let g = term.scores()[row as usize];
                    prop_assert!(g <= prev, "segment rows sorted by score desc");
                    prev = g;
                }
                prop_assert!((seg.max_score
                    - term.scores()[seg.rows[0] as usize]).abs() < 1e-6);
            }
            prop_assert!(seen.iter().all(|&s| s), "segments cover all rows");
        }
    });
}

#[test]
fn value_of_row_agrees_with_runs() {
    prop_check(0x36, 128, |g| {
        let runs = random_column(g, 200, 20);
        let col = Column { runs: &runs };
        for run in col.runs {
            for row in run.rows() {
                prop_assert_eq!(col.value_of_row(row), Some(run.value));
            }
        }
        // A row beyond all runs is absent.
        let end = col.runs.last().map(|r| r.end()).unwrap_or(0);
        prop_assert_eq!(col.value_of_row(end), None);
    });
}

#[test]
fn row_directory_agrees_with_value_of_row() {
    prop_check(0x37, 96, |g| {
        // Around the floor and well above it; adjacent runs (no gap, one
        // row each) put the most runs under one stride, gaps the fewest.
        let floor = ROW_DIRECTORY_MIN_RUNS;
        let n = match g.gen_range(0..6u32) {
            0 => 0,
            1 => 1,
            2 => floor - 1,
            3 => floor,
            _ => g.gen_range(floor..10 * floor),
        };
        let (max_gap, max_len) = (g.gen_range(0..20u32), g.gen_range(1..12u32));
        let (mut value, mut row) = (0u32, 0u32);
        let runs: Vec<Run> = (0..n)
            .map(|_| {
                value += g.gen_range(1..50u32);
                row += g.gen_range(0..max_gap + 1);
                let run = Run { value, start: row, len: g.gen_range(1..max_len + 1) };
                row = run.end();
                run
            })
            .collect();
        let col = Column { runs: &runs };
        let mut entries = vec![7]; // appended after what is there
        if !RowDirectory::build(col, &mut entries) {
            prop_assert!(n < floor, "{} runs carry no directory", n);
            prop_assert_eq!(entries, vec![7]);
            return;
        }
        prop_assert!(n >= floor, "{} runs carry a directory", n);
        let dir = RowDirectory::new(&entries[1..]);
        for row in 0..=row + ROW_DIRECTORY_STRIDE {
            prop_assert_eq!(dir.value_of_row(col, row), col.value_of_row(row), "row {}", row);
        }
        prop_assert_eq!(dir.value_of_row(col, u32::MAX), None);
    });
}
