//! The index's term arena against each term rebuilt on its own.
//!
//! `XmlIndex` stores every term's postings, scores, columns, segments,
//! histograms and row directories in shared flat arrays.  These tests
//! rebuild each term alone — `build_columns`, `build_segments`,
//! `Histogram::build`, `RowDirectory::build` over its postings — and
//! compare the result with the arena's views, on random corpora.

use xtk_index::columnar::{build_columns, run_count, Column, ColumnScratch, RowDirectory, Run};
use xtk_index::histogram::{Histogram, HISTOGRAM_MIN_ROWS};
use xtk_index::scored::build_segments;
use xtk_index::{TermData, XmlIndex};
use xtk_xml::testutil::{prop_check, Gen};
use xtk_xml::tree::{NodeId, XmlTree};

/// Everything a term view answers, owned and comparable (scores as bits).
#[derive(Debug, PartialEq)]
struct Snapshot {
    name: String,
    postings: Vec<NodeId>,
    scores: Vec<u32>,
    columns: Vec<Vec<Run>>,
    /// `(len, rows, max_score bits)` per segment.
    segments: Vec<(u16, Vec<u32>, u32)>,
    histograms: Vec<Option<Histogram>>,
    directories: Vec<Option<Vec<u32>>>,
}

/// What the arena's view of `t` holds.
fn view(t: TermData<'_>) -> Snapshot {
    let levels = 1..=t.max_len();
    Snapshot {
        name: t.name().to_string(),
        postings: t.postings().to_vec(),
        scores: t.scores().iter().map(|s| s.to_bits()).collect(),
        columns: t.columns().map(|c| c.runs.to_vec()).collect(),
        segments: t.segments().map(|s| (s.len, s.rows.to_vec(), s.max_score.to_bits())).collect(),
        histograms: levels.clone().map(|l| t.histogram(l).copied()).collect(),
        directories: levels.map(|l| t.row_directory(l).map(|d| d.entries().to_vec())).collect(),
    }
}

/// The same term rebuilt on its own from its postings and scores;
/// `scratch` carries over from the previous term, as in the build.
fn rebuilt(ix: &XmlIndex, t: TermData<'_>, scores: &[f32], scratch: &mut ColumnScratch) -> Snapshot {
    let columns = build_columns(ix.tree(), ix.jd(), t.postings(), scratch).to_vec();
    let (mut rows, mut heads) = (Vec::new(), Vec::new());
    build_segments(ix.tree(), t.postings(), scores, &mut rows, &mut heads);
    let mut start = 0;
    let segments = heads
        .iter()
        .map(|h| {
            let seg = (h.len, rows[start..h.end as usize].to_vec(), h.max_score.to_bits());
            start = h.end as usize;
            seg
        })
        .collect();
    let histograms = columns
        .iter()
        .map(|runs| Column { runs })
        .map(|col| (col.row_count() >= HISTOGRAM_MIN_ROWS).then(|| Histogram::build(col)).flatten())
        .collect();
    let directories = columns
        .iter()
        .map(|runs| {
            let mut entries = Vec::new();
            RowDirectory::build(Column { runs }, &mut entries).then_some(entries)
        })
        .collect();
    Snapshot {
        name: t.name().to_string(),
        postings: t.postings().to_vec(),
        scores: scores.iter().map(|s| s.to_bits()).collect(),
        columns,
        segments,
        histograms,
        directories,
    }
}

/// A random pre-order tree of up to `30 · size` nodes, its text drawn from
/// `words` words (few words: long lists, histograms, row directories) and
/// from words of its own (many short lists).
fn random_tree(g: &mut Gen, words: u32) -> XmlTree {
    let n = g.gen_range(1..30 * g.size() + 2);
    let mut tree = XmlTree::with_capacity(n + 1);
    let mut open = vec![tree.add_root("r")];
    for i in 0..n {
        // Climb a random number of levels, then open a child.
        let up = g.gen_range(0..open.len().min(3));
        open.truncate(open.len() - up);
        let parent = *open.last().unwrap();
        let child = tree.add_child(parent, "e");
        open.push(child);
        if g.gen_bool(0.7) {
            let text = (0..g.gen_range(1..4u32))
                .map(|_| format!("w{}", g.gen_range(0..words)))
                .collect::<Vec<_>>()
                .join(" ");
            tree.append_text(child, &text);
        }
        if g.gen_bool(0.1) {
            tree.append_text(child, &format!("solo{i}"));
        }
    }
    tree
}

#[test]
fn arena_views_match_each_term_rebuilt_alone() {
    let (hists, dirs) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    prop_check(0xA8E_0001, 48, |g| {
        let tree = random_tree(g, 6);
        let ix = XmlIndex::build(tree);
        let mut scratch = ColumnScratch::default();
        for (_, t) in ix.terms() {
            let got = view(t);
            hists.set(hists.get() + got.histograms.iter().flatten().count());
            dirs.set(dirs.get() + got.directories.iter().flatten().count());
            assert_eq!(got, rebuilt(&ix, t, t.scores(), &mut scratch), "term {}", t.name());
            // The count that sizes the arena's runs before Pass 3.
            let runs: usize = got.columns.iter().map(Vec::len).sum();
            assert_eq!(run_count(ix.tree(), t.postings()), runs, "run count of {}", t.name());
        }
    });
    assert!(hists.get() > 0 && dirs.get() > 0, "no term carried a histogram or a row directory");
}
