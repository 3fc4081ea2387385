//! Building the unified index.
//!
//! One pass over the tree tokenizes every node's direct text and produces,
//! per distinct term, the physical structures the engines serve from:
//!
//! * `postings` — node ids in document order (the Dewey inverted list; node
//!   id order equals Dewey order because the arena is in pre-order),
//! * `scores` — normalized tf–idf local scores `g(v, w)`, and their
//!   maximum `max_score`,
//! * `columns` — the JDewey column-per-level run representation (§III),
//! * `segments` — the score-sorted length groups of Fig. 7 (§IV), with the
//!   row directories that give them Fig. 7's row → number access.
//!
//! What only the evaluation baselines read — subtree ranges and RDIL's
//! score-descending permutation — is derived on demand by `xtk-baselines`,
//! and the Dewey ids Table I prices by [`crate::sizes`].

use crate::columnar::{build_columns, Column, RowDirectory};
use crate::histogram::{Histogram, HISTOGRAM_MIN_ROWS};
use crate::score::{Damping, TfIdf};
use crate::scored::{build_segments, Segment};
use crate::text::token_counts;
use std::collections::HashMap;
use xtk_xml::jdewey::JDeweyAssignment;
use xtk_xml::pool::{chunk_ranges, parallel_map, Parallelism};
use xtk_xml::tree::{NodeId, XmlTree};

/// Deterministic per-node "global importance" in `[0.7, 1.0)` — a
/// splitmix64 hash of the node id, standing in for the link-based node
/// score real systems would mix into `g(v, w)` (paper §II-B).
pub fn node_quality(node: NodeId) -> f32 {
    let mut z = node.0 as u64 ^ 0x9E3779B97F4A7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    0.7 + 0.3 * ((z >> 40) as f32 / (1u64 << 24) as f32)
}

/// Identifier of a term in the index vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// All physical index structures for one term.
#[derive(Debug, Clone)]
pub struct TermData {
    /// The term text.
    pub term: Box<str>,
    /// Nodes directly containing the term, in document order.
    pub postings: Vec<NodeId>,
    /// Local score `g(v, w)` per posting (aligned with `postings`).
    pub scores: Vec<f32>,
    /// The largest entry of `scores` (0 for an empty list): the term's
    /// contribution to an upper bound on any result score.
    pub max_score: f32,
    /// JDewey columns (index 0 = level 1); `columns.len()` = max depth of
    /// any posting (`l_m` in the paper).
    pub columns: Vec<Column>,
    /// Score-sorted length groups (top-K join input).
    pub segments: Vec<Segment>,
    /// Per-level value histograms for cardinality estimation (§V-D);
    /// `None` for levels whose column is short enough to probe directly.
    pub histograms: Vec<Option<Histogram>>,
    /// Per-level row directories, `None` for a term none of whose columns
    /// is long enough to carry one — the long tail of the vocabulary,
    /// which pays one pointer for it.
    row_directories: Option<Box<RowDirectories>>,
}

/// One slot per column (index 0 = level 1) up to the deepest that carries
/// a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RowDirectories(Vec<Option<RowDirectory>>);

impl RowDirectories {
    /// `None` — and no allocation — for columns that carry none.
    fn build(columns: &[Column]) -> Option<Box<Self>> {
        let mut slots = Vec::new();
        for (i, col) in columns.iter().enumerate() {
            if let Some(dir) = RowDirectory::build(col) {
                slots.resize(i, None);
                slots.push(Some(dir));
            }
        }
        (!slots.is_empty()).then(|| Box::new(Self(slots)))
    }
}

impl TermData {
    /// Posting-list length (the term's frequency in the corpus).
    #[inline]
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// `true` iff the term has no postings (cannot happen for indexed
    /// terms but keeps clippy's `len_without_is_empty` honest).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Maximum JDewey sequence length over the postings (`l_m`).
    #[inline]
    pub fn max_len(&self) -> u16 {
        self.columns.len() as u16
    }

    /// The row directory of the level-`level` column, for the columns
    /// that carry one (see [`RowDirectory::build`]).
    #[inline]
    pub fn row_directory(&self, level: u16) -> Option<&RowDirectory> {
        let slots = &self.row_directories.as_deref()?.0;
        slots.get((level as usize).checked_sub(1)?)?.as_ref()
    }
}

/// The largest score under `f32::total_cmp`, 0 for none.
fn max_score(scores: &[f32]) -> f32 {
    scores.iter().copied().max_by(f32::total_cmp).unwrap_or(0.0)
}

/// The local scoring function `g(v, w)` (paper §II-B: "the function g can
/// take multiple factors into account ... and combine them in an
/// arbitrary way" — the algorithms only need monotonicity of the
/// combiner).  All variants produce scores in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalScorer {
    /// Normalized tf–idf times the per-node importance factor
    /// [`node_quality`] — the default, closest to a deployed ranker.
    #[default]
    TfIdfQuality,
    /// Pure normalized tf–idf (deterministic given tf/df only); useful for
    /// tests that reason about exact score values.
    TfIdf,
    /// Every occurrence scores 1.0 — degenerates ranking to "fewest damped
    /// levels win"; exercises tie handling in the top-K machinery.
    Uniform,
}

/// Options for [`XmlIndex::build_with`].
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Damping function for score propagation (default λ = 0.9).
    pub damping: Damping,
    /// JDewey reservation gap (spare numbers per parent; default 0 —
    /// static corpora need no reserve and Table I reports it separately).
    pub jdewey_gap: u32,
    /// The local scoring function `g(v, w)`.
    pub scorer: LocalScorer,
    /// Worker threads for the build (tokenization and per-term structure
    /// construction).  The built index is bit-identical for every setting;
    /// see [`Parallelism`].
    pub parallelism: Parallelism,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            damping: Damping::paper_default(),
            jdewey_gap: 0,
            scorer: LocalScorer::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

/// Distinct terms of one tokenizer chunk, in first-occurrence order:
/// `(term, postings, tfs)`.
struct ChunkTokens {
    n_docs: u64,
    terms: Vec<(Box<str>, Vec<NodeId>, Vec<u32>)>,
}

/// Everything Pass 3 derives for one term (the parts computed from
/// borrowed postings/scores; zipped back with the owned vectors serially).
struct TermStructures {
    scores: Vec<f32>,
    columns: Vec<Column>,
    segments: Vec<Segment>,
    histograms: Vec<Option<Histogram>>,
    row_directories: Option<Box<RowDirectories>>,
}

/// The unified in-memory index over one XML document.
///
/// Owns the tree plus its JDewey encoding, the vocabulary, and the
/// per-term physical structures the join-based engines serve from.
#[derive(Debug)]
pub struct XmlIndex {
    tree: XmlTree,
    jd: JDeweyAssignment,
    damping: Damping,
    vocab: HashMap<Box<str>, TermId>,
    terms: Vec<TermData>,
    /// Number of nodes with non-empty direct text ("documents" for idf).
    n_docs: u64,
    /// Index generation for result-cache invalidation: a fresh build is
    /// generation 0; rebuilds after incremental maintenance are stamped by
    /// the caller (see `JDeweyMaintainer::generation` in `xtk-xml`).  The
    /// batch result cache stores the generation a response was computed
    /// against and drops entries whose stamp no longer matches.
    generation: u64,
}

impl XmlIndex {
    /// Builds the index with default options.
    pub fn build(tree: XmlTree) -> Self {
        Self::build_with(tree, IndexOptions::default())
    }

    /// Builds the index with explicit options.
    ///
    /// With `opts.parallelism` above [`Parallelism::Serial`] the three
    /// passes fan out over worker threads; the resulting index is
    /// **bit-identical** to the serial build:
    ///
    /// * Pass 1 tokenizes contiguous node-id chunks independently, then
    ///   merges the chunk vocabularies *in chunk order* — postings stay in
    ///   document order and [`TermId`]s are assigned in global
    ///   first-occurrence order, exactly as the serial loop does;
    /// * Pass 2/3 are per-term maps whose results are merged by term index.
    pub fn build_with(tree: XmlTree, opts: IndexOptions) -> Self {
        let jd = JDeweyAssignment::assign(&tree, opts.jdewey_gap);
        let par = opts.parallelism;

        // Pass 1: postings with term frequencies.  Over-split (4 chunks
        // per worker) so text-heavy regions don't straggle.
        let n_chunks = if par.workers() <= 1 { 1 } else { par.workers() * 4 };
        let chunks = chunk_ranges(tree.len(), n_chunks);
        let tree_ref = &tree;
        let chunked: Vec<ChunkTokens> = parallel_map(par, &chunks, |_, range| {
            let mut local: HashMap<Box<str>, usize> = HashMap::new();
            let mut terms: Vec<(Box<str>, Vec<NodeId>, Vec<u32>)> = Vec::new();
            let mut n_docs = 0u64;
            for i in range.clone() {
                let id = NodeId(i as u32);
                let text = tree_ref.text(id);
                if text.is_empty() {
                    continue;
                }
                n_docs += 1;
                for (tok, tf) in token_counts(text) {
                    let tok = tok.into_boxed_str();
                    let ti = *local.entry(tok.clone()).or_insert_with(|| {
                        terms.push((tok, Vec::new(), Vec::new()));
                        terms.len() - 1
                    });
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "ti was returned by the push that created the entry"
                    )]
                    terms[ti].1.push(id);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "ti was returned by the push that created the entry"
                    )]
                    terms[ti].2.push(tf);
                }
            }
            ChunkTokens { n_docs, terms }
        });
        // Deterministic merge: chunks in document order, terms in their
        // first-occurrence order within each chunk — global TermIds come
        // out identical to the single-pass serial assignment.
        let mut vocab: HashMap<Box<str>, TermId> = HashMap::new();
        let mut raw: Vec<(Vec<NodeId>, Vec<u32>)> = Vec::new();
        let mut names: Vec<Box<str>> = Vec::new();
        let mut n_docs = 0u64;
        for chunk in chunked {
            n_docs += chunk.n_docs;
            for (tok, mut posts, mut tfs) in chunk.terms {
                match vocab.entry(tok) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "vocab maps each term to its slot in raw"
                        )]
                        let (p, t) = &mut raw[e.get().0 as usize];
                        p.append(&mut posts);
                        t.append(&mut tfs);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        names.push(e.key().clone());
                        e.insert(TermId(raw.len() as u32));
                        raw.push((posts, tfs));
                    }
                }
            }
        }

        // Pass 2: tf-idf scores, normalized into (0, 1] by the global max.
        // Per-term map; the global max folds over per-term maxima in term
        // order (f64 max is exact — no rounding-order concerns).
        let model = TfIdf { n_docs: n_docs.max(1) };
        let scored: Vec<(Vec<f64>, f64)> = parallel_map(par, &raw, |_, (posts, tfs)| {
            let df = posts.len() as u64;
            let scores: Vec<f64> = tfs.iter().map(|&tf| model.raw(tf, df)).collect();
            let mx = scores.iter().fold(f64::MIN_POSITIVE, |a, &s| a.max(s));
            (scores, mx)
        });
        let max_raw = scored.iter().fold(f64::MIN_POSITIVE, |a, &(_, mx)| a.max(mx));
        let all_scores: Vec<Vec<f64>> = scored.into_iter().map(|(s, _)| s).collect();

        // Pass 3: physical structures per term.  The local score combines
        // the normalized tf-idf with a per-node "global importance" factor
        // (the paper's g may mix IR scores with link-based node scores);
        // a deterministic hash stands in for PageRank-style importance and
        // keeps scores spread out — without it, planted tf=1 terms would
        // all tie and every top-K threshold would be degenerate.
        let jd_ref = &jd;
        let built: Vec<TermStructures> = parallel_map(par, &raw, |i, (postings, _tfs)| {
            #[expect(clippy::indexing_slicing, reason = "all_scores has one entry per term of raw")]
            let scores: Vec<f32> = all_scores[i]
                .iter()
                .zip(postings)
                .map(|(&s, &node)| match opts.scorer {
                    LocalScorer::TfIdfQuality => (s / max_raw) as f32 * node_quality(node),
                    LocalScorer::TfIdf => (s / max_raw) as f32,
                    LocalScorer::Uniform => 1.0,
                })
                .collect();
            let columns = build_columns(tree_ref, jd_ref, postings);
            let segments = build_segments(tree_ref, postings, &scores);
            let histograms = columns
                .iter()
                .map(|c| {
                    if c.row_count() >= HISTOGRAM_MIN_ROWS {
                        Histogram::build(c)
                    } else {
                        None
                    }
                })
                .collect();
            let row_directories = RowDirectories::build(&columns);
            TermStructures { scores, columns, segments, histograms, row_directories }
        });
        let mut terms = Vec::with_capacity(raw.len());
        for (i, ((postings, _tfs), built)) in raw.into_iter().zip(built).enumerate() {
            terms.push(TermData {
                #[expect(clippy::indexing_slicing, reason = "names has one entry per term of raw")]
                term: std::mem::take(&mut names[i]),
                postings,
                max_score: max_score(&built.scores),
                scores: built.scores,
                columns: built.columns,
                segments: built.segments,
                histograms: built.histograms,
                row_directories: built.row_directories,
            });
        }

        Self { tree, jd, damping: opts.damping, vocab, terms, n_docs, generation: 0 }
    }

    /// Index generation (0 for a fresh build; see the field docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the index generation after a maintenance rebuild.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Builder-style [`XmlIndex::set_generation`].
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The indexed tree.
    #[inline]
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The JDewey assignment.
    #[inline]
    pub fn jd(&self) -> &JDeweyAssignment {
        &self.jd
    }

    /// The damping function used when propagating scores.
    #[inline]
    pub fn damping(&self) -> &Damping {
        &self.damping
    }

    /// Number of "documents" (nodes with direct text).
    #[inline]
    pub fn doc_count(&self) -> u64 {
        self.n_docs
    }

    /// Number of distinct terms.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.terms.len()
    }

    /// Looks a term up in the vocabulary (terms are stored lowercased).
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        if term.chars().any(|c| c.is_uppercase()) {
            self.vocab.get(term.to_lowercase().as_str()).copied()
        } else {
            self.vocab.get(term).copied()
        }
    }

    /// The physical structures of a term.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "term ids are issued by this index")]
    pub fn term(&self, id: TermId) -> &TermData {
        &self.terms[id.0 as usize]
    }

    /// Convenience: term data by string, if indexed.
    pub fn term_by_str(&self, term: &str) -> Option<&TermData> {
        self.term_id(term).map(|t| self.term(t))
    }

    /// Iterates over all `(TermId, TermData)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &TermData)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t))
    }

    /// Resolves a `(level, JDewey number)` pair to its node.
    #[inline]
    pub fn node_at(&self, level: u16, number: u32) -> Option<NodeId> {
        self.jd.node_at(level, number)
    }

    /// Replaces the occurrence scores of term `id` with `scores` (one per
    /// posting, aligned with the posting list) and rebuilds the
    /// score-derived structures: the top-K segment summaries and
    /// `max_score`.  JDewey columns, level histograms and row directories
    /// depend only on structure and are kept as-is.
    ///
    /// This is the hook `xtk-core::shard` uses to stamp *corpus-global*
    /// tf-idf scores onto a per-shard index, so a result's score is
    /// bit-identical no matter which shard computed it.  Returns `false`
    /// (and changes nothing) when `id` is unknown or the length does not
    /// match the posting list.
    pub fn override_scores(&mut self, id: TermId, scores: Vec<f32>) -> bool {
        let tree = &self.tree;
        let Some(t) = self.terms.get_mut(id.0 as usize) else { return false };
        if scores.len() != t.postings.len() {
            return false;
        }
        t.segments = build_segments(tree, &t.postings, &scores);
        t.max_score = max_score(&scores);
        t.scores = scores;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    fn index(xml: &str) -> XmlIndex {
        XmlIndex::build(parse(xml).unwrap())
    }

    #[test]
    fn vocabulary_and_postings() {
        let ix = index("<r><a>xml data</a><b>xml</b><c>keyword search</c></r>");
        assert_eq!(ix.vocab_size(), 4);
        let xml = ix.term_by_str("xml").unwrap();
        assert_eq!(xml.len(), 2);
        assert_eq!(ix.term_by_str("data").unwrap().len(), 1);
        assert!(ix.term_by_str("missing").is_none());
        // Case-insensitive lookup.
        assert!(ix.term_id("XML").is_some());
    }

    #[test]
    fn postings_in_document_order() {
        let ix = index("<r><a>w</a><b><c>w</c></b><d>w</d></r>");
        let t = ix.term_by_str("w").unwrap();
        let mut sorted = t.postings.clone();
        sorted.sort();
        assert_eq!(t.postings, sorted);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn scores_are_normalized_and_positive() {
        let ix = index("<r><a>rare</a><b>common common</b><c>common</c></r>");
        for (_, t) in ix.terms() {
            for &s in &t.scores {
                assert!(s > 0.0 && s <= 1.0, "score {s} out of range");
            }
        }
        // A rarer term outscores a more common one at equal tf.
        let rare = ix.term_by_str("rare").unwrap().scores[0];
        let common = ix.term_by_str("common").unwrap().scores[1]; // tf=1 occurrence
        assert!(rare > common);
        // Higher tf outscores lower tf for the same term.
        let t = ix.term_by_str("common").unwrap();
        assert!(t.scores[0] > t.scores[1]);
    }

    #[test]
    fn columns_match_posting_depths() {
        let ix = index("<r><a><p>deep</p></a><b>deep</b></r>");
        let t = ix.term_by_str("deep").unwrap();
        assert_eq!(t.max_len(), 3);
        assert_eq!(t.columns[0].row_count(), 2); // both under root
        assert_eq!(t.columns[2].row_count(), 1); // only the level-3 posting
    }

    #[test]
    fn segments_and_score_rows_are_consistent() {
        let ix = index("<r><a>w</a><b><c>w</c></b><d>w w w</d></r>");
        let t = ix.term_by_str("w").unwrap();
        // Each segment's rows are score-descending; together they are
        // every row once.
        let mut seg_rows: Vec<u32> = t.segments.iter().flat_map(|s| s.rows.clone()).collect();
        for s in &t.segments {
            for w in s.rows.windows(2) {
                assert!(t.scores[w[0] as usize] >= t.scores[w[1] as usize]);
            }
        }
        seg_rows.sort_unstable();
        assert_eq!(seg_rows, (0..t.len() as u32).collect::<Vec<_>>());
    }

    /// The bit pattern of the largest score, by a plain scan.
    fn largest_bits(scores: &[f32]) -> u32 {
        scores.iter().fold(0.0f32, |m, &s| if s > m { s } else { m }).to_bits()
    }

    #[test]
    fn max_score_is_the_largest_score_bit_for_bit() {
        // "solo" has one posting; "w" many, with scores spread by tf.
        let mut xml = String::from("<r><z>solo</z>");
        for i in 0..40 {
            xml.push_str(&format!("<p>{}</p>", "w ".repeat(1 + i % 4)));
        }
        xml.push_str("</r>");
        let mut ix = index(&xml);
        for (_, t) in ix.terms() {
            assert_eq!(t.max_score.to_bits(), largest_bits(&t.scores), "{}", t.term);
        }
        let solo = ix.term_by_str("solo").unwrap();
        assert_eq!(solo.max_score.to_bits(), solo.scores[0].to_bits());

        // After override_scores: a tied maximum, then a single posting.
        let w = ix.term_id("w").unwrap();
        let rows = ix.term(w).len();
        let tied: Vec<f32> = (0..rows).map(|i| if i % 9 == 3 { 0.875 } else { 0.25 }).collect();
        assert!(ix.override_scores(w, tied));
        assert_eq!(ix.term(w).max_score.to_bits(), 0.875f32.to_bits());
        let solo = ix.term_id("solo").unwrap();
        assert!(ix.override_scores(solo, vec![0.125]));
        assert_eq!(ix.term(solo).max_score.to_bits(), 0.125f32.to_bits());
        // A rejected override changes nothing.
        assert!(!ix.override_scores(solo, vec![0.5, 0.5]));
        assert_eq!(ix.term(solo).max_score.to_bits(), 0.125f32.to_bits());
    }

    #[test]
    fn doc_count_counts_text_nodes() {
        let ix = index("<r><a>x</a><b/><c>y</c></r>");
        assert_eq!(ix.doc_count(), 2);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Enough text nodes to spread across many chunks, with terms that
        // recur across chunk boundaries so the vocabulary merge is
        // actually exercised.
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<p>shared term{} shared{} x</p>", i % 17, i % 5));
        }
        xml.push_str("</r>");
        let tree = parse(&xml).unwrap();
        let serial = XmlIndex::build_with(tree.clone(), IndexOptions::default());
        assert!(serial.term_by_str("shared").unwrap().row_directory(2).is_some());
        let settings =
            [Parallelism::Fixed(2), Parallelism::Fixed(3), Parallelism::Fixed(8), Parallelism::Auto];
        for par in settings {
            let p = XmlIndex::build_with(
                tree.clone(),
                IndexOptions { parallelism: par, ..Default::default() },
            );
            assert_eq!(p.vocab_size(), serial.vocab_size(), "{par}");
            assert_eq!(p.doc_count(), serial.doc_count(), "{par}");
            for ((_, a), (_, b)) in serial.terms().zip(p.terms()) {
                // Same TermId order, same postings, bit-identical scores,
                // same physical structures.
                assert_eq!(a.term, b.term, "{par}");
                assert_eq!(a.postings, b.postings, "{par} {}", a.term);
                let sa: Vec<u32> = a.scores.iter().map(|s| s.to_bits()).collect();
                let sb: Vec<u32> = b.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(sa, sb, "{par} {}", a.term);
                assert_eq!(a.columns, b.columns, "{par} {}", a.term);
                assert_eq!(a.max_score.to_bits(), b.max_score.to_bits(), "{par} {}", a.term);
                assert_eq!(a.row_directories, b.row_directories, "{par} {}", a.term);
            }
        }
    }

    #[test]
    fn override_scores_keeps_the_row_directories() {
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!("<p>w<q>w {}</q></p>", "w ".repeat(i % 3)));
        }
        xml.push_str("</r>");
        let tree = parse(&xml).unwrap();
        let fresh = XmlIndex::build(tree.clone());
        let mut stamped = XmlIndex::build(tree);
        let id = stamped.term_id("w").unwrap();
        let rows = stamped.term(id).len();
        let scores: Vec<f32> = (0..rows).map(|i| 1.0 / (1 + i % 7) as f32).collect();
        assert!(stamped.override_scores(id, scores));
        assert_ne!(stamped.term(id).segments, fresh.term(id).segments);
        assert!(fresh.term(id).row_directory(1).is_none(), "one run: the root");
        assert!(fresh.term(id).row_directory(2).is_some());
        assert_eq!(stamped.term(id).row_directories, fresh.term(id).row_directories);
    }

    #[test]
    fn attribute_text_is_indexed() {
        let ix = index(r#"<r><paper year="2010">xml</paper></r>"#);
        assert!(ix.term_by_str("2010").is_some());
        assert!(ix.term_by_str("xml").is_some());
    }

    #[test]
    fn scorer_variants_produce_expected_ranges() {
        let tree = parse("<r><a>x x y</a><b>x</b></r>").unwrap();
        for scorer in [LocalScorer::TfIdfQuality, LocalScorer::TfIdf, LocalScorer::Uniform] {
            let ix = XmlIndex::build_with(
                tree.clone(),
                IndexOptions { scorer, ..Default::default() },
            );
            for (_, t) in ix.terms() {
                for &s in &t.scores {
                    assert!(s > 0.0 && s <= 1.0, "{scorer:?}: {s}");
                }
            }
            if scorer == LocalScorer::Uniform {
                assert!(ix.term_by_str("x").unwrap().scores.iter().all(|&s| s == 1.0));
            }
            if scorer == LocalScorer::TfIdf {
                // tf=2 occurrence outscores tf=1 deterministically.
                let x = ix.term_by_str("x").unwrap();
                assert!(x.scores[0] > x.scores[1]);
            }
        }
    }
}
