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
//! All of them live in one flat arena per index ([`crate::terms`]), read
//! through the [`TermData`] view [`XmlIndex::term`] returns.
//!
//! The build runs on its caller's thread in three passes: tokenize the
//! tree into per-term postings, find the largest raw score, then write
//! each term's structures into the arena in term order.  A parallel
//! build did not pay on two cores and slowed this one (DESIGN §6, §16).
//!
//! What only the evaluation baselines read — subtree ranges and RDIL's
//! score-descending permutation — is derived on demand by `xtk-baselines`,
//! and the Dewey ids Table I prices by [`crate::sizes`].

use crate::columnar::{run_count, ColumnScratch};
use crate::score::{Damping, TfIdf};
use crate::terms::{TermArena, TermData};
use crate::text::token_counts;
use std::collections::HashMap;
use std::ops::Range;
use xtk_xml::jdewey::JDeweyAssignment;
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

/// A contiguous range of an index's nodes (a document shard).  Postings
/// are in document order, so a term's postings in the range are one row
/// range of its lists; JDewey numbers are unique per level and monotone in
/// parent order (§III-A), so a range of whole documents is one row range
/// of every column too, and no run at level 2 or deeper crosses its edge.
#[derive(Debug, Clone)]
pub struct Slice {
    nodes: Range<u32>,
}

impl Slice {
    /// The rows of the postings `postings` (a term's, in document order)
    /// inside the range.
    pub fn rows(&self, postings: &[NodeId]) -> Range<usize> {
        postings.partition_point(|n| n.0 < self.nodes.start)
            ..postings.partition_point(|n| n.0 < self.nodes.end)
    }
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

/// One term's local scores `g(v, w)`, posting by posting: its raw tf-idf
/// normalized by the corpus maximum `max_raw`, then mixed per `scorer`.
fn local_scores<'a>(
    postings: &'a [NodeId],
    tfs: &'a [u32],
    model: TfIdf,
    max_raw: f64,
    scorer: LocalScorer,
) -> impl Iterator<Item = f32> + 'a {
    let df = postings.len() as u64;
    tfs.iter().zip(postings).map(move |(&tf, &node)| {
        let s = model.raw(tf, df);
        match scorer {
            LocalScorer::TfIdfQuality => (s / max_raw) as f32 * node_quality(node),
            LocalScorer::TfIdf => (s / max_raw) as f32,
            LocalScorer::Uniform => 1.0,
        }
    })
}

/// Options for [`XmlIndex::build_with`].
#[derive(Debug, Clone, Default)]
pub struct IndexOptions {
    /// Damping function for score propagation (default λ = 0.9).
    pub damping: Damping,
    /// JDewey reservation gap (spare numbers per parent; default 0 —
    /// static corpora need no reserve and Table I reports it separately).
    pub jdewey_gap: u32,
    /// The local scoring function `g(v, w)`.
    pub scorer: LocalScorer,
}

/// The unified in-memory index over one XML document.
///
/// Owns the tree plus its JDewey encoding, the vocabulary, and the
/// per-term physical structures the join-based engines serve from.
///
/// The per-term structures sit in flat arrays addressed by `u32` offsets,
/// so an index holds at most `u32::MAX` postings, column runs, columns and
/// segments over all its terms; a build past that panics instead of
/// storing wrapped offsets.
#[derive(Debug)]
pub struct XmlIndex {
    tree: XmlTree,
    jd: JDeweyAssignment,
    damping: Damping,
    vocab: HashMap<Box<str>, TermId>,
    terms: TermArena,
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

    /// Builds the index with explicit options, on the calling thread.
    pub fn build_with(tree: XmlTree, opts: IndexOptions) -> Self {
        let jd = JDeweyAssignment::assign(&tree, opts.jdewey_gap);

        // Pass 1: postings with term frequencies, in document order.  A
        // term's id is its first occurrence's rank, and its name goes into
        // the arena as it is met.
        let mut vocab: HashMap<Box<str>, TermId> = HashMap::new();
        let mut raw: Vec<(Vec<NodeId>, Vec<u32>)> = Vec::new();
        let mut terms = TermArena::default();
        let mut n_docs = 0u64;
        for i in 0..tree.len() {
            let id = NodeId(i as u32);
            let text = tree.text(id);
            if text.is_empty() {
                continue;
            }
            n_docs += 1;
            for (tok, tf) in token_counts(text) {
                let ti = match vocab.get(tok.as_str()) {
                    Some(t) => t.0 as usize,
                    None => {
                        terms.push_name(&tok);
                        vocab.insert(tok.into_boxed_str(), TermId(raw.len() as u32));
                        raw.push((Vec::new(), Vec::new()));
                        raw.len() - 1
                    }
                };
                if let Some((posts, tfs)) = raw.get_mut(ti) {
                    posts.push(id);
                    tfs.push(tf);
                }
            }
        }

        // Pass 2: the largest raw tf-idf score, which normalizes every
        // score into (0, 1].  Per-term maxima fold in term order (f64 max
        // is exact — no rounding-order concerns); Pass 3 recomputes each
        // raw score, bit for bit, where it stores it.  Alongside, each
        // term's column and run counts, which size the arena.
        let model = TfIdf { n_docs: n_docs.max(1) };
        let per_term: Vec<(f64, usize, usize)> = raw
            .iter()
            .map(|(posts, tfs)| {
                let df = posts.len() as u64;
                let max = tfs.iter().fold(f64::MIN_POSITIVE, |a, &tf| a.max(model.raw(tf, df)));
                let cols = posts.iter().map(|&n| usize::from(tree.depth(n))).max().unwrap_or(0);
                (max, cols, run_count(&tree, posts))
            })
            .collect();
        let max_raw = per_term.iter().fold(f64::MIN_POSITIVE, |a, t| a.max(t.0));

        // Pass 3: physical structures per term, written straight into the
        // arena, each term's raw lists dropped once its structures are in.
        // The local score combines the normalized tf-idf with a per-node
        // "global importance" factor (the paper's g may mix IR scores with
        // link-based node scores); a deterministic hash stands in for
        // PageRank-style importance and keeps scores spread out — without
        // it, planted tf=1 terms would all tie and every top-K threshold
        // would be degenerate.
        let rows = raw.iter().map(|(p, _)| p.len()).sum();
        let (cols, runs) = per_term.iter().fold((0, 0), |(c, r), t| (c + t.1, r + t.2));
        terms.reserve(raw.len(), rows, cols, runs);
        let mut scratch = ColumnScratch::default();
        for (posts, tfs) in raw {
            let scores = local_scores(&posts, &tfs, model, max_raw, opts.scorer);
            terms.push_term(&tree, &jd, &posts, scores, &mut scratch);
        }
        terms.shrink_to_fit();

        Self { tree, jd, damping: opts.damping, vocab, terms, n_docs, generation: 0 }
    }

    /// Index generation (0 for a fresh build; see the field docs).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the index generation after a maintenance rebuild.
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

    /// The physical structures of a term; an empty term for an id this
    /// index did not issue.
    #[inline]
    pub fn term(&self, id: TermId) -> TermData<'_> {
        self.terms.term(id.0 as usize)
    }

    /// Convenience: term data by string, if indexed.
    pub fn term_by_str(&self, term: &str) -> Option<TermData<'_>> {
        self.term_id(term).map(|t| self.term(t))
    }

    /// Iterates over all `(TermId, TermData)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, TermData<'_>)> {
        (0..self.terms.len()).map(|i| (TermId(i as u32), self.terms.term(i)))
    }

    /// Resolves a `(level, JDewey number)` pair to its node.
    #[inline]
    pub fn node_at(&self, level: u16, number: u32) -> Option<NodeId> {
        self.jd.node_at(level, number)
    }

    /// The nodes `nodes` as a [`Slice`].
    pub fn slice(&self, nodes: Range<NodeId>) -> Slice {
        Slice { nodes: nodes.start.0..nodes.end.0 }
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
        let mut sorted = t.postings().to_vec();
        sorted.sort();
        assert_eq!(t.postings(), sorted);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn scores_are_normalized_and_positive() {
        let ix = index("<r><a>rare</a><b>common common</b><c>common</c></r>");
        for (_, t) in ix.terms() {
            for &s in t.scores() {
                assert!(s > 0.0 && s <= 1.0, "score {s} out of range");
            }
        }
        // A rarer term outscores a more common one at equal tf.
        let rare = ix.term_by_str("rare").unwrap().scores()[0];
        let common = ix.term_by_str("common").unwrap().scores()[1]; // tf=1 occurrence
        assert!(rare > common);
        // Higher tf outscores lower tf for the same term.
        let t = ix.term_by_str("common").unwrap();
        assert!(t.scores()[0] > t.scores()[1]);
    }

    #[test]
    fn columns_match_posting_depths() {
        let ix = index("<r><a><p>deep</p></a><b>deep</b></r>");
        let t = ix.term_by_str("deep").unwrap();
        assert_eq!(t.max_len(), 3);
        assert_eq!(t.column(1).unwrap().row_count(), 2); // both under root
        assert_eq!(t.column(3).unwrap().row_count(), 1); // only the level-3 posting
    }

    #[test]
    fn segments_and_score_rows_are_consistent() {
        let ix = index("<r><a>w</a><b><c>w</c></b><d>w w w</d></r>");
        let t = ix.term_by_str("w").unwrap();
        // Each segment's rows are score-descending; together they are
        // every row once.
        let mut seg_rows: Vec<u32> = t.segments().flat_map(|s| s.rows.iter().copied()).collect();
        for s in t.segments() {
            for w in s.rows.windows(2) {
                assert!(t.scores()[w[0] as usize] >= t.scores()[w[1] as usize]);
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
        let ix = index(&xml);
        for (_, t) in ix.terms() {
            assert_eq!(t.max_score().to_bits(), largest_bits(t.scores()), "{}", t.name());
        }
        let solo = ix.term_by_str("solo").unwrap();
        assert_eq!(solo.max_score().to_bits(), solo.scores()[0].to_bits());
    }

    #[test]
    fn an_unknown_term_id_is_an_empty_term() {
        let ix = index("<r><a>xml data</a></r>");
        let t = ix.term(TermId(ix.vocab_size() as u32));
        assert!(t.is_empty() && t.postings().is_empty() && t.scores().is_empty());
        assert_eq!((t.name(), t.max_len()), ("", 0));
        assert_eq!(t.max_score().to_bits(), 0f32.to_bits());
        assert!(t.column(1).is_none() && t.columns().next().is_none());
        assert!(t.segments().next().is_none());
        assert!(t.histogram(1).is_none() && t.row_directory(1).is_none());
    }

    #[test]
    fn doc_count_counts_text_nodes() {
        let ix = index("<r><a>x</a><b/><c>y</c></r>");
        assert_eq!(ix.doc_count(), 2);
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
                for &s in t.scores() {
                    assert!(s > 0.0 && s <= 1.0, "{scorer:?}: {s}");
                }
            }
            if scorer == LocalScorer::Uniform {
                assert!(ix.term_by_str("x").unwrap().scores().iter().all(|&s| s == 1.0));
            }
            if scorer == LocalScorer::TfIdf {
                // tf=2 occurrence outscores tf=1 deterministically.
                let x = ix.term_by_str("x").unwrap();
                assert!(x.scores()[0] > x.scores()[1]);
            }
        }
    }
}
