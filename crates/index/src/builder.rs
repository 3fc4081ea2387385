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
//! What only the evaluation baselines read — subtree ranges and RDIL's
//! score-descending permutation — is derived on demand by `xtk-baselines`,
//! and the Dewey ids Table I prices by [`crate::sizes`].

use crate::columnar::{run_count, ColumnScratch};
use crate::score::{Damping, TfIdf};
use crate::terms::{TermArena, TermData};
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

/// Terms per Pass 3 task of a parallel build, and tasks per worker per
/// wave: a wave's arenas are appended to the index before the next wave
/// starts, so the build never holds a second copy of every term.  No
/// workload builds in parallel (perfbench and the shard builds are
/// serial), so neither value has been tuned, nor the memory of a wave
/// measured.
const PASS3_TASK_TERMS: usize = 256;
const PASS3_TASKS_PER_WORKER: usize = 4;

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
        let mut terms = TermArena::default();
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
                        terms.push_name(e.key());
                        e.insert(TermId(raw.len() as u32));
                        raw.push((posts, tfs));
                    }
                }
            }
        }

        // Pass 2: the largest raw tf-idf score, which normalizes every
        // score into (0, 1].  Per-term maxima fold in term order (f64 max
        // is exact — no rounding-order concerns); Pass 3 recomputes each
        // raw score, bit for bit, where it stores it.  Alongside, each
        // term's column and run counts, which size the arena.
        let model = TfIdf { n_docs: n_docs.max(1) };
        let per_term: Vec<(f64, usize, usize)> = parallel_map(par, &raw, |_, (posts, tfs)| {
            let df = posts.len() as u64;
            let max = tfs.iter().fold(f64::MIN_POSITIVE, |a, &tf| a.max(model.raw(tf, df)));
            let cols = posts.iter().map(|&n| usize::from(tree_ref.depth(n))).max().unwrap_or(0);
            (max, cols, run_count(tree_ref, posts))
        });
        let max_raw = per_term.iter().fold(f64::MIN_POSITIVE, |a, t| a.max(t.0));

        // Pass 3: physical structures per term, written into the arena.
        // The local score combines the normalized tf-idf with a per-node
        // "global importance" factor (the paper's g may mix IR scores with
        // link-based node scores); a deterministic hash stands in for
        // PageRank-style importance and keeps scores spread out — without
        // it, planted tf=1 terms would all tie and every top-K threshold
        // would be degenerate.
        let scorer = opts.scorer;
        let rows = raw.iter().map(|(p, _)| p.len()).sum();
        let (cols, runs) = per_term.iter().fold((0, 0), |(c, r), t| (c + t.1, r + t.2));
        terms.reserve(raw.len(), rows, cols, runs);
        let jd_ref = &jd;
        let push =
            |arena: &mut TermArena, scratch: &mut ColumnScratch, posts: &[NodeId], tfs: &[u32]| {
                let scores = local_scores(posts, tfs, model, max_raw, scorer);
                arena.push_term(tree_ref, jd_ref, posts, scores, scratch);
            };
        if par.workers() <= 1 {
            // Straight into the index, each term's raw lists dropped once
            // its structures are in.  Running the waves below inline
            // instead costs 15–35 MB of peak resident memory on perfbench's
            // corpus: the task arenas' allocations and frees fragment the
            // heap (DESIGN §16).
            let mut scratch = ColumnScratch::default();
            for (posts, tfs) in raw {
                push(&mut terms, &mut scratch, &posts, &tfs);
            }
        } else {
            // Waves of contiguous term ranges: each task builds a small
            // arena, appended in term order — the same arrays the serial
            // loop writes — and a wave's raw lists are dropped before the
            // next wave starts.
            let tasks = chunk_ranges(raw.len(), raw.len().div_ceil(PASS3_TASK_TERMS));
            for wave in tasks.chunks(par.workers() * PASS3_TASKS_PER_WORKER) {
                let raw_ref = &raw;
                let parts = parallel_map(par, wave, |_, range| {
                    let mut part = TermArena::default();
                    let mut scratch = ColumnScratch::default();
                    for (posts, tfs) in raw_ref.get(range.clone()).unwrap_or_default() {
                        push(&mut part, &mut scratch, posts, tfs);
                    }
                    part
                });
                for part in parts {
                    terms.append(part);
                }
                let done = wave.first().map_or(0, |r| r.start)..wave.last().map_or(0, |r| r.end);
                raw.get_mut(done).unwrap_or_default().iter_mut().for_each(|e| *e = Default::default());
            }
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

    /// Replaces the occurrence scores of term `id` with `scores` (one per
    /// posting, aligned with the posting list) and rewrites the
    /// score-derived structures in place: the order of the top-K segment
    /// rows, their heads and `max_score`.  JDewey columns, level
    /// histograms and row directories depend only on structure and are
    /// kept as-is; no other term changes.
    ///
    /// This is the hook `xtk-core::shard` uses to stamp *corpus-global*
    /// tf-idf scores onto a per-shard index, so a result's score is
    /// bit-identical no matter which shard computed it.  Returns `false`
    /// (and changes nothing) when `id` is unknown or the length does not
    /// match the posting list.
    pub fn override_scores(&mut self, id: TermId, scores: &[f32]) -> bool {
        self.terms.restamp(&self.tree, id.0 as usize, scores)
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
        let mut ix = index(&xml);
        for (_, t) in ix.terms() {
            assert_eq!(t.max_score().to_bits(), largest_bits(t.scores()), "{}", t.name());
        }
        let solo = ix.term_by_str("solo").unwrap();
        assert_eq!(solo.max_score().to_bits(), solo.scores()[0].to_bits());

        // After override_scores: a tied maximum, then a single posting.
        let w = ix.term_id("w").unwrap();
        let rows = ix.term(w).len();
        let tied: Vec<f32> = (0..rows).map(|i| if i % 9 == 3 { 0.875 } else { 0.25 }).collect();
        assert!(ix.override_scores(w, &tied));
        assert_eq!(ix.term(w).max_score().to_bits(), 0.875f32.to_bits());
        let solo = ix.term_id("solo").unwrap();
        assert!(ix.override_scores(solo, &[0.125]));
        assert_eq!(ix.term(solo).max_score().to_bits(), 0.125f32.to_bits());
        // A rejected override changes nothing.
        assert!(!ix.override_scores(solo, &[0.5, 0.5]));
        assert_eq!(ix.term(solo).max_score().to_bits(), 0.125f32.to_bits());
        assert!(!ix.override_scores(TermId(u32::MAX), &[]));
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
                assert_eq!(a.name(), b.name(), "{par}");
                assert_eq!(a.postings(), b.postings(), "{par} {}", a.name());
                let sa: Vec<u32> = a.scores().iter().map(|s| s.to_bits()).collect();
                let sb: Vec<u32> = b.scores().iter().map(|s| s.to_bits()).collect();
                assert_eq!(sa, sb, "{par} {}", a.name());
                assert!(a.columns().eq(b.columns()), "{par} {}", a.name());
                assert_eq!(a.max_score().to_bits(), b.max_score().to_bits(), "{par} {}", a.name());
                for level in 1..=a.max_len() {
                    assert_eq!(a.row_directory(level), b.row_directory(level), "{par} {}", a.name());
                }
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
        assert!(stamped.override_scores(id, &scores));
        assert!(!stamped.term(id).segments().eq(fresh.term(id).segments()));
        assert!(fresh.term(id).row_directory(1).is_none(), "one run: the root");
        assert!(fresh.term(id).row_directory(2).is_some());
        for level in 1..=fresh.term(id).max_len() {
            assert_eq!(stamped.term(id).row_directory(level), fresh.term(id).row_directory(level));
        }
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
