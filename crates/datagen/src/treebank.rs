//! A Treebank-like deep-tree generator.
//!
//! DBLP is shallow (depth 5) and XMark moderate (depth ~6–8); parse-tree
//! corpora like the Penn Treebank reach depth 30+.  Depth is where the
//! join-based algorithm's bottom-up start pays off: evaluation begins at
//! `l_0 = min_i l_m^i`, so keywords that live high in the tree never touch
//! the deep columns at all ("this would save disk I/O when the XML tree is
//! deep and some keywords only appear at high levels", §III-B).
//!
//! The generated document is `file / sentence* / recursive phrase nodes`
//! with geometric branching, plus per-depth-band planting hooks so
//! experiments can position keywords at chosen depths.

use crate::vocab::Vocab;
use crate::{plant_terms, PlantedTerm};
use xtk_xml::testutil::Rng;
use xtk_xml::tree::NodeId;
use xtk_xml::XmlTree;

/// Configuration of the Treebank-like generator.
#[derive(Debug, Clone)]
pub struct TreebankConfig {
    /// Number of sentence subtrees.
    pub sentences: usize,
    /// Maximum phrase-nesting depth below a sentence.
    pub max_depth: u16,
    /// Probability that a phrase node nests another phrase (vs a leaf).
    pub branch_prob: f64,
    /// Children per phrase node (1..=this).
    pub max_children: usize,
    /// Background vocabulary size.
    pub vocab_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Terms planted into **shallow** phrase nodes (depth <= 4).
    pub planted_shallow: Vec<PlantedTerm>,
    /// Terms planted into **deep** leaf nodes (the deepest band).
    pub planted_deep: Vec<PlantedTerm>,
}

impl Default for TreebankConfig {
    fn default() -> Self {
        Self {
            sentences: 200,
            max_depth: 16,
            branch_prob: 0.7,
            max_children: 3,
            vocab_size: 5_000,
            seed: 0x7B,
            planted_shallow: Vec::new(),
            planted_deep: Vec::new(),
        }
    }
}

/// A generated deep corpus.
#[derive(Debug)]
pub struct TreebankCorpus {
    /// The document.
    pub tree: XmlTree,
    /// Nodes at depth <= 4 with text (shallow planting targets).
    pub shallow: Vec<NodeId>,
    /// Leaf nodes in the deepest quartile (deep planting targets).
    pub deep: Vec<NodeId>,
}

const PHRASES: [&str; 6] = ["np", "vp", "pp", "adjp", "advp", "sbar"];

/// Generates the corpus.
pub fn generate(cfg: &TreebankConfig) -> TreebankCorpus {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let vocab = Vocab::new(cfg.vocab_size, 1.05);
    let mut tree = XmlTree::new();
    let root = tree.add_root("file");
    let mut shallow = Vec::new();
    let mut leaves: Vec<(NodeId, u16)> = Vec::new();

    for _ in 0..cfg.sentences {
        let sentence = tree.add_child(root, "sentence");
        // A short topic line directly on the sentence (shallow text).
        let mut topic = String::new();
        vocab.sentence_into(&mut rng, 2, &mut topic);
        tree.append_text(sentence, &topic);
        shallow.push(sentence);
        grow(&mut tree, sentence, 3, cfg, &vocab, &mut rng, &mut shallow, &mut leaves);
    }

    // Deep band: deepest quartile of leaves.
    let max_leaf_depth = leaves.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let cut = max_leaf_depth.saturating_sub(max_leaf_depth / 4).max(5);
    let deep: Vec<NodeId> =
        leaves.iter().filter(|&&(_, d)| d >= cut).map(|&(n, _)| n).collect();

    plant_terms(&mut tree, &shallow, &cfg.planted_shallow, &mut rng);
    plant_terms(&mut tree, &deep, &cfg.planted_deep, &mut rng);
    TreebankCorpus { tree, shallow, deep }
}

#[allow(clippy::too_many_arguments)]
fn grow(
    tree: &mut XmlTree,
    parent: NodeId,
    depth: u16,
    cfg: &TreebankConfig,
    vocab: &Vocab,
    rng: &mut Rng,
    shallow: &mut Vec<NodeId>,
    leaves: &mut Vec<(NodeId, u16)>,
) {
    let n_children = rng.gen_range(1..cfg.max_children + 1);
    for _ in 0..n_children {
        #[expect(clippy::indexing_slicing, reason = "gen_range(0..len) is below the length")]
        let label = PHRASES[rng.gen_range(0..PHRASES.len())];
        let node = tree.add_child(parent, label);
        if depth <= 4 {
            shallow.push(node);
        }
        let nest = depth < cfg.max_depth + 2 && rng.gen_bool(cfg.branch_prob);
        if nest {
            grow(tree, node, depth + 1, cfg, vocab, rng, shallow, leaves);
        } else {
            let mut text = String::new();
            let words = rng.gen_range(1..4);
            vocab.sentence_into(rng, words, &mut text);
            tree.append_text(node, &text);
            leaves.push((node, depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::stats::TreeStats;

    #[test]
    fn trees_are_deep() {
        let corpus = generate(&TreebankConfig { sentences: 50, ..Default::default() });
        let st = TreeStats::compute(&corpus.tree);
        assert!(st.max_depth >= 10, "depth {}", st.max_depth);
        assert!(!corpus.deep.is_empty());
        assert!(!corpus.shallow.is_empty());
        // Band invariants.
        for &n in &corpus.shallow {
            assert!(corpus.tree.depth(n) <= 4);
        }
        let min_deep = corpus.deep.iter().map(|&n| corpus.tree.depth(n)).min().unwrap();
        assert!(min_deep >= 5);
    }

    #[test]
    fn planting_into_bands() {
        let corpus = generate(&TreebankConfig {
            sentences: 80,
            planted_shallow: vec![PlantedTerm::new("hi_term", 20)],
            planted_deep: vec![PlantedTerm::new("lo_term", 20)],
            ..Default::default()
        });
        let t = &corpus.tree;
        let depth_of = |w: &str| -> Vec<u16> {
            t.ids()
                .filter(|&i| t.text(i).split_whitespace().any(|x| x == w))
                .map(|i| t.depth(i))
                .collect()
        };
        let hi = depth_of("hi_term");
        let lo = depth_of("lo_term");
        assert_eq!(hi.len(), 20);
        assert_eq!(lo.len(), 20);
        assert!(hi.iter().all(|&d| d <= 4));
        let min_lo = *lo.iter().min().unwrap();
        let max_hi = *hi.iter().max().unwrap();
        assert!(min_lo > max_hi, "deep band ({min_lo}) must sit below shallow ({max_hi})");
    }

    #[test]
    fn deterministic() {
        let cfg = TreebankConfig { sentences: 20, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.tree.len(), b.tree.len());
    }
}
