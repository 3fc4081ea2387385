//! The DBLP-like corpus generator.
//!
//! The paper re-groups the (originally flat) DBLP document "firstly by
//! conference/journal names, and then by years", yielding
//!
//! ```text
//! dblp / conf / year / paper { @key, title, author* }
//! ```
//!
//! which is the shape generated here (titles at level 5, authors at level
//! 5, attribute pseudo-nodes at level 5).  Background title text is
//! Zipfian; planted terms land in titles (and optionally authors, to
//! spread posting depths) with exact frequencies.

use crate::vocab::{author_name, conf_name, Vocab};
use crate::{plant_terms, PlantedTerm};
use xtk_xml::testutil::Rng;
use xtk_xml::tree::NodeId;
use xtk_xml::XmlTree;

/// Configuration of the DBLP-like generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of conference elements.
    pub conferences: usize,
    /// Year elements per conference.
    pub years_per_conf: usize,
    /// Paper elements per year.
    pub papers_per_year: usize,
    /// Background words per title.
    pub title_words: usize,
    /// Authors per paper.
    pub authors_per_paper: usize,
    /// Background vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the background vocabulary.
    pub zipf_s: f64,
    /// RNG seed — same seed, same corpus.
    pub seed: u64,
    /// Terms planted with exact frequencies/correlations.
    pub planted: Vec<PlantedTerm>,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            conferences: 50,
            years_per_conf: 5,
            papers_per_year: 20,
            title_words: 8,
            authors_per_paper: 2,
            vocab_size: 10_000,
            zipf_s: 1.07,
            seed: 0xD812,
            planted: Vec::new(),
        }
    }
}

impl DblpConfig {
    /// Total number of paper elements (= planting capacity of titles).
    pub fn paper_count(&self) -> usize {
        self.conferences * self.years_per_conf * self.papers_per_year
    }
}

/// A generated corpus: the tree plus the node groups planting used, so
/// tests and workloads can target specific context levels.
#[derive(Debug)]
pub struct DblpCorpus {
    /// The document.
    pub tree: XmlTree,
    /// All title nodes (document order).
    pub titles: Vec<NodeId>,
    /// All author nodes (document order).
    pub authors: Vec<NodeId>,
}

/// Generates the corpus.
pub fn generate(cfg: &DblpConfig) -> DblpCorpus {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let vocab = Vocab::new(cfg.vocab_size, cfg.zipf_s);
    let mut tree = XmlTree::with_capacity(
        2 + cfg.paper_count() * (3 + cfg.authors_per_paper),
    );
    let root = tree.add_root("dblp");
    let mut titles = Vec::with_capacity(cfg.paper_count());
    let mut authors = Vec::with_capacity(cfg.paper_count() * cfg.authors_per_paper);
    let mut key = 0usize;
    for c in 0..cfg.conferences {
        let conf = tree.add_child(root, "conf");
        let name = tree.add_child(conf, "@name");
        tree.append_text(name, &conf_name(c));
        for y in 0..cfg.years_per_conf {
            let year = tree.add_child(conf, "year");
            let yv = tree.add_child(year, "@value");
            tree.append_text(yv, &format!("{}", 1970 + y));
            for _ in 0..cfg.papers_per_year {
                let paper = tree.add_child(year, "paper");
                let kattr = tree.add_child(paper, "@key");
                tree.append_text(kattr, &format!("key{key}"));
                key += 1;
                let title = tree.add_child(paper, "title");
                let mut text = String::new();
                vocab.sentence_into(&mut rng, cfg.title_words, &mut text);
                tree.append_text(title, &text);
                titles.push(title);
                for _ in 0..cfg.authors_per_paper {
                    let author = tree.add_child(paper, "author");
                    tree.append_text(author, &author_name(&mut rng, 997));
                    authors.push(author);
                }
            }
        }
    }
    plant_terms(&mut tree, &titles, &cfg.planted, &mut rng);
    DblpCorpus { tree, titles, authors }
}

/// Plants additional terms into *author* nodes of an existing corpus —
/// used to vary the posting depth mix.
pub fn plant_into_authors(corpus: &mut DblpCorpus, planted: &[PlantedTerm], seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let authors = corpus.authors.clone();
    plant_terms(&mut corpus.tree, &authors, planted, &mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::stats::TreeStats;

    #[test]
    fn structure_matches_regrouped_dblp() {
        let cfg = DblpConfig {
            conferences: 3,
            years_per_conf: 2,
            papers_per_year: 4,
            ..Default::default()
        };
        let corpus = generate(&cfg);
        let t = &corpus.tree;
        let stats = TreeStats::compute(t);
        // dblp(1) / conf(2) / year(3) / paper(4) / title|author|@key(5)
        assert_eq!(stats.max_depth, 5);
        assert_eq!(corpus.titles.len(), 24);
        assert_eq!(corpus.authors.len(), 48);
        for &title in &corpus.titles {
            assert_eq!(t.depth(title), 5);
            assert_eq!(t.label(title), "title");
            assert_eq!(t.text(title).split_whitespace().count(), cfg.title_words);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DblpConfig { conferences: 2, years_per_conf: 2, papers_per_year: 3, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.tree.len(), b.tree.len());
        for (x, y) in a.tree.ids().zip(b.tree.ids()) {
            assert_eq!(a.tree.text(x), b.tree.text(y));
        }
    }

    #[test]
    fn planted_frequencies_are_exact() {
        let cfg = DblpConfig {
            conferences: 5,
            years_per_conf: 4,
            papers_per_year: 10,
            planted: vec![
                PlantedTerm::new("hot", 120),
                PlantedTerm::correlated("warm", 60, "hot", 0.8),
            ],
            ..Default::default()
        };
        let corpus = generate(&cfg);
        let count = |w: &str| {
            corpus
                .titles
                .iter()
                .filter(|&&t| corpus.tree.text(t).split_whitespace().any(|x| x == w))
                .count()
        };
        assert_eq!(count("hot"), 120);
        assert_eq!(count("warm"), 60);
        // Strong (not necessarily total) co-occurrence.
        let both = corpus
            .titles
            .iter()
            .filter(|&&t| {
                let txt = corpus.tree.text(t);
                let mut has_hot = false;
                let mut has_warm = false;
                for w in txt.split_whitespace() {
                    has_hot |= w == "hot";
                    has_warm |= w == "warm";
                }
                has_hot && has_warm
            })
            .count();
        assert!(both >= 30, "expected strong correlation, got {both}");
    }

    #[test]
    fn author_planting_spreads_depths() {
        let cfg = DblpConfig { conferences: 2, years_per_conf: 2, papers_per_year: 5, ..Default::default() };
        let mut corpus = generate(&cfg);
        plant_into_authors(&mut corpus, &[PlantedTerm::new("deepterm", 7)], 1);
        let n = corpus
            .authors
            .iter()
            .filter(|&&a| corpus.tree.text(a).contains("deepterm"))
            .count();
        assert_eq!(n, 7);
    }
}
