//! The benchmark corpus: one DBLP-like document with planted terms.
//!
//! The planting idiom (four high-frequency terms, eight terms in each of
//! four low-frequency bands, six correlated groups) is the one
//! `crates/bench` uses, copied here on purpose: an edit to the bench
//! helpers must not move the benchmark.  The program under test never
//! sees this module's data structures — only the serialised XML text.

use xtk_datagen::dblp::{generate, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_xml::writer::{write_document, WriteOptions};

/// Terms planted per frequency band.
pub const TERMS_PER_BAND: usize = 8;
/// Number of high-frequency terms.
pub const HIGH_TERMS: usize = 4;
/// The low-frequency bands (full-scale occurrence counts).
pub const BANDS: [usize; 4] = [10, 100, 1_000, 10_000];
/// Full-scale occurrence count of each high-frequency term.
pub const HIGH_FREQ: usize = 12_000;

/// Corpus size: the full benchmark or the tiny `--smoke` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈ 280 k nodes / ≈ 8.7 MB of XML text.
    Full,
    /// ≈ 5 k nodes, for the tests under `perfbench/tests/`.
    Smoke,
}

impl Scale {
    /// Occurrences planted for a term whose full-scale frequency is `f`.
    pub fn freq(self, f: usize) -> usize {
        match self {
            Scale::Full => f,
            Scale::Smoke => (f / 50).max(2),
        }
    }

    fn config(self, seed: u64) -> DblpConfig {
        let (conferences, years_per_conf, papers_per_year, vocab_size) = match self {
            Scale::Full => (280, 5, 50, 20_000),
            Scale::Smoke => (20, 3, 20, 2_000),
        };
        DblpConfig {
            conferences,
            years_per_conf,
            papers_per_year,
            title_words: 6,
            authors_per_paper: 1,
            vocab_size,
            seed,
            planted: planted(self),
            ..Default::default()
        }
    }
}

/// Name of the `i`-th term of the band with full-scale frequency `f`.
pub fn band_term(f: usize, i: usize) -> String {
    format!("lf{f}x{i}")
}

/// Name of the `i`-th high-frequency term.
pub fn high_term(i: usize) -> String {
    format!("hfx{i}")
}

/// The correlated groups of Fig. 10(b)/(c): `(terms, full-scale
/// frequencies, rho)`; every term after the first co-occurs with the
/// first with probability `rho`.
pub fn correlated_groups() -> Vec<(Vec<&'static str>, Vec<usize>, f64)> {
    vec![
        (vec!["sensor", "network"], vec![1_000, 4_000], 0.7),
        (vec!["stream", "window"], vec![500, 1_500], 0.8),
        (vec!["cache", "memory"], vec![2_000, 4_500], 0.6),
        (
            vec!["xml", "keyword", "search"],
            vec![5_000, 1_500, 4_000],
            0.6,
        ),
        (
            vec!["query", "plan", "optimizer"],
            vec![4_000, 2_000, 1_000],
            0.7,
        ),
        (
            vec!["graph", "pattern", "matching"],
            vec![3_000, 1_500, 1_250],
            0.65,
        ),
    ]
}

fn planted(scale: Scale) -> Vec<PlantedTerm> {
    let mut out = Vec::new();
    for i in 0..HIGH_TERMS {
        out.push(PlantedTerm::new(high_term(i), scale.freq(HIGH_FREQ)));
    }
    for &f in &BANDS {
        for i in 0..TERMS_PER_BAND {
            out.push(PlantedTerm::new(band_term(f, i), scale.freq(f)));
        }
    }
    for (terms, freqs, rho) in correlated_groups() {
        for (j, (&t, &f)) in terms.iter().zip(&freqs).enumerate() {
            if j == 0 {
                out.push(PlantedTerm::new(t, scale.freq(f)));
            } else {
                out.push(PlantedTerm::correlated(t, scale.freq(f), terms[0], rho));
            }
        }
    }
    out
}

/// The generated input: XML text plus the counts `BENCHMARK.json` records.
pub struct Corpus {
    /// The serialised document — all the program under test receives.
    pub xml: String,
    /// Nodes in the generated tree.
    pub nodes: usize,
}

/// Generates the corpus for `seed` and serialises it.
pub fn generate_corpus(scale: Scale, seed: u64) -> Corpus {
    let tree = generate(&scale.config(seed)).tree;
    let nodes = tree.len();
    let xml = write_document(&tree, WriteOptions::default());
    Corpus { xml, nodes }
}
