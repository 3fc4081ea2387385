//! Query workload generation for the experiment harness.
//!
//! The paper's Fig. 9 runs "forty queries within each frequency range ...
//! randomly selected"; Fig. 10 adds hand-picked *correlated* queries such
//! as `{sensor, network}`.  With planted terms the frequency axis is
//! exact; this module also selects random background terms within a
//! frequency band for fully random workloads.

use xtk_xml::testutil::Rng;
use xtk_index::XmlIndex;

/// Random distinct terms whose posting length lies in `[lo, hi]`.
///
/// Returns fewer than `count` terms when the corpus does not have enough
/// in the band.
pub fn terms_in_band(ix: &XmlIndex, lo: usize, hi: usize, count: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut candidates: Vec<&str> = ix
        .terms()
        .filter(|(_, t)| t.len() >= lo && t.len() <= hi)
        .map(|(_, t)| t.name())
        .collect();
    // Partial Fisher–Yates for a deterministic sample.
    let n = candidates.len();
    for i in 0..count.min(n) {
        let j = rng.gen_range(i..n);
        candidates.swap(i, j);
    }
    candidates.into_iter().take(count).map(str::to_string).collect()
}

/// A workload of `count` queries of `k` keywords: one keyword near
/// `high_freq`, the rest within `low_band`, all sampled from the actual
/// vocabulary.
pub fn frequency_workload(
    ix: &XmlIndex,
    k: usize,
    high_freq_band: (usize, usize),
    low_band: (usize, usize),
    count: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    let highs = terms_in_band(ix, high_freq_band.0, high_freq_band.1, count, seed ^ 0xAAAA);
    let lows = terms_in_band(ix, low_band.0, low_band.1, count * (k - 1), seed ^ 0x5555);
    let mut out = Vec::new();
    for (i, high) in highs.iter().take(count).enumerate() {
        let mut q = vec![high.clone()];
        for j in 0..k - 1 {
            match lows.get(i * (k - 1) + j) {
                Some(w) if !q.contains(w) => q.push(w.clone()),
                _ => break,
            }
        }
        if q.len() == k {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dblp::{generate, DblpConfig};
    use crate::PlantedTerm;

    fn ix() -> XmlIndex {
        let cfg = DblpConfig {
            conferences: 10,
            years_per_conf: 3,
            papers_per_year: 10,
            planted: vec![PlantedTerm::new("hf", 250), PlantedTerm::new("lf", 10)],
            ..Default::default()
        };
        XmlIndex::build(generate(&cfg).tree)
    }

    #[test]
    fn band_selection_respects_frequencies() {
        let ix = ix();
        let terms = terms_in_band(&ix, 200, 300, 5, 1);
        assert!(terms.iter().any(|t| t == "hf"));
        for t in &terms {
            let len = ix.term_by_str(t).unwrap().len();
            assert!((200..=300).contains(&len), "{t} has {len}");
        }
    }

    #[test]
    fn workload_shape() {
        let ix = ix();
        let ql = frequency_workload(&ix, 3, (200, 300), (5, 50), 4, 9);
        assert!(!ql.is_empty());
        for q in &ql {
            assert_eq!(q.len(), 3);
            // No duplicate keywords inside a query.
            let mut s = q.clone();
            s.sort();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn deterministic_workloads() {
        let ix = ix();
        assert_eq!(
            frequency_workload(&ix, 2, (200, 300), (5, 50), 6, 42),
            frequency_workload(&ix, 2, (200, 300), (5, 50), 6, 42)
        );
    }
}
