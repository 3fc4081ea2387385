#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::let_underscore_must_use
)]

//! Deterministic corpus and workload generation for the `xtk` experiments.
//!
//! The paper evaluates on DBLP (496 MB, re-grouped conference → year →
//! paper) and XMark scale 1 (113 MB).  Neither raw data set ships with
//! this reproduction, so this crate generates structurally faithful
//! substitutes (see DESIGN.md's substitution table):
//!
//! * [`dblp`] — `dblp / conf / year / paper { title, author*, @key }`,
//!   the exact shape the paper describes after its re-grouping;
//! * [`xmark`] — the XMark auction-site schema (regions/items, people,
//!   open and closed auctions) at comparable depth and fanout.
//!
//! Background text is drawn from a Zipf-distributed synthetic vocabulary
//! ([`zipf`], [`vocab`]).  The experiments' control variables — keyword
//! **frequency** and keyword **correlation**, the two factors the paper
//! says execution time depends on — are *planted exactly*: a
//! [`PlantedTerm`] states its posting-list length and, optionally, the
//! probability of co-occurring with another planted term in the same
//! element.  [`queries`] assembles the per-figure query workloads.

pub mod dblp;
pub mod queries;
pub mod treebank;
pub mod vocab;
pub mod xmark;
pub mod zipf;

use xtk_xml::testutil::Rng;
use xtk_xml::tree::NodeId;
use xtk_xml::XmlTree;

/// A term planted with an exact corpus frequency.
#[derive(Debug, Clone)]
pub struct PlantedTerm {
    /// The term text (must not collide with the background vocabulary;
    /// background words are `w<number>`, so anything else is safe).
    pub term: String,
    /// Exact number of nodes that will directly contain the term (the
    /// posting-list length).
    pub occurrences: usize,
    /// When `Some((other, rho))`: each occurrence is placed, with
    /// probability `rho`, into an element that already contains `other`
    /// (which must have been planted earlier in the list).  This is the
    /// correlation control for Fig. 10.
    pub colocate_with: Option<(String, f64)>,
}

impl PlantedTerm {
    /// An independent (uncorrelated) planted term.
    pub fn new(term: impl Into<String>, occurrences: usize) -> Self {
        Self { term: term.into(), occurrences, colocate_with: None }
    }

    /// A term co-occurring with `other` with probability `rho`.
    pub fn correlated(
        term: impl Into<String>,
        occurrences: usize,
        other: impl Into<String>,
        rho: f64,
    ) -> Self {
        Self { term: term.into(), occurrences, colocate_with: Some((other.into(), rho)) }
    }
}

/// Plants terms into the given candidate text nodes with exact
/// frequencies and the requested co-occurrence structure.
///
/// Shared by the DBLP and XMark generators.  Panics if a term wants more
/// occurrences than there are candidate nodes.
pub(crate) fn plant_terms(
    tree: &mut XmlTree,
    candidates: &[NodeId],
    planted: &[PlantedTerm],
    rng: &mut Rng,
) {
    use std::collections::HashMap;
    let mut homes: HashMap<&str, Vec<NodeId>> = HashMap::new();
    for p in planted {
        assert!(
            p.occurrences <= candidates.len(),
            "cannot plant {} occurrences of {:?} into {} candidate nodes",
            p.occurrences,
            p.term,
            candidates.len()
        );
        let mut chosen: Vec<NodeId> = Vec::with_capacity(p.occurrences);
        let mut used = std::collections::HashSet::new();
        let partner: Option<(&Vec<NodeId>, f64)> = p.colocate_with.as_ref().and_then(|(other, rho)| {
            let hs = homes.get(other.as_str());
            assert!(hs.is_some(), "{:?} must be planted before {:?}", other, p.term);
            hs.map(|hs| (hs, *rho))
        });
        while chosen.len() < p.occurrences {
            #[expect(
                clippy::indexing_slicing,
                reason = "gen_range(0..len) is below the length, and both lists are non-empty here"
            )]
            let pick = match partner {
                Some((hs, rho)) if !hs.is_empty() && rng.gen_bool(rho) => {
                    hs[rng.gen_range(0..hs.len())]
                }
                _ => candidates[rng.gen_range(0..candidates.len())],
            };
            if used.insert(pick) {
                chosen.push(pick);
            }
        }
        for &n in &chosen {
            tree.append_text(n, &p.term);
        }
        homes.insert(p.term.as_str(), chosen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planting_hits_exact_frequencies() {
        let mut tree = XmlTree::new();
        let root = tree.add_root("r");
        let hosts: Vec<NodeId> = (0..100).map(|i| tree.add_child(root, format!("h{i}"))).collect();
        let mut rng = Rng::seed_from_u64(7);
        plant_terms(
            &mut tree,
            &hosts,
            &[PlantedTerm::new("alpha", 30), PlantedTerm::correlated("beta", 20, "alpha", 1.0)],
            &mut rng,
        );
        let count = |w: &str| {
            hosts
                .iter()
                .filter(|&&h| tree.text(h).split_whitespace().any(|t| t == w))
                .count()
        };
        assert_eq!(count("alpha"), 30);
        assert_eq!(count("beta"), 20);
        for &h in &hosts {
            let text = tree.text(h);
            if text.contains("beta") {
                assert!(text.contains("alpha"));
            }
        }
    }

    #[test]
    #[should_panic]
    fn overplanting_panics() {
        let mut tree = XmlTree::new();
        let root = tree.add_root("r");
        let hosts = vec![tree.add_child(root, "h")];
        let mut rng = Rng::seed_from_u64(7);
        plant_terms(&mut tree, &hosts, &[PlantedTerm::new("x", 5)], &mut rng);
    }
}
