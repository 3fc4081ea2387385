//! Corpus statistics.
//!
//! The paper characterizes its data sets by document size, depth and the
//! shape of inverted lists; these statistics let the experiment harness
//! report the same characteristics for the generated corpora.

use crate::tree::XmlTree;
use std::collections::BTreeMap;

/// Structural statistics of an [`XmlTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// Total number of element (and attribute pseudo-element) nodes.
    pub node_count: usize,
    /// Maximum depth (root = 1).
    pub max_depth: u16,
    /// Number of nodes per level (index 0 unused).
    pub level_widths: Vec<usize>,
    /// Mean number of children over non-leaf nodes.
    pub avg_fanout: f64,
    /// Largest number of children on any node.
    pub max_fanout: usize,
    /// Total bytes of direct text content.
    pub text_bytes: usize,
    /// Number of distinct element labels.
    pub distinct_labels: usize,
}

impl TreeStats {
    /// Computes statistics in one pass over the tree.
    pub fn compute(tree: &XmlTree) -> Self {
        let mut level_widths = vec![0usize; tree.max_depth() as usize + 1];
        let mut labels: BTreeMap<&str, usize> = BTreeMap::new();
        let mut internal = 0usize;
        let mut child_sum = 0usize;
        let mut max_fanout = 0usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "level_widths has one entry per depth up to max_depth"
        )]
        for id in tree.ids() {
            let n = tree.node(id);
            level_widths[tree.depth(id) as usize] += 1;
            *labels.entry(&n.label).or_insert(0) += 1;
            let k = n.children.len();
            if k > 0 {
                internal += 1;
                child_sum += k;
                max_fanout = max_fanout.max(k);
            }
        }
        TreeStats {
            node_count: tree.len(),
            max_depth: tree.max_depth(),
            level_widths,
            avg_fanout: if internal == 0 { 0.0 } else { child_sum as f64 / internal as f64 },
            max_fanout,
            text_bytes: tree.total_text_bytes(),
            distinct_labels: labels.len(),
        }
    }
}

impl std::fmt::Display for TreeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "nodes={} depth={} labels={} text={}B avg_fanout={:.2} max_fanout={}",
            self.node_count,
            self.max_depth,
            self.distinct_labels,
            self.text_bytes,
            self.avg_fanout,
            self.max_fanout
        )?;
        write!(f, "level widths:")?;
        for (l, w) in self.level_widths.iter().enumerate().skip(1) {
            write!(f, " L{l}={w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn stats_on_small_tree() {
        let t = parse("<a><b>xy</b><b/><c><d/></c></a>").unwrap();
        let s = TreeStats::compute(&t);
        assert_eq!(s.node_count, 5);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.level_widths, vec![0, 1, 3, 1]);
        assert_eq!(s.max_fanout, 3);
        assert_eq!(s.distinct_labels, 4);
        assert_eq!(s.text_bytes, 2);
        assert!((s.avg_fanout - 2.0).abs() < 1e-9); // (3 + 1) / 2
    }

    #[test]
    fn display_renders() {
        let t = parse("<a><b/></a>").unwrap();
        let s = TreeStats::compute(&t).to_string();
        assert!(s.contains("nodes=2"));
        assert!(s.contains("L2=1"));
    }
}
