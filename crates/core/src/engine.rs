//! High-level façade: build an index once, run ranked keyword queries.
//!
//! Every query executes through [`Engine::run`] (or the
//! [`Executor`](crate::Executor) trait): build a
//! [`QueryRequest`](crate::QueryRequest) builder-style and read the
//! results plus metrics off the [`QueryResponse`](crate::QueryResponse).
//! The historical per-shape entry points (`search`, `top_k`, …) are gone.

use crate::query::{Query, QueryError};
use crate::result::ScoredResult;
use xtk_index::XmlIndex;
use xtk_xml::{ParseError, XmlTree};

/// The entry point: an indexed XML document plus the query engines.
///
/// ```
/// use xtk_core::{Engine, QueryRequest, Semantics};
///
/// let engine = Engine::from_xml(
///     "<bib><paper><title>xml keyword search</title></paper>\
///      <paper><title>top k ranking</title><abs>keyword</abs></paper></bib>",
/// ).unwrap();
/// let q = engine.query("keyword ranking").unwrap();
/// let resp = engine.run(&q, &QueryRequest::top_k(3, Semantics::Elca));
/// assert_eq!(resp.results.len(), 1);
/// assert_eq!(engine.tree().label(resp.results[0].node), "paper");
/// ```
#[derive(Debug)]
pub struct Engine {
    ix: XmlIndex,
    batch_cache: crate::batch::ResultCache,
    planner: crate::plan::cache::Planner,
}

impl Engine {
    /// Indexes a parsed tree with default options.
    pub fn new(tree: XmlTree) -> Self {
        Self::from_index(XmlIndex::build(tree))
    }

    /// Parses and indexes an XML string.
    pub fn from_xml(xml: &str) -> Result<Self, ParseError> {
        Ok(Self::new(xtk_xml::parse(xml)?))
    }

    /// Wraps an already-built index.  The planner's statistics snapshot
    /// is harvested here, once — not per query.
    pub fn from_index(ix: XmlIndex) -> Self {
        let planner = crate::plan::cache::Planner::from_index(&ix);
        Self { ix, batch_cache: crate::batch::ResultCache::default(), planner }
    }

    /// The underlying index.
    pub fn index(&self) -> &XmlIndex {
        &self.ix
    }

    /// Swaps in a rebuilt index, e.g. after incremental maintenance.
    ///
    /// The batched-serving result cache invalidates by index generation,
    /// so stamp the rebuilt index first —
    /// `ix.with_generation(old_generation + maintainer.generation())` —
    /// or cached answers from the old tree would keep being served.
    pub fn replace_index(&mut self, ix: XmlIndex) {
        self.ix = ix;
        // The generation stamp would invalidate cached plans lazily; the
        // statistics snapshot has no stamp and is recomputed here.
        self.planner.refresh_from_index(&self.ix);
    }

    /// The batched-serving result cache (see [`Engine::run_batch`]).
    pub fn result_cache(&self) -> &crate::batch::ResultCache {
        &self.batch_cache
    }

    /// The planner: the cross-query plan cache every [`Engine::run`]
    /// consults, beside its statistics snapshot.
    pub fn planner(&self) -> &crate::plan::cache::Planner {
        &self.planner
    }

    /// The indexed tree.
    pub fn tree(&self) -> &xtk_xml::XmlTree {
        self.ix.tree()
    }

    /// Resolves query keywords against the vocabulary.
    pub fn query(&self, text: &str) -> Result<Query, QueryError> {
        Query::parse(&self.ix, text)
    }

    /// Logical-plan EXPLAIN: the bound plan tree before and after the
    /// rewrite rules, the rule log, and the physical plan the request
    /// lowers to — byte-stable, without executing anything.
    pub fn explain_plan(&self, query: &Query, req: &crate::QueryRequest) -> crate::PlanExplain {
        let mut ex = crate::plan::lower::explain(
            &self.ix,
            query,
            req,
            crate::plan::lower::ExplainTarget::Memory,
        );
        ex.provenance =
            Some(self.planner.peek(query, req, self.ix.generation(), 0).as_str());
        ex
    }

    /// Human-readable description of a result: path, level, score and a
    /// snippet of the subtree's text.
    pub fn describe(&self, r: &ScoredResult) -> String {
        let tree = self.tree();
        let mut snippet = String::new();
        for n in tree.descendants_or_self(r.node) {
            let t = tree.text(n);
            if !t.is_empty() {
                if !snippet.is_empty() {
                    snippet.push(' ');
                }
                snippet.push_str(t);
                if snippet.len() > 80 {
                    snippet.truncate(80);
                    snippet.push('…');
                    break;
                }
            }
        }
        format!(
            "{} (level {}, score {:.4}): {}",
            tree.path_string(r.node),
            r.level,
            r.score,
            snippet
        )
    }
}

/// Re-export for callers matching on the hybrid's choice.
pub use crate::hybrid::PlannedEngine as HybridChoice;

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<bib><conf><paper><title>xml keyword search</title>\
                       <author>ann</author></paper><paper><title>relational top k join</title>\
                       <author>bob</author></paper></conf>\
                       <conf><paper><title>xml top k</title></paper></conf></bib>";

    use crate::query::Semantics;
    use crate::request::{QueryAlgorithm, QueryRequest};

    #[test]
    fn end_to_end_search() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml keyword").unwrap();
        let rs = e.run(&q, &QueryRequest::complete(Semantics::Elca)).results;
        assert_eq!(rs.len(), 1);
        assert_eq!(e.tree().label(rs[0].node), "title");
        let desc = e.describe(&rs[0]);
        assert!(desc.contains("/bib/conf/paper/title"), "{desc}");
        assert!(desc.contains("xml keyword search"), "{desc}");
    }

    #[test]
    fn all_complete_engines_agree_on_slca() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("xml top").unwrap();
        let mut sets: Vec<Vec<_>> = [QueryAlgorithm::JoinBased, QueryAlgorithm::StackBased]
        .iter()
        .map(|&a| {
            let req = QueryRequest::complete(Semantics::Slca).unranked().with_algorithm(a);
            let mut v: Vec<_> = e.run(&q, &req).results.into_iter().map(|r| r.node).collect();
            v.sort();
            v
        })
        .collect();
        let first = sets.remove(0);
        for s in sets {
            assert_eq!(s, first);
        }
        assert!(!first.is_empty());
    }

    #[test]
    fn topk_variants_run() {
        let e = Engine::from_xml(DOC).unwrap();
        let q = e.query("top k").unwrap();
        let base = QueryRequest::top_k(2, Semantics::Elca);
        let a = e.run(&q, &base.with_algorithm(QueryAlgorithm::TopKJoin)).results;
        let b = e.run(&q, &base).results;
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        // Same top score across engines (node ties may differ).
        assert!((a[0].score - b[0].score).abs() < 1e-4);
    }

    #[test]
    fn unknown_word_is_reported() {
        let e = Engine::from_xml(DOC).unwrap();
        assert!(e.query("xml zzzznope").is_err());
    }
}
