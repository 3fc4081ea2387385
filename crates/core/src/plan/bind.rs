//! The binder: query string + index → logical plan.
//!
//! [`compile`] parses a query line and resolves its keywords against the
//! vocabulary, producing the `(Query, QueryRequest)` pair every engine
//! executes; [`logical_plan`] builds the unrewritten IR tree for that
//! pair — whole-sequence scans under a join, the semantic filter, and a
//! top-K node describing the output shape.  [`candidate_bound`] computes
//! the result-count upper bound the noop-elimination rule needs.

use crate::plan::logical::{PlanNode, ScanLeaf, ScanMode, TopKStrategy};
use crate::plan::parse::{self, ParseError, Span};
use crate::query::Query;
use crate::request::{QueryAlgorithm, QueryRequest};
use crate::semantics::MAX_KEYWORDS;
use xtk_index::XmlIndex;

/// Compilation failure: the text is malformed, a keyword is not in the
/// corpus vocabulary, or there are more keywords than the engines take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query string is malformed (see [`ParseError`]).
    Parse(ParseError),
    /// A keyword that occurs nowhere in the corpus.  Surfaced as an
    /// error (not an empty result) so callers can tell the difference.
    UnknownKeyword {
        /// The keyword (lowercased).
        word: String,
        /// Where it sits in the input.
        span: Span,
    },
    /// More than [`MAX_KEYWORDS`] keywords.
    TooManyKeywords {
        /// How many the query has.
        count: usize,
        /// The first keyword over the limit.
        span: Span,
    },
}

impl PlanError {
    /// Renders the diagnostic with the offending token underlined, like
    /// [`ParseError::render`].
    pub fn render(&self, input: &str) -> String {
        match self {
            PlanError::Parse(e) => e.render(input),
            PlanError::UnknownKeyword { span, .. } | PlanError::TooManyKeywords { span, .. } => {
                let mut out = format!("query bind error: {self}");
                if let Some(caret) = parse::caret_line(input, *span) {
                    out.push_str(&caret);
                }
                out
            }
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Parse(e) => e.fmt(f),
            PlanError::UnknownKeyword { word, .. } => {
                write!(f, "keyword `{word}` does not occur in the corpus")
            }
            PlanError::TooManyKeywords { count, .. } => {
                write!(f, "query has {count} keywords; at most {MAX_KEYWORDS} are supported")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError::Parse(e)
    }
}

/// Parses `text` and binds it against `ix`: keywords resolve to term
/// ids, knobs fold over `base` (unset knobs keep the base values).
pub fn compile(
    ix: &XmlIndex,
    text: &str,
    base: &QueryRequest,
) -> Result<(Query, QueryRequest), PlanError> {
    let parsed = parse::parse(text)?;
    if let Some(&span) = parsed.keyword_spans.get(MAX_KEYWORDS) {
        return Err(PlanError::TooManyKeywords { count: parsed.keywords.len(), span });
    }
    let mut terms = Vec::with_capacity(parsed.keywords.len());
    for (word, &span) in parsed.keywords.iter().zip(&parsed.keyword_spans) {
        match ix.term_id(word) {
            Some(t) => terms.push(t),
            None => {
                return Err(PlanError::UnknownKeyword { word: word.clone(), span })
            }
        }
    }
    Ok((Query { terms }, parsed.request_over(base)))
}

/// Builds the unrewritten logical plan for a bound query.
///
/// Every keyword becomes a whole-sequence [`PlanNode::Scan`] (the §III-B
/// strawman read — the rewrite rules are what turn this into the
/// streamed, pruned, probing pipeline).  The join covers the shared
/// level range `1..=l0`, the filter carries the semantics, and the
/// top-K node maps the request's algorithm to an output strategy:
/// `Auto` stays cost-based when `k` is set, a forced
/// [`QueryAlgorithm::TopKJoin`] becomes a star join, and everything
/// else computes the complete set and sorts.  (The stack baseline
/// shares this logical description; only the join family is physically
/// lowered through the plan.)
pub fn logical_plan(ix: &XmlIndex, query: &Query, req: &QueryRequest) -> PlanNode {
    let leaves: Vec<ScanLeaf> = query
        .terms
        .iter()
        .map(|&t| {
            let td = ix.term(t);
            ScanLeaf {
                term: t,
                name: td.name().to_string(),
                postings: td.len(),
                levels: td.max_len(),
                pruned_from: None,
                mode: ScanMode::Materialize,
            }
        })
        .collect();
    let l0 = leaves.iter().map(|l| l.levels).min().unwrap_or(0);
    let join = PlanNode::Join {
        inputs: leaves.into_iter().map(PlanNode::Scan).collect(),
        levels: l0,
    };
    let filter = PlanNode::Filter {
        input: Box::new(join),
        semantics: req.semantics,
        variant: req.variant,
    };
    let strategy = match (req.algorithm, req.k) {
        (QueryAlgorithm::Auto, Some(_)) => TopKStrategy::Auto,
        (QueryAlgorithm::TopKJoin, Some(_)) => TopKStrategy::StarJoin,
        _ => TopKStrategy::SortComplete,
    };
    PlanNode::TopK {
        input: Box::new(filter),
        k: req.k,
        strategy,
        threshold: req.threshold,
        scores: req.scores,
        bound: None,
    }
}

/// An upper bound on the query's result count: per shared level, no more
/// results can exist than the scarcest keyword has distinct JDewey
/// values there (every result node's number must appear in *every*
/// keyword's column), summed over `1..=l0`.
///
/// The same quantity dominates the §V-D cardinality estimate — the
/// sampling estimate extrapolates within the scarcest column and the
/// histogram estimate is strip-capped by the scarcest density — which is
/// what lets the noop-elimination rule prove `k >= bound` routes the
/// hybrid planner to the complete join.
pub fn candidate_bound(ix: &XmlIndex, query: &Query) -> u64 {
    let terms: Vec<_> = query.terms.iter().map(|&t| ix.term(t)).collect();
    let l0 = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
    (1..=l0)
        .map(|l| {
            terms
                .iter()
                .filter_map(|t| t.column(l))
                .map(|c| c.runs.len() as u64)
                .min()
                .unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Semantics;
    use xtk_xml::parse as parse_xml;

    fn ix() -> XmlIndex {
        XmlIndex::build(
            parse_xml(
                "<bib><conf><paper><title>xml keyword search</title></paper>\
                 <paper><title>top k search</title></paper></conf></bib>",
            )
            .unwrap(),
        )
    }

    #[test]
    fn compile_binds_keywords_and_knobs() {
        let ix = ix();
        let base = QueryRequest::default();
        let (q, req) = compile(&ix, "xml search k=3 sem=slca", &base).unwrap();
        assert_eq!(q.terms.len(), 2);
        assert_eq!(req.k, Some(3));
        assert_eq!(req.semantics, Semantics::Slca);
        assert_eq!(req.algorithm, base.algorithm);
    }

    #[test]
    fn unknown_keywords_carry_spans() {
        let ix = ix();
        let text = "xml zzzz";
        let err = compile(&ix, text, &QueryRequest::default()).unwrap_err();
        let PlanError::UnknownKeyword { word, span } = &err else {
            panic!("{err:?}");
        };
        assert_eq!(word, "zzzz");
        assert_eq!(text.get(span.start..span.end), Some("zzzz"));
        let rendered = err.render(text);
        assert!(rendered.contains("^^^^"), "{rendered}");
        assert!(compile(&ix, "", &QueryRequest::default()).is_err());
    }

    #[test]
    fn too_many_keywords_span_the_first_one_over_the_limit() {
        let ix = ix();
        let words: Vec<String> = (0..=MAX_KEYWORDS).map(|i| format!("w{i}")).collect();
        let text = words.join(" ");
        let err = compile(&ix, &text, &QueryRequest::default()).unwrap_err();
        let PlanError::TooManyKeywords { count, span } = &err else {
            panic!("{err:?}");
        };
        assert_eq!(*count, MAX_KEYWORDS + 1);
        assert_eq!(text.get(span.start..span.end), Some("w32"));
        assert!(err.render(&text).contains("^^^"));
        // At the limit the count check passes and binding proceeds.
        let at_limit = words[..MAX_KEYWORDS].join(" ");
        assert!(matches!(
            compile(&ix, &at_limit, &QueryRequest::default()),
            Err(PlanError::UnknownKeyword { .. })
        ));
    }

    #[test]
    fn logical_plan_shapes_follow_the_request() {
        let ix = ix();
        let (q, req) =
            compile(&ix, "xml search k=2", &QueryRequest::default()).unwrap();
        let plan = logical_plan(&ix, &q, &req);
        let PlanNode::TopK { strategy, k, .. } = &plan else {
            panic!("root is not TopK");
        };
        assert_eq!(*strategy, TopKStrategy::Auto);
        assert_eq!(*k, Some(2));
        // Unrewritten scans read the whole sequences.
        for leaf in plan.leaves() {
            assert_eq!(leaf.mode, ScanMode::Materialize);
            assert_eq!(leaf.pruned_from, None);
        }
        let (q, req) =
            compile(&ix, "xml search alg=topk k=2", &QueryRequest::default()).unwrap();
        let PlanNode::TopK { strategy, .. } = logical_plan(&ix, &q, &req) else {
            panic!("root is not TopK");
        };
        assert_eq!(strategy, TopKStrategy::StarJoin);
        let (q, req) =
            compile(&ix, "xml search alg=join", &QueryRequest::default()).unwrap();
        let PlanNode::TopK { strategy, .. } = logical_plan(&ix, &q, &req) else {
            panic!("root is not TopK");
        };
        assert_eq!(strategy, TopKStrategy::SortComplete);
    }

    #[test]
    fn candidate_bound_dominates_results() {
        let ix = ix();
        let (q, req) = compile(&ix, "search k=100", &QueryRequest::default()).unwrap();
        let bound = candidate_bound(&ix, &q);
        let resp = crate::engine::Engine::from_index(ix).run(&q, &req);
        assert!(
            (resp.results.len() as u64) <= bound,
            "{} results > bound {bound}",
            resp.results.len()
        );
    }
}
