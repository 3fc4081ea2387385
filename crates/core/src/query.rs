//! Query representation.

use crate::semantics::MAX_KEYWORDS;
use xtk_index::{TermId, XmlIndex};

/// The LCA-based result semantics (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Semantics {
    /// Exclusive LCAs: nodes containing all keywords after excluding
    /// occurrences inside lower all-keyword subtrees.  The default.
    #[default]
    Elca,
    /// Smallest LCAs: LCAs none of whose descendants is also an LCA.
    Slca,
}

/// Which published flavour of the ELCA exclusion rule to apply
/// (see the crate docs; irrelevant for SLCA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElcaVariant {
    /// Exclusion at descendant ELCAs — what XRank's DIL and the paper's
    /// Algorithm 1 compute.  The default, matching the paper.
    #[default]
    Operational,
    /// Exclusion at every descendant subtree containing all keywords
    /// (the XRank paper's written definition).
    Formal,
}

/// A resolved keyword query: term ids in user order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Query terms, in the order the user typed them (scoring sums in this
    /// order so every engine produces bit-identical floats).
    pub terms: Vec<TermId>,
}

/// Failure to resolve a query against the index vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A keyword that is nowhere in the corpus (empty result set by
    /// definition; surfaced as an error so callers can tell the difference
    /// between "no results" and "unknown word").
    UnknownKeyword(String),
    /// The query had no keywords.
    Empty,
    /// The same keyword appeared twice.
    Duplicate(String),
    /// More than [`MAX_KEYWORDS`] keywords (the engines track the
    /// keywords a node has seen in a `u32` mask); carries the count.
    TooManyKeywords(usize),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownKeyword(w) => write!(f, "keyword {w:?} does not occur in the corpus"),
            QueryError::Empty => write!(f, "query has no keywords"),
            QueryError::Duplicate(w) => write!(f, "keyword {w:?} appears more than once"),
            QueryError::TooManyKeywords(n) => {
                write!(f, "query has {n} keywords; at most {MAX_KEYWORDS} are supported")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Resolves whitespace-separated keywords against the index.
    pub fn parse(index: &XmlIndex, text: &str) -> Result<Self, QueryError> {
        let words: Vec<&str> = text.split_whitespace().collect();
        Self::from_words(index, &words)
    }

    /// Resolves a list of keywords against the index.
    pub fn from_words<S: AsRef<str>>(index: &XmlIndex, words: &[S]) -> Result<Self, QueryError> {
        if words.is_empty() {
            return Err(QueryError::Empty);
        }
        if words.len() > MAX_KEYWORDS {
            return Err(QueryError::TooManyKeywords(words.len()));
        }
        let mut terms = Vec::with_capacity(words.len());
        for w in words {
            let w = w.as_ref();
            let tid = index
                .term_id(w)
                .ok_or_else(|| QueryError::UnknownKeyword(w.to_string()))?;
            if terms.contains(&tid) {
                return Err(QueryError::Duplicate(w.to_string()));
            }
            terms.push(tid);
        }
        Ok(Self { terms })
    }

    /// Number of keywords `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` iff the query has no terms (never produced by the
    /// constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_xml::parse;

    fn ix() -> XmlIndex {
        XmlIndex::build(parse("<r><a>xml data</a><b>xml keyword</b></r>").unwrap())
    }

    #[test]
    fn parse_resolves_terms() {
        let ix = ix();
        let q = Query::parse(&ix, "xml data").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.terms[0], ix.term_id("xml").unwrap());
    }

    #[test]
    fn unknown_keyword_is_an_error() {
        let ix = ix();
        assert!(matches!(
            Query::parse(&ix, "xml nosuchword"),
            Err(QueryError::UnknownKeyword(w)) if w == "nosuchword"
        ));
    }

    #[test]
    fn empty_and_duplicate_rejected() {
        let ix = ix();
        assert!(matches!(Query::parse(&ix, "  "), Err(QueryError::Empty)));
        assert!(matches!(Query::parse(&ix, "xml xml"), Err(QueryError::Duplicate(_))));
    }

    #[test]
    fn more_than_max_keywords_rejected() {
        let words: Vec<String> = (0..=MAX_KEYWORDS).map(|i| format!("w{i}")).collect();
        let xml = format!("<r>{}</r>", words.join(" "));
        let ix = XmlIndex::build(parse(&xml).unwrap());
        assert!(Query::from_words(&ix, &words[..MAX_KEYWORDS]).is_ok());
        assert_eq!(
            Query::from_words(&ix, &words),
            Err(QueryError::TooManyKeywords(MAX_KEYWORDS + 1))
        );
    }

    #[test]
    fn case_insensitive() {
        let ix = ix();
        assert!(Query::parse(&ix, "XML Data").is_ok());
    }
}
