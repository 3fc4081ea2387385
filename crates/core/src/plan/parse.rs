//! The query-language front-end: a tiny fully-fallible parser.
//!
//! One query is one line of whitespace-separated tokens.  A token
//! containing `=` is a **knob** (`name=value`); every other token is a
//! **keyword**.  The knobs are exactly the surface the `xtk` CLI already
//! takes as flags, so `xml search k=5 semantics=slca` asks for the top-5
//! SLCAs of `{xml, search}`:
//!
//! ```text
//! query     := token+            (at least one keyword)
//! token     := knob | keyword
//! knob      := name "=" value    (no spaces around "=")
//! keyword   := any token without "="
//!
//! k         := positive integer          (omit for the complete set)
//! semantics := elca | slca               (alias: sem)
//! variant   := operational | formal
//! algorithm := auto | join | stack | indexed | topk | rdil   (alias: alg)
//! threshold := tight | classic
//! scores    := ranked | unranked
//! trace     := off | counters | events
//! rules     := all | none | comma-list of prune,push,elim
//! ```
//!
//! Parsing never panics: every malformed input is a typed [`ParseError`]
//! carrying the byte [`Span`] of the offending token, and
//! [`ParseError::render`] formats the classic caret diagnostic against
//! the original input.  [`ParsedQuery`] displays back to a canonical
//! string that re-parses to the same query (the round-trip property the
//! test suite checks).

use crate::plan::rewrite::RuleSet;
use crate::query::{ElcaVariant, Semantics};
use crate::request::{QueryAlgorithm, QueryRequest, ScoreMode};
use crate::topk::ThresholdKind;
use std::fmt;
use xtk_obs::TraceLevel;

/// Byte range of a token in the original query string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the token.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

/// The parsed (unbound) query: keywords in input order plus the
/// explicitly set knobs.  Unset knobs stay `None` so a binder can layer
/// the parsed query over any base [`QueryRequest`].
#[derive(Debug, Clone, Default)]
pub struct ParsedQuery {
    /// Keywords in the order typed.
    pub keywords: Vec<String>,
    /// Byte span of each keyword (parallel to `keywords`), for bind-time
    /// diagnostics.  Not part of the query's identity.
    pub keyword_spans: Vec<Span>,
    /// `k=N`.
    pub k: Option<usize>,
    /// `semantics=elca|slca`.
    pub semantics: Option<Semantics>,
    /// `variant=operational|formal`.
    pub variant: Option<ElcaVariant>,
    /// `algorithm=auto|join|stack|indexed|topk|rdil`.
    pub algorithm: Option<QueryAlgorithm>,
    /// `threshold=tight|classic`.
    pub threshold: Option<ThresholdKind>,
    /// `scores=ranked|unranked`.
    pub scores: Option<ScoreMode>,
    /// `trace=off|counters|events`.
    pub trace: Option<TraceLevel>,
    /// `rules=all|none|prune,push,elim`.
    pub rules: Option<RuleSet>,
}

/// Two parses are the same query when the keywords and knobs agree;
/// spans are diagnostics, not identity.
impl PartialEq for ParsedQuery {
    fn eq(&self, other: &Self) -> bool {
        self.keywords == other.keywords
            && self.k == other.k
            && self.semantics == other.semantics
            && self.variant == other.variant
            && self.algorithm == other.algorithm
            && self.threshold == other.threshold
            && self.scores == other.scores
            && self.trace == other.trace
            && self.rules == other.rules
    }
}

impl Eq for ParsedQuery {}

/// A malformed query string.  Every variant carries the byte span of the
/// offending token so the CLI can point at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input had no tokens at all.
    Empty,
    /// Knobs only — a query needs at least one keyword.
    NoKeywords,
    /// `name=value` with an unrecognized name.
    UnknownKnob {
        /// The name as typed.
        name: String,
        /// Where it sits in the input.
        span: Span,
    },
    /// A recognized knob with a value outside its domain.
    InvalidValue {
        /// Canonical knob name.
        knob: &'static str,
        /// The value as typed.
        value: String,
        /// The accepted domain, for the message.
        expected: &'static str,
        /// Where it sits in the input.
        span: Span,
    },
    /// The same knob set twice.
    DuplicateKnob {
        /// Canonical knob name.
        knob: &'static str,
        /// Span of the second occurrence.
        span: Span,
    },
    /// The same keyword typed twice (conjunctive queries are sets).
    DuplicateKeyword {
        /// The keyword (lowercased).
        word: String,
        /// Span of the second occurrence.
        span: Span,
    },
}

impl ParseError {
    /// The span the error points at, when it has one.
    pub fn span(&self) -> Option<Span> {
        match self {
            ParseError::Empty | ParseError::NoKeywords => None,
            ParseError::UnknownKnob { span, .. }
            | ParseError::InvalidValue { span, .. }
            | ParseError::DuplicateKnob { span, .. }
            | ParseError::DuplicateKeyword { span, .. } => Some(*span),
        }
    }

    /// Renders the diagnostic with the offending token underlined:
    ///
    /// ```text
    /// query parse error: unknown knob `semantix`
    ///   xml search semantix=slca
    ///              ^^^^^^^^^^^^^
    /// ```
    pub fn render(&self, input: &str) -> String {
        let mut out = format!("query parse error: {self}");
        if let Some(span) = self.span() {
            if let Some(caret) = caret_line(input, span) {
                out.push_str(&caret);
            }
        }
        out
    }
}

/// The two-line `input` + caret-underline suffix of a span diagnostic, or
/// `None` when the input is multiline or the span is out of bounds.
/// Shared with bind-time diagnostics ([`super::bind::PlanError`]).
pub(crate) fn caret_line(input: &str, span: Span) -> Option<String> {
    if input.contains('\n') || span.end > input.len() {
        return None;
    }
    let mut out = String::new();
    out.push_str("\n  ");
    out.push_str(input);
    out.push_str("\n  ");
    // Width in characters, not bytes, so the caret lands under multi-byte
    // tokens too.
    let lead = input.get(..span.start).map_or(0, |s| s.chars().count());
    let width = input
        .get(span.start..span.end)
        .map_or(1, |s| s.chars().count().max(1));
    for _ in 0..lead {
        out.push(' ');
    }
    for _ in 0..width {
        out.push('^');
    }
    Some(out)
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty query"),
            ParseError::NoKeywords => {
                write!(f, "query has knobs but no keywords")
            }
            ParseError::UnknownKnob { name, .. } => {
                write!(f, "unknown knob `{name}`")
            }
            ParseError::InvalidValue { knob, value, expected, .. } => {
                write!(f, "invalid {knob} value `{value}` (expected {expected})")
            }
            ParseError::DuplicateKnob { knob, .. } => {
                write!(f, "knob `{knob}` set twice")
            }
            ParseError::DuplicateKeyword { word, .. } => {
                write!(f, "keyword `{word}` appears twice")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// One scanned token: text and byte span.
fn tokens(text: &str) -> Vec<(&str, Span)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in text.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                if let Some(tok) = text.get(s..i) {
                    out.push((tok, Span { start: s, end: i }));
                }
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        if let Some(tok) = text.get(s..) {
            out.push((tok, Span { start: s, end: text.len() }));
        }
    }
    out
}

/// Sets `slot` or reports the second assignment of `knob`.
fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    knob: &'static str,
    span: Span,
) -> Result<(), ParseError> {
    if slot.is_some() {
        return Err(ParseError::DuplicateKnob { knob, span });
    }
    *slot = Some(value);
    Ok(())
}

fn invalid(
    knob: &'static str,
    value: &str,
    expected: &'static str,
    span: Span,
) -> ParseError {
    ParseError::InvalidValue { knob, value: value.to_string(), expected, span }
}

/// Parses `rules=` — `all`, `none`, or a comma list over
/// `prune`/`push`/`elim`.
fn parse_rules(value: &str, span: Span) -> Result<RuleSet, ParseError> {
    const EXPECTED: &str = "all, none, or a comma list of prune,push,elim";
    match value {
        "all" => return Ok(RuleSet::all()),
        "none" => return Ok(RuleSet::none()),
        _ => {}
    }
    let mut rules = RuleSet::none();
    for part in value.split(',') {
        match part {
            "prune" => rules.prune_columns = true,
            "push" => rules.push_probes = true,
            "elim" => rules.eliminate_noops = true,
            _ => return Err(invalid("rules", value, EXPECTED, span)),
        }
    }
    Ok(rules)
}

/// Parses one query line.  See the module docs for the grammar.
pub fn parse(text: &str) -> Result<ParsedQuery, ParseError> {
    let toks = tokens(text);
    if toks.is_empty() {
        return Err(ParseError::Empty);
    }
    let mut q = ParsedQuery::default();
    for (tok, span) in toks {
        let Some((name, value)) = tok.split_once('=') else {
            let word = tok.to_ascii_lowercase();
            if q.keywords.contains(&word) {
                return Err(ParseError::DuplicateKeyword { word, span });
            }
            q.keywords.push(word);
            q.keyword_spans.push(span);
            continue;
        };
        let name_lc = name.to_ascii_lowercase();
        let value = value.to_ascii_lowercase();
        let v = value.as_str();
        match name_lc.as_str() {
            "k" => {
                let parsed = v.parse::<usize>().ok().filter(|&k| k >= 1);
                match parsed {
                    Some(k) => set_once(&mut q.k, k, "k", span)?,
                    None => return Err(invalid("k", v, "a positive integer", span)),
                }
            }
            "semantics" | "sem" => {
                let s = match v {
                    "elca" => Semantics::Elca,
                    "slca" => Semantics::Slca,
                    _ => return Err(invalid("semantics", v, "elca or slca", span)),
                };
                set_once(&mut q.semantics, s, "semantics", span)?;
            }
            "variant" => {
                let s = match v {
                    "operational" => ElcaVariant::Operational,
                    "formal" => ElcaVariant::Formal,
                    _ => return Err(invalid("variant", v, "operational or formal", span)),
                };
                set_once(&mut q.variant, s, "variant", span)?;
            }
            "algorithm" | "alg" => {
                let a = match v {
                    "auto" => QueryAlgorithm::Auto,
                    "join" => QueryAlgorithm::JoinBased,
                    "stack" => QueryAlgorithm::StackBased,
                    "indexed" => QueryAlgorithm::IndexBased,
                    "topk" => QueryAlgorithm::TopKJoin,
                    "rdil" => QueryAlgorithm::Rdil,
                    _ => {
                        return Err(invalid(
                            "algorithm",
                            v,
                            "auto, join, stack, indexed, topk or rdil",
                            span,
                        ))
                    }
                };
                set_once(&mut q.algorithm, a, "algorithm", span)?;
            }
            "threshold" => {
                let t = match v {
                    "tight" => ThresholdKind::Tight,
                    "classic" => ThresholdKind::Classic,
                    _ => return Err(invalid("threshold", v, "tight or classic", span)),
                };
                set_once(&mut q.threshold, t, "threshold", span)?;
            }
            "scores" => {
                let s = match v {
                    "ranked" => ScoreMode::Ranked,
                    "unranked" => ScoreMode::Unranked,
                    _ => return Err(invalid("scores", v, "ranked or unranked", span)),
                };
                set_once(&mut q.scores, s, "scores", span)?;
            }
            "trace" => {
                let t = match v {
                    "off" => TraceLevel::Off,
                    "counters" => TraceLevel::Counters,
                    "events" => TraceLevel::Events,
                    _ => return Err(invalid("trace", v, "off, counters or events", span)),
                };
                set_once(&mut q.trace, t, "trace", span)?;
            }
            "rules" => {
                let r = parse_rules(v, span)?;
                set_once(&mut q.rules, r, "rules", span)?;
            }
            _ => {
                return Err(ParseError::UnknownKnob { name: name.to_string(), span })
            }
        }
    }
    if q.keywords.is_empty() {
        return Err(ParseError::NoKeywords);
    }
    Ok(q)
}

impl ParsedQuery {
    /// Folds the explicitly set knobs over `base` (the CLI's flag-derived
    /// defaults); unset knobs keep the base values.
    pub fn request_over(&self, base: &QueryRequest) -> QueryRequest {
        let mut req = *base;
        if let Some(k) = self.k {
            req.k = Some(k);
        }
        if let Some(s) = self.semantics {
            req.semantics = s;
        }
        if let Some(v) = self.variant {
            req.variant = v;
        }
        if let Some(a) = self.algorithm {
            req.algorithm = a;
        }
        if let Some(t) = self.threshold {
            req.threshold = t;
        }
        if let Some(s) = self.scores {
            req.scores = s;
        }
        if let Some(t) = self.trace {
            req.trace = t;
        }
        if let Some(r) = self.rules {
            req.rules = r;
        }
        req
    }
}

/// Canonical rendering: keywords in order, then the set knobs in a fixed
/// order.  `parse(q.to_string())` equals `q`.
impl fmt::Display for ParsedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for w in &self.keywords {
            write!(f, "{sep}{w}")?;
            sep = " ";
        }
        if let Some(k) = self.k {
            write!(f, "{sep}k={k}")?;
            sep = " ";
        }
        if let Some(s) = self.semantics {
            let v = match s {
                Semantics::Elca => "elca",
                Semantics::Slca => "slca",
            };
            write!(f, "{sep}semantics={v}")?;
            sep = " ";
        }
        if let Some(v) = self.variant {
            let t = match v {
                ElcaVariant::Operational => "operational",
                ElcaVariant::Formal => "formal",
            };
            write!(f, "{sep}variant={t}")?;
            sep = " ";
        }
        if let Some(a) = self.algorithm {
            let t = match a {
                QueryAlgorithm::Auto => "auto",
                QueryAlgorithm::JoinBased => "join",
                QueryAlgorithm::StackBased => "stack",
                QueryAlgorithm::IndexBased => "indexed",
                QueryAlgorithm::TopKJoin => "topk",
                QueryAlgorithm::Rdil => "rdil",
            };
            write!(f, "{sep}algorithm={t}")?;
            sep = " ";
        }
        if let Some(t) = self.threshold {
            let v = match t {
                ThresholdKind::Tight => "tight",
                ThresholdKind::Classic => "classic",
            };
            write!(f, "{sep}threshold={v}")?;
            sep = " ";
        }
        if let Some(s) = self.scores {
            let v = match s {
                ScoreMode::Ranked => "ranked",
                ScoreMode::Unranked => "unranked",
            };
            write!(f, "{sep}scores={v}")?;
            sep = " ";
        }
        if let Some(t) = self.trace {
            let v = match t {
                TraceLevel::Off => "off",
                TraceLevel::Counters => "counters",
                TraceLevel::Events => "events",
            };
            write!(f, "{sep}trace={v}")?;
            sep = " ";
        }
        if let Some(r) = self.rules {
            write!(f, "{sep}rules={}", r.knob_value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_knobs_parse() {
        let q = parse("xml search k=5 sem=slca alg=topk").unwrap();
        assert_eq!(q.keywords, vec!["xml", "search"]);
        assert_eq!(q.k, Some(5));
        assert_eq!(q.semantics, Some(Semantics::Slca));
        assert_eq!(q.algorithm, Some(QueryAlgorithm::TopKJoin));
        assert_eq!(q.threshold, None);
    }

    #[test]
    fn spans_point_at_tokens() {
        let text = "xml semantix=slca";
        let err = parse(text).unwrap_err();
        let ParseError::UnknownKnob { name, span } = &err else {
            panic!("{err:?}");
        };
        assert_eq!(name, "semantix");
        assert_eq!(text.get(span.start..span.end), Some("semantix=slca"));
        let rendered = err.render(text);
        assert!(rendered.contains("^^^"), "{rendered}");
        assert!(rendered.contains("unknown knob"), "{rendered}");
    }

    #[test]
    fn duplicates_are_rejected() {
        assert!(matches!(
            parse("xml xml"),
            Err(ParseError::DuplicateKeyword { .. })
        ));
        assert!(matches!(
            parse("xml k=1 k=2"),
            Err(ParseError::DuplicateKnob { knob: "k", .. })
        ));
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        assert_eq!(parse("   "), Err(ParseError::Empty));
        assert_eq!(parse("k=3"), Err(ParseError::NoKeywords));
    }

    #[test]
    fn bad_values_name_the_domain() {
        let err = parse("xml k=zero").unwrap_err();
        assert!(matches!(err, ParseError::InvalidValue { knob: "k", .. }));
        let err = parse("xml k=0").unwrap_err();
        assert!(matches!(err, ParseError::InvalidValue { knob: "k", .. }));
        assert!(parse("xml threshold=bogus").is_err());
        assert!(parse("xml rules=prune,bogus").is_err());
    }

    #[test]
    fn rules_knob_round_trips() {
        let q = parse("xml rules=prune,elim").unwrap();
        let r = q.rules.unwrap();
        assert!(r.prune_columns && !r.push_probes && r.eliminate_noops);
        assert_eq!(parse(&q.to_string()).unwrap(), q);
        assert_eq!(parse("xml rules=none").unwrap().rules, Some(RuleSet::none()));
        assert_eq!(parse("xml rules=all").unwrap().rules, Some(RuleSet::all()));
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        let text = "ALG=rdil  search  k=7   xml trace=events";
        let q = parse(text).unwrap();
        let canon = q.to_string();
        assert_eq!(canon, "search xml k=7 algorithm=rdil trace=events");
        assert_eq!(parse(&canon).unwrap(), q);
    }
}
