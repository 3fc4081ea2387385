//! Property and corpus tests for the query-language front-end.
//!
//! * **Round-trip**: for every well-formed input, `parse` → `Display` →
//!   `parse` is the identity on the parsed query, and `Display` is a
//!   canonical fixed point (`display(parse(display(q))) == display(q)`).
//! * **Total**: `parse` never panics — random token soup either parses
//!   or returns a typed [`ParseError`] whose caret rendering also never
//!   panics and underlines a real slice of the input.
//! * **Corpus**: every error variant is exercised by a malformed-input
//!   corpus with its expected message.

use xtk_core::plan::{parse, ParseError};
use xtk_xml::testutil::{prop_check, Gen};

/// A random lowercase word (never contains `=`, so always a keyword).
fn word(g: &mut Gen) -> String {
    let n = g.gen_range(1..9usize);
    (0..n).map(|_| (b'a' + (g.gen_range(0..26u32) as u8)) as char).collect()
}

/// A random well-formed query string: distinct keywords with a random
/// subset of knobs (random aliases, random casing) interleaved anywhere
/// after the first keyword, separated by random whitespace runs.
fn well_formed(g: &mut Gen) -> String {
    let mut keywords: Vec<String> = Vec::new();
    let n = g.gen_range(1..5usize);
    while keywords.len() < n {
        let w = word(g);
        if !keywords.contains(&w) {
            keywords.push(w);
        }
    }
    let mut knobs: Vec<String> = Vec::new();
    if g.gen_bool(0.6) {
        knobs.push(format!("k={}", g.gen_range(1..1000usize)));
    }
    if g.gen_bool(0.5) {
        let name = if g.gen_bool(0.5) { "semantics" } else { "sem" };
        let v = if g.gen_bool(0.5) { "elca" } else { "slca" };
        knobs.push(format!("{name}={v}"));
    }
    if g.gen_bool(0.4) {
        let v = if g.gen_bool(0.5) { "operational" } else { "formal" };
        knobs.push(format!("variant={v}"));
    }
    if g.gen_bool(0.5) {
        let name = if g.gen_bool(0.5) { "algorithm" } else { "alg" };
        let vals = ["auto", "join", "stack", "topk"];
        knobs.push(format!("{name}={}", vals[g.gen_range(0..vals.len())]));
    }
    if g.gen_bool(0.3) {
        let v = if g.gen_bool(0.5) { "tight" } else { "classic" };
        knobs.push(format!("threshold={v}"));
    }
    if g.gen_bool(0.3) {
        let v = if g.gen_bool(0.5) { "ranked" } else { "unranked" };
        knobs.push(format!("scores={v}"));
    }
    if g.gen_bool(0.3) {
        let vals = ["off", "counters", "events"];
        knobs.push(format!("trace={}", vals[g.gen_range(0..vals.len())]));
    }
    // Interleave: first token must be the first keyword only because we
    // splice knobs *after* a random keyword prefix — the grammar itself
    // allows any order, which the shuffle below exercises.
    let mut tokens: Vec<String> = keywords;
    for knob in knobs {
        let at = g.gen_range(0..tokens.len() + 1);
        tokens.insert(at, knob);
    }
    let mut out = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            for _ in 0..g.gen_range(1..4usize) {
                out.push(if g.gen_bool(0.8) { ' ' } else { '\t' });
            }
        }
        out.push_str(t);
    }
    out
}

#[test]
fn parse_display_parse_round_trips() {
    prop_check(0x91a7_5eed, 300, |g| {
        let input = well_formed(g);
        let q = match parse(&input) {
            Ok(q) => q,
            // The only legal failure for a well-formed draw is a knob
            // token colliding with nothing — there is none; any Err here
            // is a real bug.
            Err(e) => panic!("well-formed input failed to parse: {input:?}: {e}"),
        };
        let canon = q.to_string();
        let q2 = parse(&canon)
            .unwrap_or_else(|e| panic!("canonical form failed to parse: {canon:?}: {e}"));
        assert_eq!(q, q2, "round trip through {canon:?}");
        assert_eq!(canon, q2.to_string(), "Display is a fixed point");
    });
}

#[test]
fn parse_is_total_on_token_soup() {
    prop_check(77, 300, |g| {
        let n = g.gen_range(0..7usize);
        let charset: Vec<char> =
            "abcxyz=,=  \t0123456789KSEM#?^prune".chars().collect();
        let mut input = String::new();
        for i in 0..n {
            if i > 0 {
                input.push(' ');
            }
            let len = g.gen_range(0..10usize);
            for _ in 0..len {
                input.push(charset[g.gen_range(0..charset.len())]);
            }
        }
        match parse(&input) {
            Ok(q) => {
                // Whatever parsed must round-trip.
                let canon = q.to_string();
                assert_eq!(parse(&canon).as_ref(), Ok(&q), "{input:?} -> {canon:?}");
            }
            Err(e) => {
                // Rendering must not panic, and a caret (when present)
                // must underline a real, in-bounds slice of the input.
                let rendered = e.render(&input);
                assert!(rendered.starts_with("query parse error: "), "{rendered}");
                if let Some(span) = e.span() {
                    assert!(span.start <= span.end && span.end <= input.len());
                    assert!(input.get(span.start..span.end).is_some());
                }
            }
        }
    });
}

/// Every [`ParseError`] variant, with its message and caret placement.
#[test]
fn malformed_corpus_reports_typed_errors() {
    let cases: &[(&str, &str)] = &[
        ("", "empty query"),
        ("   \t ", "empty query"),
        ("k=5 sem=slca", "query has knobs but no keywords"),
        ("xml search semantix=slca", "unknown knob `semantix`"),
        ("xml k=0", "invalid k value `0` (expected a positive integer)"),
        ("xml k=-3", "invalid k value `-3`"),
        ("xml k=banana", "invalid k value `banana`"),
        ("xml sem=both", "invalid semantics value `both` (expected elca or slca)"),
        ("xml variant=strict", "invalid variant value `strict`"),
        ("xml alg=quantum", "invalid algorithm value `quantum`"),
        // The index-based and RDIL baselines are not served.
        ("xml alg=indexed", "invalid algorithm value `indexed` (expected auto, join, stack or topk)"),
        ("xml algorithm=rdil k=5", "invalid algorithm value `rdil` (expected auto, join, stack or topk)"),
        // The join-plan knob is gone: unknown, not silently ignored.
        ("xml plan=merge", "unknown knob `plan`"),
        ("xml search plan=index k=3", "unknown knob `plan`"),
        ("xml PLAN=dynamic", "unknown knob `PLAN`"),
        ("xml threshold=loose", "invalid threshold value `loose`"),
        ("xml scores=maybe", "invalid scores value `maybe`"),
        ("xml trace=loud", "invalid trace value `loud`"),
        // The rewrite rules always run: `rules=` is no knob.
        ("xml rules=all", "unknown knob `rules`"),
        ("xml search rules=none k=3", "unknown knob `rules`"),
        ("xml k=1 k=2", "knob `k` set twice"),
        ("xml sem=elca semantics=slca", "knob `semantics` set twice"),
        ("xml search xml", "keyword `xml` appears twice"),
        ("xml search XML", "keyword `xml` appears twice"),
    ];
    for (input, want) in cases {
        let err = parse(input).expect_err(input);
        let msg = err.to_string();
        assert!(msg.contains(want), "{input:?}: got {msg:?}, want {want:?}");
        let rendered = err.render(input);
        if let Some(span) = err.span() {
            // The caret block quotes the input and underlines the span.
            assert!(rendered.contains(input), "{rendered}");
            let carets = "^".repeat(input[span.start..span.end].chars().count().max(1));
            assert!(rendered.ends_with(&carets), "{rendered:?}");
        }
    }
}

/// Spans point at the offending token, not the whole input.
#[test]
fn spans_underline_the_offending_token() {
    let input = "xml search semantix=slca";
    let err = parse(input).unwrap_err();
    let span = err.span().expect("unknown knob has a span");
    assert_eq!(&input[span.start..span.end], "semantix=slca");
    match err {
        ParseError::UnknownKnob { ref name, .. } => assert_eq!(name, "semantix"),
        ref other => panic!("expected UnknownKnob, got {other:?}"),
    }

    let input = "xml plan=merge k=2";
    let err = parse(input).unwrap_err();
    assert!(matches!(err, ParseError::UnknownKnob { ref name, .. } if name == "plan"), "{err:?}");
    let span = err.span().expect("unknown knob has a span");
    assert_eq!(&input[span.start..span.end], "plan=merge");

    let input = "xml alg=rdil k=2";
    let span = parse(input).unwrap_err().span().expect("invalid value has a span");
    assert_eq!(&input[span.start..span.end], "alg=rdil");

    let input = "top join k=1 k=9";
    let err = parse(input).unwrap_err();
    let span = err.span().expect("duplicate knob has a span");
    assert_eq!(&input[span.start..span.end], "k=9");
}
