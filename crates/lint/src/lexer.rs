//! A small Rust lexer — just enough token structure for the project lints.
//!
//! In the spirit of the in-tree XML parser and the `testutil` PRNG, this is
//! a dependency-free approximation of rustc's lexer: it distinguishes
//! identifiers, punctuation, delimiters, lifetimes and every literal form
//! that matters for *not* mis-reading code (strings, raw strings, byte
//! strings, chars, numbers), and it skips comments while harvesting
//! `lint:allow(...)` suppression directives from them.  It does not build
//! an AST; [`crate::parser`] and [`crate::rules`] pattern-match over the
//! token stream directly.

/// The category of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// A lifetime such as `'a` (the text excludes the quote).
    Lifetime,
    /// String, raw-string, byte-string or char literal.
    StrLike,
    /// Numeric literal, integer or float, suffix included.
    Num,
    /// One of `( ) [ ] { }`.
    Delim(u8),
    /// A two-character operator the rules care about: `==`, `!=`, `->`,
    /// `=>`, `::`, `..`.
    Op2([u8; 2]),
    /// Any other single punctuation byte.
    Punct(u8),
}

/// One lexed token: kind plus the byte span and 1-based source line.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// A `lint:allow(rule)` / `lint:allow(rule, reason)` directive harvested
/// from a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line the directive appears on (suppresses findings on this
    /// line and the next).
    pub line: u32,
    /// The rule name inside the parentheses (e.g. `hash-iter`, `L8`).
    pub rule: String,
    /// Everything after the first comma, trimmed.  Rules that demand a
    /// justification (L8) reject a suppression whose reason is empty.
    pub reason: Option<String>,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
}

impl Lexed {
    /// The source text of a token.
    pub fn text<'a>(&self, src: &'a str, i: usize) -> &'a str {
        match self.tokens.get(i) {
            Some(t) => src.get(t.start..t.end).unwrap_or(""),
            None => "",
        }
    }

    /// `true` when `rule` (or `all`) is allowed on `line` — directives
    /// cover their own line and the line directly below, so a comment can
    /// sit above the code it suppresses.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow_for(line, rule).is_some()
    }

    /// The directive covering `line` for `rule`, if any — for rules that
    /// inspect the suppression's reason.
    pub fn allow_for(&self, line: u32, rule: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| (a.line == line || a.line + 1 == line) && (a.rule == rule || a.rule == "all"))
    }
}

/// Lexes `src` into tokens, skipping comments and whitespace.
///
/// The lexer is total: any byte sequence produces a token stream (unknown
/// bytes become `Punct`), so a syntactically broken file never aborts the
/// lint run.
pub fn lex(src: &str) -> Lexed {
    Lexer { src: src.as_bytes(), text: src, pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
    out: Lexed,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_char(b: u8) -> bool {
    is_ident_start(b) || b.is_ascii_digit()
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        self.out.tokens.push(Token { kind, start, end: self.pos, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(b) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                _ if is_ident_start(b) => {
                    while matches!(self.peek(0), Some(c) if is_ident_char(c)) {
                        self.bump();
                    }
                    self.push(TokKind::Ident, start, line);
                }
                _ if b.is_ascii_digit() => self.number(start, line),
                b'(' | b')' | b'[' | b']' | b'{' | b'}' => {
                    self.bump();
                    self.push(TokKind::Delim(b), start, line);
                }
                _ => {
                    self.bump();
                    let two = match (b, self.peek(0)) {
                        (b'=', Some(b'=')) => Some([b'=', b'=']),
                        (b'!', Some(b'=')) => Some([b'!', b'=']),
                        (b'-', Some(b'>')) => Some([b'-', b'>']),
                        (b'=', Some(b'>')) => Some([b'=', b'>']),
                        (b':', Some(b':')) => Some([b':', b':']),
                        (b'.', Some(b'.')) => Some([b'.', b'.']),
                        _ => None,
                    };
                    if let Some(op) = two {
                        self.bump();
                        self.push(TokKind::Op2(op), start, line);
                    } else {
                        self.push(TokKind::Punct(b), start, line);
                    }
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let line = self.line;
        self.harvest_allow(start, self.pos, line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.harvest_allow(start, self.pos, line);
    }

    /// Records `lint:allow(rule)` / `lint:allow(rule, reason)` directives
    /// found inside a comment span.
    fn harvest_allow(&mut self, start: usize, end: usize, line: u32) {
        let Some(comment) = self.text.get(start..end) else { return };
        let mut rest = comment;
        while let Some(i) = rest.find("lint:allow(") {
            let Some(after) = rest.get(i + "lint:allow(".len()..) else { break };
            let Some(j) = after.find(')') else { break };
            let body = after.get(..j).unwrap_or("");
            let (rule, reason) = match body.split_once(',') {
                Some((r, why)) => {
                    let why = why.trim();
                    (r.trim(), (!why.is_empty()).then(|| why.to_string()))
                }
                None => (body.trim(), None),
            };
            if !rule.is_empty() {
                self.out.allows.push(Allow { line, rule: rule.to_string(), reason });
            }
            rest = after.get(j + 1..).unwrap_or("");
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` and raw
    /// identifiers `r#ident`.  Returns `false` (consuming nothing) when the
    /// leading `r`/`b` starts a plain identifier such as `break`.
    fn raw_or_byte_string(&mut self) -> bool {
        let start = self.pos;
        let line = self.line;
        let prefix = match (self.peek(0), self.peek(1)) {
            (Some(b'b'), Some(b'\'')) => {
                self.bump();
                self.bump();
                self.char_body();
                self.push(TokKind::StrLike, start, line);
                return true;
            }
            (Some(b'b'), Some(b'"')) => {
                self.bump();
                self.bump();
                self.string_body();
                self.push(TokKind::StrLike, start, line);
                return true;
            }
            (Some(b'b'), Some(b'r')) => 2,
            (Some(b'r'), _) => 1,
            _ => return false,
        };
        let mut hashes = 0usize;
        while self.peek(prefix + hashes) == Some(b'#') {
            hashes += 1;
        }
        match self.peek(prefix + hashes) {
            Some(b'"') => {
                for _ in 0..prefix + hashes + 1 {
                    self.bump();
                }
                self.raw_string_body(hashes);
                self.push(TokKind::StrLike, start, line);
                true
            }
            Some(c) if prefix == 1 && hashes == 1 && is_ident_start(c) => {
                // Raw identifier r#ident.
                self.bump();
                self.bump();
                while matches!(self.peek(0), Some(x) if is_ident_char(x)) {
                    self.bump();
                }
                self.push(TokKind::Ident, start, line);
                true
            }
            _ => false,
        }
    }

    /// Consumes an escaped string body after the opening quote, including
    /// the closing quote.
    fn string_body(&mut self) {
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
    }

    fn raw_string_body(&mut self, hashes: usize) {
        loop {
            match self.bump() {
                None => break,
                Some(b'"') => {
                    let mut n = 0;
                    while n < hashes && self.peek(0) == Some(b'#') {
                        self.bump();
                        n += 1;
                    }
                    if n == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn string(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump();
        self.string_body();
        self.push(TokKind::StrLike, start, line);
    }

    /// Consumes a char-literal body after the opening quote, including the
    /// closing quote.
    fn char_body(&mut self) {
        if self.peek(0) == Some(b'\\') {
            // The escape head may itself be a quote (`'\''`) — consume the
            // backslash and one byte unconditionally, then fall through to
            // the quote scan so multi-byte escapes (`\x41`, `\u{10FFFF}`)
            // stay inside the literal instead of leaking as tokens.
            self.bump();
            self.bump();
        }
        // A char may be multi-byte UTF-8 (or a multi-byte escape payload);
        // consume until the closing quote.
        while matches!(self.peek(0), Some(c) if c != b'\'' && c != b'\n') {
            self.bump();
        }
        if self.peek(0) == Some(b'\'') {
            self.bump();
        }
    }

    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.bump(); // the quote
        match self.peek(0) {
            Some(b'\\') => {
                self.char_body();
                self.push(TokKind::StrLike, start, line);
            }
            Some(c) if is_ident_start(c) => {
                // 'a' is a char; 'a (no closing quote right after the
                // ident run) is a lifetime.
                let mut n = 1;
                while matches!(self.peek(n), Some(x) if is_ident_char(x)) {
                    n += 1;
                }
                if self.peek(n) == Some(b'\'') {
                    self.char_body();
                    self.push(TokKind::StrLike, start, line);
                } else {
                    for _ in 0..n {
                        self.bump();
                    }
                    self.push(TokKind::Lifetime, start, line);
                }
            }
            _ => {
                self.char_body();
                self.push(TokKind::StrLike, start, line);
            }
        }
    }

    fn number(&mut self, start: usize, line: u32) {
        // Hex/octal/binary prefixes never take an exponent.
        let radix_prefix = self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'));
        while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            let c = self.peek(0).unwrap_or(0);
            if !radix_prefix && (c == b'e' || c == b'E') && matches!(self.peek(1), Some(d) if d.is_ascii_digit() || d == b'+' || d == b'-') {
                self.bump();
                self.bump();
                continue;
            }
            self.bump();
        }
        // A dot followed by a digit continues a float; `0..n` does not.
        if self.peek(0) == Some(b'.') && matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
        }
        self.push(TokKind::Num, start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).tokens.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let l = lex("let x = y.unwrap();");
        let texts: Vec<&str> = (0..l.tokens.len()).map(|i| l.text("let x = y.unwrap();", i)).collect();
        assert_eq!(texts, vec!["let", "x", "=", "y", ".", "unwrap", "(", ")", ";"]);
    }

    #[test]
    fn comments_are_skipped_but_allows_harvested() {
        let src = "a // lint:allow(panic)\nb /* lint:allow(index) */ c";
        let l = lex(src);
        assert_eq!(l.tokens.len(), 3);
        assert_eq!(l.allows.len(), 2);
        assert!(l.allowed(1, "panic"));
        assert!(l.allowed(2, "panic"), "directive covers the following line");
        assert!(!l.allowed(3, "panic"));
        assert!(l.allowed(2, "index"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"f("x.unwrap() // not a comment", 'y', "\"q\"")"#;
        let l = lex(src);
        let strlike = l.tokens.iter().filter(|t| t.kind == TokKind::StrLike).count();
        assert_eq!(strlike, 3);
        // No ident token named unwrap leaked out of the string.
        assert!(!(0..l.tokens.len()).any(|i| l.text(src, i) == "unwrap"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r###"let a = r#"has "quotes" and ] inside"#; let b = b"bytes"; let c = br#"raw"#;"###;
        let l = lex(src);
        let strlike = l.tokens.iter().filter(|t| t.kind == TokKind::StrLike).count();
        assert_eq!(strlike, 3, "{:?}", l.tokens);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str) { let c = 'z'; let d = '\\n'; let e = b' '; }";
        let l = lex(src);
        let lifetimes = l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.tokens.iter().filter(|t| t.kind == TokKind::StrLike).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
    }

    #[test]
    fn numbers_and_floats() {
        let src = "1 2.5 1e-9 0x58544B01 3f32 0..n 7u64";
        let l = lex(src);
        let nums: Vec<&str> = (0..l.tokens.len())
            .filter(|&i| l.tokens.get(i).is_some_and(|t| t.kind == TokKind::Num))
            .map(|i| l.text(src, i))
            .collect();
        assert_eq!(nums, vec!["1", "2.5", "1e-9", "0x58544B01", "3f32", "0", "7u64"]);
        // The range `0..n` produced an Op2 and an ident.
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Op2([b'.', b'.'])));
    }

    #[test]
    fn two_char_operators() {
        let k = kinds("a == b != c -> d => e :: f");
        assert!(k.contains(&TokKind::Op2([b'=', b'='])));
        assert!(k.contains(&TokKind::Op2([b'!', b'='])));
        assert!(k.contains(&TokKind::Op2([b'-', b'>'])));
        assert!(k.contains(&TokKind::Op2([b'=', b'>'])));
        assert!(k.contains(&TokKind::Op2([b':', b':'])));
    }

    #[test]
    fn line_numbers_advance() {
        let l = lex("a\nb\n\nc");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* x /* y */ z */ b");
        assert_eq!(l.tokens.len(), 2);
    }

    #[test]
    fn deeply_nested_block_comments() {
        // Depth changes interleaved with near-miss `*/` and `/*` runs.
        let l = lex("a /* 1 /* 2 /* 3 */ 2 */ 1 */ b\nc /*/ still open */ d");
        let texts: Vec<TokKind> = kinds("a b c d");
        assert_eq!(l.tokens.iter().map(|t| t.kind).collect::<Vec<_>>(), texts);
        // Line numbers keep advancing inside multi-line comments.
        let l = lex("/* line1\nline2\nline3 */ x");
        assert_eq!(l.tokens.first().map(|t| t.line), Some(3));
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        // The closing delimiter must match the exact hash count; shorter
        // runs inside the body do not terminate the literal.
        let src = r####"let a = r##"body with "# and "quotes" inside"##;"####;
        let l = lex(src);
        let strs: Vec<&str> =
            (0..l.tokens.len()).filter(|&i| l.tokens[i].kind == TokKind::StrLike).map(|i| l.text(src, i)).collect();
        assert_eq!(strs, vec![r####"r##"body with "# and "quotes" inside"##"####]);
        // A raw string never processes backslash escapes: `\` before the
        // closing delimiter must not extend the literal.
        let src2 = r##"r#"ends in backslash\"# + x"##;
        let l2 = lex(src2);
        assert!((0..l2.tokens.len()).any(|i| l2.text(src2, i) == "x"), "{:?}", l2.tokens);
        // Extra hashes after the close are ordinary punctuation.
        let src3 = r###"r#"a"## b"###;
        let l3 = lex(src3);
        assert!((0..l3.tokens.len()).any(|i| l3.text(src3, i) == "b"));
        assert!(l3.tokens.iter().any(|t| t.kind == TokKind::Punct(b'#')));
    }

    #[test]
    fn byte_and_char_literals_with_escapes() {
        // `b'\x00'` and `'\u{1F600}'` are single literals; the escape
        // payload must not leak out as number/brace tokens.
        for src in ["b'\\x00'", "'\\x7f'", "'\\u{1F600}'", "b'\\''", "'\\\\'"] {
            let l = lex(src);
            assert_eq!(l.tokens.len(), 1, "{src:?} -> {:?}", l.tokens);
            assert_eq!(l.tokens.first().map(|t| t.kind), Some(TokKind::StrLike), "{src:?}");
        }
        // Mixed into an expression: the following tokens survive intact.
        let src = "f(b'\\x1b', '\\u{41}', q)";
        let l = lex(src);
        let texts: Vec<&str> = (0..l.tokens.len()).map(|i| l.text(src, i)).collect();
        assert!(texts.contains(&"q"), "{texts:?}");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::StrLike).count(), 2);
        // Byte strings with escaped quotes and hex escapes stay one token.
        let src2 = r#"g(b"a\"b\x00", h)"#;
        let l2 = lex(src2);
        assert_eq!(l2.tokens.iter().filter(|t| t.kind == TokKind::StrLike).count(), 1);
        assert!((0..l2.tokens.len()).any(|i| l2.text(src2, i) == "h"));
    }

    #[test]
    fn allow_with_reason() {
        let src = "// lint:allow(L8, scratch reused across rounds)\nx\n// lint:allow(panic)\ny";
        let l = lex(src);
        assert!(l.allowed(2, "L8"));
        let a = l.allow_for(2, "L8").expect("directive");
        assert_eq!(a.reason.as_deref(), Some("scratch reused across rounds"));
        assert!(l.allow_for(4, "panic").is_some_and(|a| a.reason.is_none()));
        // Empty reason after a comma is treated as no reason.
        let l2 = lex("// lint:allow(L8, )\nz");
        assert!(l2.allow_for(2, "L8").is_some_and(|a| a.reason.is_none()));
    }

    #[test]
    fn broken_input_never_loops() {
        // Unterminated constructs must still terminate the lexer.
        for src in ["\"unterminated", "r#\"unterminated", "/* unterminated", "'"] {
            let _ = lex(src);
        }
    }
}
