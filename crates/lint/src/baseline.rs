//! The L6 ratchet baseline, committed as `lint-baseline.json`: per query
//! entry point, the number of panic sites transitively reachable from it.
//!
//! The file is a deliberately tiny JSON subset — written and read by this
//! module with no dependencies, like the rest of the crate:
//!
//! ```json
//! {
//!   "version": 3,
//!   "entry_points": { "xtk_core::Engine::run": 3 }
//! }
//! ```
//!
//! A count may fall, never rise.  Versions 1 and 2 also carried per-file
//! L1 budgets; L1 is a clippy lint now (DESIGN.md §7), and those files
//! are refused, naming the version.

use std::collections::BTreeMap;

/// The one baseline version this crate reads and writes.
pub const VERSION: u32 = 3;

/// Parsed `lint-baseline.json`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// qualified entry fn → reachable panic-site budget (L6).
    pub entry_points: BTreeMap<String, u32>,
}

impl Baseline {
    /// Serializes with sorted keys and a trailing newline, so the file
    /// diffs cleanly.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"version\": {VERSION},\n  \"entry_points\": {{");
        let last = self.entry_points.len();
        for (i, (name, n)) in self.entry_points.iter().enumerate() {
            s.push_str("\n    \"");
            for c in name.chars() {
                match c {
                    '"' => s.push_str("\\\""),
                    '\\' => s.push_str("\\\\"),
                    _ => s.push(c),
                }
            }
            s.push_str("\": ");
            s.push_str(&n.to_string());
            if i + 1 < last {
                s.push(',');
            }
        }
        if last > 0 {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// Parses the JSON subset written by [`Baseline::to_json`] (tolerant
    /// of reformatting, intolerant of anything outside the subset).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut p = Parser { b: text.as_bytes(), pos: 0 };
        let mut out = Baseline::default();
        let mut version = None;
        p.eat(b'{')?;
        loop {
            p.ws();
            if p.peek() == Some(b'}') {
                break;
            }
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "version" => version = Some(p.number()?),
                "entry_points" => {
                    p.eat(b'{')?;
                    loop {
                        p.ws();
                        if p.peek() == Some(b'}') {
                            p.pos += 1;
                            break;
                        }
                        let name = p.string()?;
                        p.eat(b':')?;
                        let n = p.number()?;
                        out.entry_points.insert(name, n);
                        p.ws();
                        if p.peek() == Some(b',') {
                            p.pos += 1;
                        }
                    }
                }
                other => return Err(format!("unknown key `{other}` in lint-baseline.json")),
            }
            p.ws();
            if p.peek() == Some(b',') {
                p.pos += 1;
            }
        }
        match version {
            Some(VERSION) => Ok(out),
            Some(v) => Err(format!(
                "unsupported lint-baseline.json version {v} (expected {VERSION}); \
                 rewrite it with `cargo run -p xtk-lint -- --update-baseline`"
            )),
            None => Err("lint-baseline.json has no version".to_string()),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "lint-baseline.json: expected `{}` at byte {}",
                c as char, self.pos
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        other => {
                            return Err(format!(
                                "lint-baseline.json: unsupported escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    s.push(c as char);
                    self.pos += 1;
                }
                None => return Err("lint-baseline.json: unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<u32, String> {
        self.ws();
        let mut n: u32 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if !c.is_ascii_digit() {
                break;
            }
            any = true;
            n = n
                .checked_mul(10)
                .and_then(|m| m.checked_add((c - b'0') as u32))
                .ok_or_else(|| format!("lint-baseline.json: number overflow at byte {}", self.pos))?;
            self.pos += 1;
        }
        if any {
            Ok(n)
        } else {
            Err(format!("lint-baseline.json: expected a number at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut b = Baseline::default();
        b.entry_points.insert("xtk_core::Engine::run".to_string(), 3);
        b.entry_points.insert("xtk_core::ShardedEngine::execute".to_string(), 0);
        let json = b.to_json();
        assert!(json.contains("\"version\": 3"), "{json}");
        assert_eq!(Baseline::parse(&json).unwrap(), b);
    }

    #[test]
    fn empty_roundtrip() {
        let b = Baseline::default();
        assert_eq!(Baseline::parse(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{\"entry_points\": {}}").is_err());
        assert!(Baseline::parse("{\"surprise\": 1}").is_err());
        assert!(Baseline::parse("{\"version\": 3, \"entry_points\": {\"a\": [1]}}").is_err());
        // Versions 1 and 2 carried the per-file L1 section.
        let v2 = "{\"version\": 2, \"files\": {}, \"entry_points\": {}}";
        assert!(Baseline::parse(v2).is_err());
        let v2_only = "{\"version\": 2, \"entry_points\": {}}";
        assert!(Baseline::parse(v2_only).is_err_and(|e| e.contains("version 2")));
    }
}
