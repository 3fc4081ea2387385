//! A small, dependency-free streaming XML parser.
//!
//! Plays the role Xerces plays in the paper's system: it turns a document
//! into the element tree the indexer consumes.  The supported subset covers
//! everything the DBLP/XMark-style corpora need:
//!
//! * elements with attributes (attributes become `@name` pseudo-children,
//!   the convention used throughout the XML keyword-search literature),
//! * character data, CDATA sections,
//! * comments, processing instructions, an optional XML declaration and a
//!   DOCTYPE line (all skipped),
//! * the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`) and
//!   decimal/hex character references.
//!
//! Not supported (and rejected or skipped explicitly): internal DTD subsets
//! with entity definitions, namespaces-aware processing (prefixes are kept
//! verbatim as part of the name).

use crate::error::{ParseError, ParseErrorKind, Result};
use crate::tree::{NodeId, XmlTree};

/// Parses an XML document into an [`XmlTree`].
///
/// ```
/// let tree = xtk_xml::parse(r#"<paper year="2010"><title>top-k xml</title></paper>"#).unwrap();
/// assert_eq!(tree.label(tree.root()), "paper");
/// assert_eq!(tree.len(), 3); // paper, @year, title
/// ```
pub fn parse(input: &str) -> Result<XmlTree> {
    Parser::new(input).run()
}

struct Parser<'a> {
    input: &'a [u8],
    text: &'a str,
    pos: usize,
    tree: XmlTree,
    stack: Vec<NodeId>,
}

impl<'a> Parser<'a> {
    /// A parser whose tree has room for every node of `text` (one per
    /// start tag, one per `=`): its node array is allocated once, as
    /// doubling's copies leave holes that move the peak memory.
    fn new(text: &'a str) -> Self {
        let input = text.as_bytes();
        let tags = input.windows(2).filter(|w| matches!(w, [b'<', c] if Self::is_name_start(*c)));
        let nodes = tags.count() + input.iter().filter(|&&b| b == b'=').count();
        Self { input, text, pos: 0, tree: XmlTree::with_capacity(nodes), stack: Vec::new() }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        self.err_at(kind, self.pos)
    }

    fn err_at(&self, kind: ParseErrorKind, offset: usize) -> ParseError {
        let mut line = 1u32;
        let mut last_nl = 0usize;
        let prefix = self.input.get(..offset.min(self.input.len())).unwrap_or(self.input);
        for (i, &b) in prefix.iter().enumerate() {
            if b == b'\n' {
                line += 1;
                last_nl = i + 1;
            }
        }
        ParseError { kind, offset, line, column: (offset - last_nl) as u32 + 1 }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, what: &'static str) -> Result<()> {
        match self.bump() {
            Some(x) if x == b => Ok(()),
            Some(x) => Err(self.err_at(
                ParseErrorKind::UnexpectedChar { expected: what, found: x as char },
                self.pos - 1,
            )),
            None => Err(self.err(ParseErrorKind::UnexpectedEof(what))),
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.get(self.pos..).is_some_and(|rest| rest.starts_with(s.as_bytes()))
    }

    /// The source text between two positions the parser has visited; both
    /// are UTF-8 boundaries by construction, so a miss decodes to `""`.
    fn span(&self, start: usize, end: usize) -> &'a str {
        self.text.get(start..end).unwrap_or("")
    }

    fn skip_until(&mut self, end: &str, what: &'static str) -> Result<()> {
        match self.text.get(self.pos..).and_then(|rest| rest.find(end)) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(ParseErrorKind::UnexpectedEof(what))),
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            _ => return Err(self.err(ParseErrorKind::InvalidName)),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        Ok(self.span(start, self.pos))
    }

    /// Decodes an entity reference starting *after* the `&`.
    fn read_entity(&mut self, out: &mut String) -> Result<()> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let name = self.span(start, self.pos);
                self.pos += 1;
                let decoded = match name {
                    "lt" => '<',
                    "gt" => '>',
                    "amp" => '&',
                    "apos" => '\'',
                    "quot" => '"',
                    _ if name.starts_with('#') => {
                        let num = name.get(1..).unwrap_or("");
                        let cp = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
                            u32::from_str_radix(hex, 16)
                        } else {
                            num.parse::<u32>()
                        }
                        .map_err(|_| self.err_at(ParseErrorKind::InvalidCharRef(num.to_string()), start))?;
                        char::from_u32(cp).ok_or_else(|| {
                            self.err_at(ParseErrorKind::InvalidCharRef(num.to_string()), start)
                        })?
                    }
                    _ => {
                        return Err(
                            self.err_at(ParseErrorKind::UnknownEntity(name.to_string()), start)
                        )
                    }
                };
                out.push(decoded);
                return Ok(());
            }
            if b == b'<' || b == b'&' || self.pos - start > 12 {
                break;
            }
            self.pos += 1;
        }
        Err(self.err_at(ParseErrorKind::UnknownEntity(self.span(start, self.pos).to_string()), start))
    }

    /// Reads character data up to the next `<`, decoding entities.
    fn read_text(&mut self) -> Result<String> {
        let mut out = String::new();
        let mut run_start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'<' => break,
                b'&' => {
                    out.push_str(self.span(run_start, self.pos));
                    self.pos += 1;
                    self.read_entity(&mut out)?;
                    run_start = self.pos;
                }
                _ => self.pos += 1,
            }
        }
        out.push_str(self.span(run_start, self.pos));
        Ok(out)
    }

    fn read_attr_value(&mut self) -> Result<String> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(x) => {
                return Err(self.err_at(
                    ParseErrorKind::UnexpectedChar { expected: "quote", found: x as char },
                    self.pos - 1,
                ))
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
        };
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                Some(q) if q == quote => {
                    out.push_str(self.span(run_start, self.pos));
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => {
                    out.push_str(self.span(run_start, self.pos));
                    self.pos += 1;
                    self.read_entity(&mut out)?;
                    run_start = self.pos;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
            }
        }
    }

    /// Parses `<name attr="v" ...>` after the `<` has been consumed.
    fn open_element(&mut self) -> Result<()> {
        let name = self.read_name()?;
        let id = match self.stack.last().copied() {
            Some(parent) => self.tree.add_child(parent, name),
            None => {
                if !self.tree.is_empty() {
                    return Err(self.err(ParseErrorKind::ContentOutsideRoot));
                }
                self.tree.add_root(name)
            }
        };
        // Attributes.
        let mut seen: Vec<&str> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    self.stack.push(id);
                    return Ok(());
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect_byte(b'>', "'>' after '/'")?;
                    return Ok(()); // self-closing: nothing pushed
                }
                Some(b) if Self::is_name_start(b) => {
                    let astart = self.pos;
                    let aname = self.read_name()?;
                    if seen.contains(&aname) {
                        return Err(
                            self.err_at(ParseErrorKind::DuplicateAttribute(aname.to_string()), astart)
                        );
                    }
                    seen.push(aname);
                    self.skip_ws();
                    self.expect_byte(b'=', "'=' after attribute name")?;
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    let mut label = String::with_capacity(aname.len() + 1);
                    label.push('@');
                    label.push_str(aname);
                    let attr = self.tree.add_child(id, label);
                    self.tree.append_text(attr, &value);
                }
                Some(x) => {
                    return Err(self.err(ParseErrorKind::UnexpectedChar {
                        expected: "attribute, '>' or '/>'",
                        found: x as char,
                    }))
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("start tag"))),
            }
        }
    }

    fn close_element(&mut self) -> Result<()> {
        let start = self.pos;
        let name = self.read_name()?;
        self.skip_ws();
        self.expect_byte(b'>', "'>' in close tag")?;
        match self.stack.pop() {
            Some(open) if self.tree.label(open) == name => Ok(()),
            Some(open) => Err(self.err_at(
                ParseErrorKind::MismatchedClose {
                    open: self.tree.label(open).to_string(),
                    close: name.to_string(),
                },
                start,
            )),
            None => Err(self.err_at(ParseErrorKind::UnbalancedClose(name.to_string()), start)),
        }
    }

    fn run(mut self) -> Result<XmlTree> {
        loop {
            // Text (or whitespace) until the next markup.
            if self.stack.is_empty() {
                self.skip_ws();
            } else {
                let text = self.read_text()?;
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    if let Some(&cur) = self.stack.last() {
                        self.tree.append_text(cur, trimmed);
                    }
                }
            }
            match self.peek() {
                None => break,
                Some(b'<') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'/') => {
                            self.pos += 1;
                            self.close_element()?;
                        }
                        Some(b'!') => {
                            if self.starts_with("!--") {
                                self.pos += 3;
                                self.skip_until("-->", "comment")?;
                            } else if self.starts_with("![CDATA[") {
                                self.pos += 8;
                                let start = self.pos;
                                self.skip_until("]]>", "CDATA section")?;
                                let data = self.span(start, self.pos - 3);
                                if let Some(&cur) = self.stack.last() {
                                    let t = data.trim();
                                    if !t.is_empty() {
                                        self.tree.append_text(cur, t);
                                    }
                                } else if !data.trim().is_empty() {
                                    return Err(self.err(ParseErrorKind::ContentOutsideRoot));
                                }
                            } else {
                                // DOCTYPE and friends: skip to the matching '>'
                                // (no internal-subset bracket nesting support).
                                self.skip_until(">", "DOCTYPE")?;
                            }
                        }
                        Some(b'?') => {
                            self.pos += 1;
                            self.skip_until("?>", "processing instruction")?;
                        }
                        Some(_) => {
                            if self.stack.is_empty() && !self.tree.is_empty() {
                                return Err(self.err(ParseErrorKind::ContentOutsideRoot));
                            }
                            self.open_element()?;
                        }
                        None => return Err(self.err(ParseErrorKind::UnexpectedEof("markup"))),
                    }
                }
                // `read_text` stops only at '<' or EOF, so any other byte
                // here means no element is open and non-whitespace content
                // sits outside the root.
                Some(_) => return Err(self.err(ParseErrorKind::ContentOutsideRoot)),
            }
        }
        if !self.stack.is_empty() {
            return Err(self.err(ParseErrorKind::UnclosedElements(self.stack.len())));
        }
        if self.tree.is_empty() {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        Ok(self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind as K;

    #[test]
    fn minimal_document() {
        let t = parse("<a/>").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.label(t.root()), "a");
    }

    #[test]
    fn nested_elements_and_text() {
        let t = parse("<a><b>xml data</b><c>keyword</c></a>").unwrap();
        assert_eq!(t.len(), 3);
        let kids = t.children(t.root()).to_vec();
        assert_eq!(t.label(kids[0]), "b");
        assert_eq!(t.text(kids[0]), "xml data");
        assert_eq!(t.text(kids[1]), "keyword");
    }

    #[test]
    fn attributes_become_pseudo_children() {
        let t = parse(r#"<paper year="2010" venue="icde"/>"#).unwrap();
        assert_eq!(t.len(), 3);
        let kids = t.children(t.root()).to_vec();
        assert_eq!(t.label(kids[0]), "@year");
        assert_eq!(t.text(kids[0]), "2010");
        assert_eq!(t.label(kids[1]), "@venue");
        assert_eq!(t.text(kids[1]), "icde");
    }

    #[test]
    fn entities_decode() {
        let t = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(t.text(t.root()), "<tag> & \"q\" 'a' AB");
    }

    #[test]
    fn entity_in_attribute() {
        let t = parse(r#"<a t="x &amp; y"/>"#).unwrap();
        let attr = t.children(t.root())[0];
        assert_eq!(t.text(attr), "x & y");
    }

    #[test]
    fn comments_pi_doctype_skipped() {
        let t = parse(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE dblp>\n<!-- c --><a><!-- inner -->hi<?pi data?></a>",
        )
        .unwrap();
        assert_eq!(t.text(t.root()), "hi");
    }

    #[test]
    fn cdata_is_text() {
        let t = parse("<a><![CDATA[x < y & z]]></a>").unwrap();
        assert_eq!(t.text(t.root()), "x < y & z");
    }

    #[test]
    fn mixed_content_concatenates() {
        let t = parse("<a>one<b>two</b>three</a>").unwrap();
        assert_eq!(t.text(t.root()), "one three");
        assert_eq!(t.text(t.children(t.root())[0]), "two");
    }

    #[test]
    fn mismatched_close_reports_names() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, K::MismatchedClose { .. }), "{e}");
    }

    #[test]
    fn unbalanced_close_rejected() {
        let e = parse("</a>").unwrap_err();
        assert!(matches!(e.kind, K::UnbalancedClose(_)), "{e}");
    }

    #[test]
    fn unclosed_elements_rejected() {
        let e = parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, K::UnclosedElements(2)), "{e}");
    }

    #[test]
    fn two_roots_rejected() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, K::ContentOutsideRoot), "{e}");
    }

    #[test]
    fn text_outside_root_rejected() {
        let e = parse("<a/>stray").unwrap_err();
        assert!(matches!(e.kind, K::ContentOutsideRoot), "{e}");
    }

    #[test]
    fn empty_input_rejected() {
        let e = parse("   ").unwrap_err();
        assert!(matches!(e.kind, K::NoRootElement), "{e}");
    }

    #[test]
    fn unknown_entity_rejected() {
        let e = parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(e.kind, K::UnknownEntity(ref n) if n == "nbsp"), "{e}");
    }

    #[test]
    fn bad_char_ref_rejected() {
        let e = parse("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(e.kind, K::InvalidCharRef(_)), "{e}");
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let e = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind, K::DuplicateAttribute(_)), "{e}");
    }

    #[test]
    fn error_position_line_column() {
        let e = parse("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1);
    }

    #[test]
    fn utf8_names_and_text() {
        let t = parse("<πñ>données</πñ>").unwrap();
        assert_eq!(t.label(t.root()), "πñ");
        assert_eq!(t.text(t.root()), "données");
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</d>");
        }
        let t = parse(&s).unwrap();
        assert_eq!(t.len(), 200);
        assert_eq!(t.max_depth(), 200);
    }
}
