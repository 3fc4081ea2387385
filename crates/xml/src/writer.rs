//! Serializing an [`XmlTree`] back to XML text.
//!
//! Used by the corpus generators (to produce on-disk documents whose byte
//! size can be compared against the paper's corpus sizes) and by examples
//! that display result subtrees.

use crate::tree::{NodeId, XmlTree};

/// Escapes character data for element content.
pub fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

/// Escapes an attribute value (double-quote delimited).
pub fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Options controlling serialization.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions {
    /// Indent nested elements by two spaces per depth level and place each
    /// element on its own line.
    pub pretty: bool,
}

/// Serializes the subtree rooted at `id` to XML text.
///
/// Attribute pseudo-children (labels starting with `@`) are emitted as real
/// attributes, round-tripping the parser's convention.
pub fn write_subtree(tree: &XmlTree, id: NodeId, opts: WriteOptions) -> String {
    let mut out = String::new();
    write_node(tree, id, opts, 0, &mut out);
    out
}

/// Serializes the whole document.
pub fn write_document(tree: &XmlTree, opts: WriteOptions) -> String {
    if tree.is_empty() {
        return String::new();
    }
    write_subtree(tree, tree.root(), opts)
}

fn write_node(tree: &XmlTree, id: NodeId, opts: WriteOptions, depth: usize, out: &mut String) {
    let indent = |out: &mut String, d: usize| {
        if opts.pretty {
            if !out.is_empty() {
                out.push('\n');
            }
            for _ in 0..d {
                out.push_str("  ");
            }
        }
    };
    indent(out, depth);
    let label = tree.label(id);
    out.push('<');
    out.push_str(label);
    let mut element_children = Vec::new();
    for &c in tree.children(id) {
        if let Some(aname) = tree.label(c).strip_prefix('@') {
            out.push(' ');
            out.push_str(aname);
            out.push_str("=\"");
            escape_attr(tree.text(c), out);
            out.push('"');
        } else {
            element_children.push(c);
        }
    }
    let text = tree.text(id);
    if text.is_empty() && element_children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if !text.is_empty() {
        escape_text(text, out);
    }
    for c in element_children {
        write_node(tree, c, opts, depth + 1, out);
    }
    if opts.pretty && !tree.children(id).is_empty() && text.is_empty() {
        indent(out, depth);
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_simple() {
        let src = r#"<a x="1"><b>hi &amp; lo</b><c/></a>"#;
        let t = parse(src).unwrap();
        let written = write_document(&t, WriteOptions::default());
        let t2 = parse(&written).unwrap();
        assert_eq!(t.len(), t2.len());
        for (i, j) in t.ids().zip(t2.ids()) {
            assert_eq!(t.label(i), t2.label(j));
            assert_eq!(t.text(i), t2.text(j));
            assert_eq!(t.depth(i), t2.depth(j));
        }
    }

    #[test]
    fn escaping_special_chars() {
        let mut t = crate::XmlTree::new();
        let r = t.add_root("a");
        t.append_text(r, "x<y & \"z\"");
        let s = write_document(&t, WriteOptions::default());
        assert_eq!(s, "<a>x&lt;y &amp; \"z\"</a>");
        let back = parse(&s).unwrap();
        assert_eq!(back.text(back.root()), "x<y & \"z\"");
    }

    #[test]
    fn attr_escaping() {
        let src = "<a t=\"x &quot;q&quot; &amp; y\"/>";
        let t = parse(src).unwrap();
        let s = write_document(&t, WriteOptions::default());
        let back = parse(&s).unwrap();
        assert_eq!(back.text(back.children(back.root())[0]), "x \"q\" & y");
    }

    #[test]
    fn pretty_output_has_newlines() {
        let t = parse("<a><b/><c/></a>").unwrap();
        let s = write_document(&t, WriteOptions { pretty: true });
        assert!(s.contains('\n'));
        assert!(parse(&s).is_ok());
    }

    #[test]
    fn empty_tree_serializes_empty() {
        let t = crate::XmlTree::new();
        assert_eq!(write_document(&t, WriteOptions::default()), "");
    }
}
