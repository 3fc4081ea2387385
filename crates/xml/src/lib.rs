#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::let_underscore_must_use
)]

//! XML substrate for `xtk` — the reproduction of *"Supporting Top-K Keyword
//! Search in XML Databases"* (Chen & Papakonstantinou, ICDE 2010).
//!
//! This crate provides everything the paper assumes about the data layer:
//!
//! * a streaming [XML parser](parser) (elements, attributes, text, CDATA,
//!   comments, processing instructions, the five predefined entities and
//!   numeric character references) building an arena [`XmlTree`],
//! * the classic [Dewey id](dewey::DeweyId) encoding (document order =
//!   lexicographic order; LCA = longest common prefix), used by the
//!   stack-based / index-based / RDIL baselines,
//! * the paper's [JDewey encoding](jdewey) (§III-A): per-level numbers that
//!   are unique *within a tree level* and monotone in parent order, so that a
//!   node is identified by a `(level, number)` pair and inverted lists can be
//!   stored column-per-level,
//! * [incremental maintenance](maintain) of JDewey numbers under node
//!   insertion/deletion with reserved gaps and partial re-encoding,
//! * an [XML writer](writer) and [tree statistics](stats).
//!
//! # Quick example
//!
//! ```
//! use xtk_xml::{parse, jdewey::JDeweyAssignment};
//!
//! let tree = parse("<a><b>xml data</b><c>xml</c></a>").unwrap();
//! assert_eq!(tree.len(), 3);
//! let jd = JDeweyAssignment::assign(&tree, 0);
//! // Root always gets JDewey number 1 at level 1.
//! assert_eq!(jd.seq_with(&tree, tree.root()).numbers(), &[1]);
//! ```

pub mod dewey;
pub mod error;
pub mod gallop;
pub mod jdewey;
pub mod maintain;
pub mod parser;
pub mod stats;
pub mod testutil;
pub mod tree;
pub mod writer;

pub use error::{ParseError, Result};
pub use parser::parse;
pub use tree::{Node, NodeId, XmlTree};
