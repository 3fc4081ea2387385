#![forbid(unsafe_code)]

//! Indexing substrate for `xtk` — everything between the XML tree and the
//! query algorithms of `xtk-core`.
//!
//! The paper (Chen & Papakonstantinou, ICDE 2010) evaluates four systems,
//! each with its own physical index; all four are built here from one pass
//! over the document:
//!
//! * **Join-based** (§III): per-keyword inverted lists of JDewey sequences
//!   sorted in JDewey order and stored **column per tree level**
//!   ([`columnar`]), compressed with per-block deltas or `(v, r, c)` RLE
//!   triples ([`codec`]), found through a per-column block directory (the
//!   paper's sparse index: one [`codec::BlockEntry`] per 4 KiB block).
//! * **Top-K join** (§IV): the same columns plus per-posting local scores
//!   ([`score`]) and the score-sorted, length-grouped segment lists of
//!   Fig. 7 ([`scored`]).
//! * **Stack-based / index-based baselines**: doc-order Dewey posting lists
//!   ([`postings`]), prefix-compressed for size accounting, and a B-tree
//!   emulation with per-entry `(keyword, Dewey)` keys ([`btree`]) matching
//!   the BerkeleyDB layout whose size Table I reports.
//! * **RDIL**: score-sorted postings + doc-order B-trees per keyword.
//!
//! [`builder::XmlIndex`] ties these together; [`disk`] owns the file format
//! (one writer, one directory parse), [`diskcol`] serves it block by block
//! to the disk and sharded engines; [`sizes`] produces the Table I byte
//! counts.

pub mod btree;
pub mod builder;
pub mod bytes;
pub mod cache;
pub mod codec;
pub mod columnar;
pub mod disk;
pub mod histogram;
pub mod diskcol;
pub mod postings;
pub mod score;
pub mod scored;
pub mod sizes;
pub mod text;

pub use builder::{IndexOptions, LocalScorer, TermData, TermId, XmlIndex};
pub use columnar::{Column, Run};
pub use score::Damping;
