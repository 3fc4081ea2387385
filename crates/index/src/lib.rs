#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::let_underscore_must_use,
    clippy::iter_over_hash_type,
    clippy::disallowed_methods,
    clippy::disallowed_types
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

//! Indexing substrate for `xtk` — everything between the XML tree and the
//! query algorithms of `xtk-core`.
//!
//! The paper (Chen & Papakonstantinou, ICDE 2010) evaluates four systems,
//! each with its own physical index.  The two join-based ones are built
//! here from one pass over the document and served:
//!
//! * **Join-based** (§III): per-keyword inverted lists of JDewey sequences
//!   sorted in JDewey order and stored **column per tree level**
//!   ([`columnar`]), compressed with per-block deltas or `(v, r, c)` RLE
//!   triples ([`codec`]), found through a per-column block directory (the
//!   paper's sparse index: one [`codec::BlockEntry`] per 4 KiB block).
//! * **Top-K join** (§IV): the same columns plus per-posting local scores
//!   ([`score`]) and the score-sorted, length-grouped segment lists of
//!   Fig. 7 ([`scored`]).
//!
//! The baselines' indexes — doc-order Dewey lists for the stack-based and
//! index-based systems, score-sorted lists for RDIL, and the `(keyword,
//! Dewey)` B-trees whose BerkeleyDB layout [`btree`] emulates — are only
//! *priced* here, by [`sizes`] for Table I, which derives the Dewey ids it
//! needs on demand.  The baselines themselves run from doc-order node-id
//! postings (`xtk-core`'s stack baseline, `xtk-baselines`).
//!
//! [`builder::XmlIndex`] ties these together, every term's structures in
//! one flat arena ([`terms`]) read through [`TermData`] views; [`disk`]
//! owns the file format (one writer, one directory parse), [`diskcol`]
//! serves it block by block to the disk and sharded engines.

pub mod btree;
pub mod builder;
pub mod bytes;
pub mod cache;
pub mod codec;
pub mod columnar;
pub mod disk;
pub mod histogram;
pub mod diskcol;
pub mod score;
pub mod scored;
pub mod sizes;
pub mod terms;
pub mod text;

pub use builder::{IndexOptions, LocalScorer, TermId, XmlIndex};
pub use terms::TermData;
pub use columnar::{Column, Run};
pub use score::Damping;
