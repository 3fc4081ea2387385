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

//! # xtk — Top-K Keyword Search in XML Databases
//!
//! A from-scratch Rust implementation of *"Supporting Top-K Keyword Search
//! in XML Databases"* (Liang Jeff Chen and Yannis Papakonstantinou,
//! ICDE 2010): join-based ELCA/SLCA evaluation over column-oriented JDewey
//! inverted lists and a top-K star join with a tightened unseen-result
//! threshold.  The baselines the paper compares against are the
//! stack-based one in `xtk-core` and the index-based and RDIL ones in the
//! `xtk-baselines` crate, which the serving engine does not run.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`xml`] — XML parser, arena tree, Dewey and JDewey encodings.
//! * [`index`] — tokenizer, scoring, columnar inverted lists, compression,
//!   sparse indices, B-tree emulation, persistence.
//! * [`core`] — the query engines (join-based, top-K, stack baseline).
//! * [`datagen`] — DBLP-like / XMark-like corpus and workload generators.
//!
//! See the `examples/` directory for end-to-end usage and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction notes.

pub use xtk_core as core;
pub use xtk_datagen as datagen;
pub use xtk_index as index;
pub use xtk_xml as xml;
