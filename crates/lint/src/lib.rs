#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing
)]
//! # xtk-lint — in-tree static analysis for the xtk workspace
//!
//! The engine's answers must be bit-identical across executors, formats
//! and thread counts, which turns ordering and panic discipline into
//! *correctness invariants*.  The per-file rules (L1–L5) are rustc and
//! clippy lints, configured in the manifests, the `clippy.toml` files and
//! the crate roots (DESIGN.md §7).  This crate keeps the passes that need
//! a model of the whole workspace, with no external dependencies — it
//! carries its own small Rust lexer in the spirit of the in-tree XML
//! parser and the `testutil` PRNG:
//!
//! * [`lexer`] — a token-level Rust lexer (comments, strings, raw
//!   strings, lifetimes, numbers) that also harvests `lint:allow(...)`
//!   suppressions.
//! * [`parser`] / [`graph`] — functions, calls and lock types per file,
//!   resolved into one workspace call graph.
//! * [`reach`] (L6 panic reachability per query entry point), [`locks`]
//!   (L7 lock order), [`hotloop`] (L8 allocation in hot loops) and
//!   [`rules`] (L9 discarded `Result`s).
//! * [`baseline`] — the `lint-baseline.json` L6 ratchet format.
//! * [`report`] — `lint-report.json` and the `--explain` catalogue.
//! * [`walk`] — workspace discovery.
//!
//! Run as `cargo run -p xtk-lint` (done unconditionally by `ci.sh`);
//! tighten the ratchet with `cargo run -p xtk-lint -- --update-baseline`.
//! See DESIGN.md §7 and §12 for the rule catalogue.

pub mod baseline;
pub mod graph;
pub mod hotloop;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod reach;
pub mod report;
pub mod rules;
pub mod walk;
