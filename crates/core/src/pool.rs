//! Re-export of the scoped work-stealing pool from `xtk-xml`.
//!
//! The pool lives in `xtk-xml` (the bottom of the dependency stack) so
//! that `xtk-index` can use it for parallel index construction; the
//! query-engine crate runs batch workers and the shard scatter on it, so
//! the [`Parallelism`] knob and [`parallel_map`] are re-exported here
//! under the name the engine documentation uses.  A single query runs on
//! the calling thread.

pub use xtk_xml::pool::{parallel_map, Parallelism};
