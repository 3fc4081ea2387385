//! The stack-based baseline the paper compares against (§II-C, §V):
//!
//! * [`stack`] — the stack-based Dewey Inverted List algorithm of XRank:
//!   merge all lists in document order, maintain the current path on a
//!   stack, decide ELCA/SLCA status on pop.
//!
//! It stays in this crate as a reference implementation the engine serves
//! (`QueryAlgorithm::StackBased`).  The index-based algorithms and RDIL,
//! which only the evaluation runs, are `xtk_baselines::baseline`.

pub mod stack;
