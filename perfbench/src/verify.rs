//! Output checking: result-stream fingerprints and the reference answers
//! they are compared with.
//!
//! The reference never comes from the code path under test:
//!
//! * complete-set answers of the in-memory join are checked against the
//!   stack-based baseline's node set (same ELCA variant);
//! * top-K answers must be a prefix of that ranked complete set — up to
//!   the order of equal-score results, which the star join may emit
//!   differently;
//! * the disk and sharded engines must repeat the in-memory engine's
//!   stream bit for bit (node, level, score bits, order).

use xtk_core::result::sort_ranked;
use xtk_core::{Engine, QueryAlgorithm, QueryRequest, ScoredResult};

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What a response looked like: enough to tell whether two result
/// streams are the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: usize,
    /// Node, level, score bits, in order.
    pub exact: u64,
}

pub fn fingerprint(results: &[ScoredResult]) -> Fingerprint {
    let mut h = Fnv::new();
    for r in results {
        h.word(u64::from(r.node.0));
        h.word(u64::from(r.level));
        h.word(u64::from(r.score.to_bits()));
    }
    Fingerprint {
        len: results.len(),
        exact: h.finish(),
    }
}

/// How the engine under test relates to the reference engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The in-memory engine itself: ties may be ordered differently.
    Memory,
    /// `DiskEngine`: bit-identical to the in-memory complete join.
    Disk,
    /// `ShardedEngine`: bit-identical after dropping level-1 results,
    /// which a partition of the root's children cannot produce.
    Sharded,
}

/// The ranked complete set of `(query, req)` from the in-memory join.
/// With `cross_check`, its node set is first compared with the
/// stack-based baseline's.
fn reference_complete(
    engine: &Engine,
    text: &str,
    cross_check: bool,
) -> Result<(Vec<ScoredResult>, QueryRequest), String> {
    let (query, req) = xtk_core::plan::compile(engine.index(), text, &QueryRequest::default())
        .map_err(|e| format!("reference compile: {e}"))?;
    let complete = QueryRequest::complete(req.semantics)
        .with_variant(req.variant)
        .with_algorithm(QueryAlgorithm::JoinBased);
    let mut ranked = engine.run(&query, &complete).results;
    sort_ranked(&mut ranked);
    if !cross_check {
        return Ok((ranked, req));
    }
    let stack = engine
        .run(&query, &complete.with_algorithm(QueryAlgorithm::StackBased))
        .results;
    let mut a: Vec<u32> = ranked.iter().map(|r| r.node.0).collect();
    let mut b: Vec<u32> = stack.iter().map(|r| r.node.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(format!(
            "join-based and stack-based node sets differ ({} vs {} nodes)",
            a.len(),
            b.len()
        ));
    }
    Ok((ranked, req))
}

/// Equal up to the rounding of a differently ordered `f32` sum.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// Checks the results the engine under test returned for `text`.
pub fn check(engine: &Engine, mode: Mode, text: &str, got: &[ScoredResult]) -> Result<(), String> {
    // The in-memory workloads vouch for the in-memory join (against the
    // stack-based baseline); the storage workloads only have to repeat it.
    let (mut reference, req) = reference_complete(engine, text, mode == Mode::Memory)?;
    if mode == Mode::Sharded {
        reference.retain(|r| r.level > 1);
    }
    if let Some(k) = req.k {
        // A prefix up to ties: the same scores in the same positions, and
        // every returned result a member of the complete set.
        if got.len() != reference.len().min(k) {
            return Err(format!(
                "{} results, expected {}",
                got.len(),
                reference.len().min(k)
            ));
        }
        if mode == Mode::Memory {
            // The star join adds a result's per-keyword scores in another
            // order than the complete join, so its sums may differ in the
            // last place and near-ties may swap: compare scores by rank
            // with a tolerance, and membership by node.
            let mut nodes: Vec<u32> = got.iter().map(|r| r.node.0).collect();
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.len() != got.len() {
                return Err("a result was returned twice".into());
            }
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                if !close(g.score, r.score) {
                    return Err(format!(
                        "rank {i}: score {} != reference {}",
                        g.score, r.score
                    ));
                }
                let member = reference
                    .iter()
                    .any(|m| m.node == g.node && m.level == g.level && close(m.score, g.score));
                if !member {
                    return Err(format!("node {} is not in the complete set", g.node.0));
                }
            }
            return Ok(());
        }
        reference.truncate(k);
    }
    if fingerprint(got) != fingerprint(&reference) {
        return Err("result stream differs from the in-memory reference".into());
    }
    Ok(())
}
