//! Algorithm 1's top-K stop: the level bound dominates every score it can
//! meet, bit for bit, and a request cut at `k` answers exactly what the
//! complete join cut at `k` answers — on the memory, disk and sharded
//! executors — while stopping at the level an independent reading of the
//! rule predicts.

mod common;

use common::store_image;
use std::cell::Cell;
use std::sync::Arc;
use xtk_core::batch::canonicalize;
use xtk_core::joinbased::{join_search, level_bound, JoinOptions, KeywordRows};
use xtk_core::request::ScoreMode;
use xtk_core::result::rank_top;
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{
    DiskEngine, ElcaVariant, Engine, Executor, Query, QueryAlgorithm, QueryRequest, ScoredResult,
    Semantics,
};
use xtk_index::cache::ShardedLruCache;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::scored::SegmentHead;
use xtk_index::{Damping, IndexOptions, LocalScorer, XmlIndex};
use xtk_obs::{EventKind, TraceLevel};
use xtk_xml::testutil::{prop_check, Gen, TempPath};
use xtk_xml::XmlTree;

const SEMANTICS: [(Semantics, ElcaVariant); 3] = [
    (Semantics::Elca, ElcaVariant::Operational),
    (Semantics::Elca, ElcaVariant::Formal),
    (Semantics::Slca, ElcaVariant::Operational),
];

/// A random tree built in pre-order: each node hangs below a node of the
/// current path, kept whole with probability `chain` (so `chain` near 1
/// gives the deep chains whose depth deltas pass the damping table).
/// `k` keywords land on random nodes, some twice (a larger tf).
fn corpus(g: &mut Gen, nodes: usize, chain: f64, k: usize, opts: IndexOptions) -> XmlIndex {
    let mut tree = XmlTree::new();
    let root = tree.add_root("r");
    let (mut path, mut all) = (vec![root], vec![root]);
    for _ in 1..nodes {
        if !g.gen_bool(chain) {
            let keep = g.gen_range(1..path.len() + 1);
            path.truncate(keep);
        }
        let parent = *path.last().unwrap();
        let id = tree.add_child(parent, "n");
        path.push(id);
        all.push(id);
    }
    for kw in 0..k {
        tree.append_text(*g.rng().choose(&all).unwrap(), &format!("kw{kw}"));
        for &node in &all {
            if g.gen_bool(0.25) {
                let word = format!("kw{kw}");
                let text = if g.gen_bool(0.3) { format!("{word} {word}") } else { word };
                tree.append_text(node, &text);
            }
        }
    }
    XmlIndex::build_with(tree, opts)
}

/// Index options with damping `lambda` and a random scorer (`Uniform`
/// scores every occurrence 1.0, so results tie the bound exactly).
fn options(g: &mut Gen, lambda: f32) -> IndexOptions {
    let scorer = match g.gen_range(0..3u32) {
        0 => LocalScorer::Uniform,
        1 => LocalScorer::TfIdf,
        _ => LocalScorer::TfIdfQuality,
    };
    IndexOptions { damping: Damping::new(lambda), scorer, ..Default::default() }
}

fn query(ix: &XmlIndex, k: usize) -> Query {
    let words: Vec<String> = (0..k).map(|i| format!("kw{i}")).collect();
    Query::from_words(ix, &words).unwrap()
}

/// Random heads with depths up to 200 and levels near the root, so most
/// deltas are ≥ 64; every occurrence a result can score at `level` is
/// at most its segment's maximum, damped by the same factor, and the
/// bound must dominate the sum of any such choice.
#[test]
fn level_bound_dominates_any_choice_of_occurrences() {
    prop_check(0x570_9001, 300, |g| {
        let lambda = if g.gen_bool(0.5) { 1.0 } else { g.rng().gen_f64() as f32 * 0.99 + 0.01 };
        let damping = Damping::new(lambda);
        let keywords = g.gen_range(1..5usize);
        let heads: Vec<Vec<SegmentHead>> = (0..keywords)
            .map(|_| {
                let mut lens: Vec<u16> =
                    (0..g.gen_range(1..8usize)).map(|_| g.gen_range(1..200u16)).collect();
                lens.sort_unstable();
                lens.dedup();
                lens.into_iter()
                    .map(|len| {
                        let max_score = g.rng().gen_f64() as f32 + f32::EPSILON;
                        SegmentHead { len, max_score, end: 0 }
                    })
                    .collect()
            })
            .collect();
        let terms: Vec<KeywordRows> = heads
            .iter()
            .map(|h| KeywordRows { levels: h.last().unwrap().len, heads: h, ..Default::default() })
            .collect();
        let level = g.gen_range(1..200u16);
        let bound = level_bound(&terms, &damping, level);
        for _ in 0..20 {
            let mut total = 0.0f32;
            for h in &heads {
                let reach: Vec<&SegmentHead> = h.iter().filter(|s| s.len >= level).collect();
                let Some(seg) = g.rng().choose(&reach) else { continue };
                let local = match g.gen_bool(0.5) {
                    true => seg.max_score,
                    false => seg.max_score * g.rng().gen_f64() as f32,
                };
                total += damping.damp(local, seg.len, level);
            }
            assert!(total.total_cmp(&bound).is_le(), "{total} > {bound} at {level}");
        }
    });
}

/// On deep (delta ≥ 64) and mixed-depth corpora at λ = 1 and λ < 1, no
/// ELCA/SLCA result scores above the bound of its level, and with
/// uniform scores some result meets it exactly.
#[test]
fn level_bound_dominates_every_result_at_its_level() {
    let ties = Cell::new(0u32);
    prop_check(0x570_9002, 120, |g| {
        let lambda = if g.gen_bool(0.5) { 1.0 } else { 0.9 };
        let opts = options(g, lambda);
        let deep = g.gen_bool(0.5);
        let nodes = if deep { g.gen_range(70..160usize) } else { g.gen_range(2..80usize) };
        let chain = if deep { 0.97 } else { 0.5 };
        let k = g.gen_range(2..4usize);
        let ix = corpus(g, nodes, chain, k, opts);
        let q = query(&ix, k);
        let terms: Vec<KeywordRows> =
            q.terms.iter().map(|&t| KeywordRows::of(ix.term(t))).collect();
        for (semantics, variant) in SEMANTICS {
            let opts = JoinOptions { semantics, variant, with_scores: true, limit: None };
            for r in join_search(&ix, &q, &opts).0 {
                let bound = level_bound(&terms, ix.damping(), r.level);
                let ord = r.score.total_cmp(&bound);
                let what = format!("{semantics:?} {variant:?} at {}", r.level);
                assert!(ord.is_le(), "{what}: {} > {bound}", r.score);
                ties.set(ties.get() + u32::from(ord.is_eq()));
            }
        }
    });
    assert!(ties.get() > 0, "no result met the bound exactly");
}

/// The rule, read independently of the driver: per keyword the largest
/// damped score over its *rows* of depth ≥ `level` (not the segment
/// heads), summed in query order.
fn row_bound(ix: &XmlIndex, q: &Query, level: u16) -> f32 {
    let mut total = 0.0f32;
    for &t in &q.terms {
        let term = ix.term(t);
        let mut best = 0.0f32;
        for (&node, &local) in term.postings().iter().zip(term.scores()) {
            let depth = ix.tree().depth(node);
            if depth >= level {
                best = best.max(ix.damping().damp(local, depth, level));
            }
        }
        total += best;
    }
    total
}

/// Where the stop must fire for a cut at `k` over `complete` (emission
/// order, levels `floor..=l0`): before the first level `l` with `k`
/// results above it and, ranked, a `k`-th best score at least every
/// level bound in `floor..=l`.
fn expected_stop(
    ix: &XmlIndex,
    q: &Query,
    complete: &[ScoredResult],
    floor: u16,
    k: usize,
    ranked: bool,
) -> Option<u16> {
    let l0 = q.terms.iter().map(|&t| ix.term(t).max_len()).min().unwrap();
    for l in (floor..=l0).rev() {
        let mut held: Vec<f32> = complete.iter().filter(|r| r.level > l).map(|r| r.score).collect();
        if held.len() < k {
            continue;
        }
        if !ranked || k == 0 {
            return Some(l);
        }
        held.sort_by(|a, b| b.total_cmp(a));
        let bound = (floor..=l).map(|at| row_bound(ix, q, at)).fold(0.0f32, f32::max);
        if held[k - 1].total_cmp(&bound).is_ge() {
            return Some(l);
        }
    }
    None
}

fn bits(rs: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    rs.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// Every cut request on every executor: the complete join's answer cut
/// at `k`, bit for bit, stopping exactly where [`expected_stop`] says —
/// never when `k` exceeds the result count — and stopping somewhere on
/// each executor.  A request means what its canonical form says (`Auto`
/// ranks with the operational variant, as the hybrid planner does).
#[test]
fn a_stopped_join_answers_as_the_complete_join_cut_at_k() {
    // Stops seen per executor, in the order of `executors` below.
    let fired: [Cell<u32>; 5] = Default::default();
    prop_check(0x570_9003, 40, |g| {
        let lambda = if g.gen_bool(0.5) { 1.0 } else { 0.9 };
        let opts = options(g, lambda);
        let (nodes, chain) = match g.gen_bool(0.5) {
            true => (g.gen_range(2..120usize), 0.5),
            false => (g.gen_range(10..90usize), 0.85),
        };
        let k = g.gen_range(2..4usize);
        let engine = Engine::from_index(corpus(g, nodes, chain, k, opts));
        let ix = engine.index();
        let q = query(ix, k);
        let cache = Arc::new(ShardedLruCache::unbounded());
        let store = DiskColumnStore::open_bytes(store_image(ix), cache).unwrap();
        let disk = DiskEngine::new(ix, &store);
        let dir = TempPath::new("xtk_topk_stop");
        write_sharded(ix, &dir, 2).unwrap();
        let sharded = ShardedEngine::open(ix, &dir).unwrap();
        let executors: [(&dyn Executor, QueryAlgorithm, u16); 5] = [
            (&engine, QueryAlgorithm::JoinBased, 1),
            (&disk, QueryAlgorithm::JoinBased, 1),
            (&disk, QueryAlgorithm::Auto, 1),
            (&sharded, QueryAlgorithm::JoinBased, 2),
            (&sharded, QueryAlgorithm::Auto, 2),
        ];
        for (semantics, variant) in SEMANTICS {
            for ranked in [true, false] {
                for (at, &(executor, algorithm, floor)) in executors.iter().enumerate() {
                    if floor == 2 && !ranked {
                        continue; // the sharded engine ranks every answer
                    }
                    let mut req = QueryRequest::top_k(0, semantics)
                        .with_variant(variant)
                        .with_algorithm(algorithm)
                        .with_trace(TraceLevel::Events);
                    if !ranked {
                        req = req.unranked();
                    }
                    let canon = canonicalize(&req);
                    let ranked = canon.scores == ScoreMode::Ranked;
                    let opts = JoinOptions {
                        semantics,
                        variant: canon.variant,
                        with_scores: ranked,
                        limit: None,
                    };
                    let mut complete = join_search(ix, &q, &opts).0;
                    complete.retain(|r| r.level >= floor);
                    let n = complete.len();
                    for cut in [0, 1, 5, 50, n + 1] {
                        req.k = Some(cut);
                        let what = format!("{req:?} floor {floor} of {n}");
                        let resp = executor.execute(&q, &req).unwrap();
                        let mut want = complete.clone();
                        if ranked {
                            rank_top(&mut want, Some(cut));
                        } else {
                            want.truncate(cut);
                        }
                        assert_eq!(bits(&resp.results), bits(&want), "{what}");
                        let stops: Vec<u16> = resp
                            .trace
                            .unwrap()
                            .of_kind("join_stop")
                            .iter()
                            .filter_map(|e| match e.kind {
                                EventKind::JoinStop { level, .. } => Some(level as u16),
                                _ => None,
                            })
                            .collect();
                        let want_stop = expected_stop(ix, &q, &complete, floor, cut, ranked);
                        assert_eq!(stops, Vec::from_iter(want_stop), "{what}");
                        if cut > n {
                            assert!(stops.is_empty(), "{what}: stopped with k above the count");
                        }
                        if cut > 0 && cut <= n {
                            fired[at].set(fired[at].get() + stops.len() as u32);
                        }
                    }
                }
            }
        }
    });
    for (at, count) in fired.iter().enumerate() {
        assert!(count.get() > 0, "executor {at} never stopped on a k ≥ 1 cut");
    }
}
