//! Physical lowering: rewritten logical plan → executor configuration.
//!
//! [`lower`] collapses the rewritten IR into an [`ExecSpec`]: which top-K
//! execution runs ([`TopKExec`]), how the join accesses columns (footer
//! block skipping, whole-sequence prescan), and how the output is shaped
//! (scoring, truncation).
//! [`execute_memory_spec`] and [`execute_disk_spec`] are the lowered
//! drivers behind [`Engine::run`](crate::Engine::run) and the on-disk
//! [`Executor`](crate::Executor) — the procedural per-algorithm dispatch
//! they replace lives on only for the baselines (stack, index, RDIL)
//! that the plan does not cover.  [`explain`] renders the logical tree,
//! the rewrite log, the rewritten tree and the physical plan byte-stably
//! for the EXPLAIN snapshot gate.
//!
//! The lowering contract (DESIGN.md §14): for a fixed rule set the
//! lowered execution returns bit-identical results to the procedural
//! dispatch it replaced, and for any two rule sets the results are
//! bit-identical to each other — rules move work, never answers.

use crate::diskexec::{join_search_disk_spec, DiskJoinSpec};
use crate::hybrid::{hybrid_topk_obs, PlannedEngine};
use crate::joinbased::{join_search_obs, JoinOptions};
use crate::plan::bind;
use crate::plan::cost::{self, CostSummary, PlanStats};
use crate::plan::logical::{LevelRange, PlanNode, ScanMode, TopKStrategy};
use crate::plan::rewrite::{rewrite, AppliedRule};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::request::{obs_for, respond, ExecutedEngine, QueryRequest, QueryResponse, ScoreMode};
use crate::result::rank_top;
use crate::topk::{topk_search_obs, ThresholdKind, TopKOptions};
use std::fmt::Write as _;
use std::io;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_obs::Trace;

/// Which top-K execution the physical plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKExec {
    /// The §V-D cost-based choice between the star join and the complete
    /// sort, decided from the cardinality estimate at run time.
    Hybrid {
        /// Result budget.
        k: usize,
    },
    /// The §IV top-K star join, forced.
    Star {
        /// Result budget.
        k: usize,
    },
    /// Compute the complete set (sort and truncate per the spec).
    Complete {
        /// True when noop elimination proved a cost-based top-K complete
        /// (`k >=` candidate bound): the in-memory driver then emulates
        /// the hybrid planner's complete route — scored, operational
        /// exclusion — without paying for the cardinality estimate.
        elided: bool,
    },
}

/// The physical execution recipe a plan lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Top-K execution mode.
    pub topk: TopKExec,
    /// ELCA or SLCA.
    pub semantics: Semantics,
    /// ELCA exclusion variant.
    pub variant: ElcaVariant,
    /// Unseen-result bound for the star join.
    pub threshold: ThresholdKind,
    /// Whether the complete path scores and rank-sorts its results.
    pub scored: bool,
    /// `Some(k)` truncates the complete path's output.
    pub truncate: Option<usize>,
    /// Disk: decode every block of every level of every keyword up front
    /// (the §III-B whole-sequence strawman; true when any leaf is an
    /// unpruned materializing scan).
    pub prescan: bool,
    /// Disk: join steps pass over the blocks no probe falls in (true when
    /// the probe pushdown left probe leaves).
    pub block_skip: bool,
}

/// Leaf census used to derive the access-path flags.
#[derive(Default)]
struct Census {
    probes: usize,
    materialized: usize,
}

fn leaf_census(node: &PlanNode, c: &mut Census) {
    match node {
        PlanNode::Scan(leaf) if leaf.mode == ScanMode::Materialize => c.materialized += 1,
        PlanNode::Scan(_) => {}
        PlanNode::IndexProbe(_) => c.probes += 1,
        PlanNode::Join { inputs, .. } => {
            for i in inputs {
                leaf_census(i, c);
            }
        }
        PlanNode::Filter { input, .. }
        | PlanNode::TopK { input, .. }
        | PlanNode::Merge { input, .. } => leaf_census(input, c),
    }
}

/// Lowers a (rewritten) plan to its execution spec.  Nodes elided by the
/// rewrites fall back to the request's knobs, so a collapsed join or
/// top-K still lowers to the execution the request asked for.
pub fn lower(plan: &PlanNode, req: &QueryRequest) -> ExecSpec {
    let mut semantics = req.semantics;
    let mut variant = req.variant;
    let mut threshold = req.threshold;
    let mut scores = req.scores;
    let mut k = req.k;
    let mut strategy = match (req.algorithm, req.k) {
        (crate::request::QueryAlgorithm::Auto, Some(_)) => TopKStrategy::Auto,
        (crate::request::QueryAlgorithm::TopKJoin, Some(_)) => TopKStrategy::StarJoin,
        _ => TopKStrategy::SortComplete,
    };
    let mut bound = None;
    let mut node = plan;
    loop {
        match node {
            PlanNode::TopK {
                input,
                k: nk,
                strategy: ns,
                threshold: nt,
                scores: nsc,
                bound: nb,
            } => {
                k = *nk;
                strategy = *ns;
                threshold = *nt;
                scores = *nsc;
                bound = *nb;
                node = input;
            }
            PlanNode::Merge { input, .. } => node = input,
            PlanNode::Filter { input, semantics: s, variant: v } => {
                semantics = *s;
                variant = *v;
                node = input;
            }
            PlanNode::Join { .. } | PlanNode::Scan(_) | PlanNode::IndexProbe(_) => break,
        }
    }
    let mut census = Census::default();
    leaf_census(plan, &mut census);
    let scored = scores == ScoreMode::Ranked;
    let topk = match (strategy, k) {
        (TopKStrategy::Auto, Some(k)) => TopKExec::Hybrid { k },
        (TopKStrategy::StarJoin, Some(k)) => TopKExec::Star { k },
        (TopKStrategy::SortComplete, _)
        | (TopKStrategy::Auto | TopKStrategy::StarJoin, None) => {
            TopKExec::Complete { elided: bound.is_some() }
        }
    };
    ExecSpec {
        topk,
        semantics,
        variant,
        threshold,
        scored,
        truncate: k,
        prescan: census.materialized > 0,
        block_skip: census.probes > 0,
    }
}

/// Binds the logical plan for `query`, rewrites it under the request's
/// rule set and lowers it.
pub(crate) fn lower_query(ix: &XmlIndex, query: &Query, req: &QueryRequest) -> ExecSpec {
    let logical = bind::logical_plan(ix, query, req);
    let bound = bind::candidate_bound(ix, query);
    lower(&rewrite(logical, req.rules, Some(bound)).plan, req)
}

/// The lowered in-memory driver for the join-family algorithms (Auto,
/// JoinBased, TopKJoin), given the spec the planner served.  The
/// baselines keep their procedural dispatch in `request.rs`.
pub(crate) fn execute_memory_spec(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    spec: ExecSpec,
) -> QueryResponse {
    let obs = obs_for(req);
    match spec.topk {
        TopKExec::Hybrid { k } => {
            let (rs, planned) = hybrid_topk_obs(ix, query, k, spec.semantics, &obs);
            let engine = match planned {
                PlannedEngine::TopKJoin => ExecutedEngine::TopKJoin,
                PlannedEngine::CompleteJoin => ExecutedEngine::JoinBased,
            };
            respond(obs, rs, engine)
        }
        TopKExec::Star { k } => {
            let opts = TopKOptions { k, semantics: spec.semantics, threshold: spec.threshold };
            let (rs, _) = topk_search_obs(ix, query, &opts, &obs);
            respond(obs, rs, ExecutedEngine::TopKJoin)
        }
        TopKExec::Complete { elided } => {
            // An elided cost-based top-K reproduces the hybrid planner's
            // complete route bit for bit: scored, operational exclusion.
            let (with_scores, variant) =
                if elided { (true, ElcaVariant::Operational) } else { (spec.scored, spec.variant) };
            let opts = JoinOptions { semantics: spec.semantics, variant, with_scores };
            let (mut rs, _) = join_search_obs(ix, query, &opts, &obs);
            if with_scores {
                rank_top(&mut rs, spec.truncate);
            } else if let Some(k) = spec.truncate {
                rs.truncate(k);
            }
            respond(obs, rs, ExecutedEngine::JoinBased)
        }
    }
}

/// The [`DiskJoinSpec`] a lowered spec drives the disk executor with.
pub(crate) fn disk_join_spec(spec: &ExecSpec) -> DiskJoinSpec {
    DiskJoinSpec {
        join: JoinOptions {
            semantics: spec.semantics,
            variant: spec.variant,
            with_scores: spec.scored,
        },
        block_skip: spec.block_skip,
        prescan: spec.prescan,
    }
}

/// The lowered on-disk driver.  The disk executor implements the
/// join-based algorithm only, so a cost-based top-K lowers to the
/// complete join (sort + truncate) exactly as [`DiskEngine`] always has,
/// and a forced star join is rejected.
///
/// [`DiskEngine`]: crate::DiskEngine
pub(crate) fn execute_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    req: &QueryRequest,
    spec: ExecSpec,
) -> io::Result<QueryResponse> {
    if let TopKExec::Star { .. } = spec.topk {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the on-disk executor implements the join-based algorithm only",
        ));
    }
    let obs = obs_for(req);
    let dspec = disk_join_spec(&spec);
    let (mut rs, _, _) = join_search_disk_spec(ix, store, query, &dspec, &obs)?;
    if spec.scored {
        rank_top(&mut rs, spec.truncate);
    } else if let Some(k) = spec.truncate {
        rs.truncate(k);
    }
    Ok(respond(obs, rs, ExecutedEngine::JoinBased))
}

/// Which backend an EXPLAIN renders the physical plan for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainTarget {
    /// The in-memory engine.
    Memory,
    /// The single-store disk engine.
    Disk,
    /// The sharded scatter-gather engine.
    Sharded {
        /// Shard count.
        shards: usize,
        /// Whether the TA-style bound prunes dominated shards.
        ta_prune: bool,
    },
}

/// A full EXPLAIN: the plan before and after rewriting, the rewrite log,
/// and the physical plan it lowers to.  Every field renders byte-stably,
/// so the whole report can be snapshot-gated.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// The binder's unrewritten logical tree.
    pub logical: String,
    /// The rule applications, in firing order.
    pub applied: Vec<AppliedRule>,
    /// Per-node cost estimates of the rewritten plan.
    pub cost: CostSummary,
    /// The tree after all enabled rules.
    pub rewritten: String,
    /// The physical plan (ExecTopK/ExecMerge/ExecJoin/ExecScan/ExecProbe).
    pub physical: String,
    /// Where the executed plan came from (`Some("cold")` / `Some("cached")`)
    /// when a planner reported it; `None` for a planner-less EXPLAIN.
    pub provenance: Option<&'static str>,
}

impl std::fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== logical plan ==")?;
        f.write_str(&self.logical)?;
        writeln!(f, "== rewrites ==")?;
        if self.applied.is_empty() {
            writeln!(f, "(none)")?;
        }
        for a in &self.applied {
            writeln!(f, "{}: {}", a.rule, a.detail)?;
        }
        writeln!(f, "== rewritten plan ==")?;
        f.write_str(&self.rewritten)?;
        writeln!(f, "== cost estimates ==")?;
        for line in &self.cost.lines {
            writeln!(f, "{line}")?;
        }
        writeln!(f, "== physical plan ==")?;
        f.write_str(&self.physical)?;
        if let Some(src) = self.provenance {
            writeln!(f, "== plan cache ==")?;
            writeln!(f, "source: {src}")?;
        }
        Ok(())
    }
}

/// Builds the EXPLAIN report for a bound query against `target`,
/// costed against an in-memory statistics snapshot (so the report is a
/// pure function of the index and the request, never of I/O state).
pub fn explain(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    target: ExplainTarget,
) -> PlanExplain {
    let stats = PlanStats::from_index(ix);
    let mut logical = bind::logical_plan(ix, query, req);
    if let ExplainTarget::Sharded { shards, ta_prune } = target {
        logical = insert_merge(logical, shards, ta_prune);
    }
    let bound = bind::candidate_bound(ix, query);
    let logical_render = logical.render();
    let rw = rewrite(logical, req.rules, Some(bound));
    PlanExplain {
        logical: logical_render,
        applied: rw.applied,
        cost: cost::summarize(&stats, &rw.plan),
        rewritten: rw.plan.render(),
        physical: render_physical(&lower(&rw.plan, req), &rw.plan, target),
        provenance: None,
    }
}

/// Annotates a rendered physical plan with what actually happened: the
/// executed trace's decode, match and join-step counts attached to the
/// matching `Exec*` lines, followed by per-store I/O lines.  One tree is
/// rendered no matter how many shards executed — per-shard differences
/// show up only as the trailing `io:` delta lines (the trace gather
/// rewrites store ids to shard ids).
pub fn annotate_executed(ix: &XmlIndex, explain: &PlanExplain, trace: &Trace) -> String {
    use xtk_obs::EventKind;
    let mut decodes_by_store: Vec<(u32, u64)> = Vec::new();
    let mut total_decodes = 0u64;
    for e in trace.of_kind("store_io") {
        if let EventKind::StoreIo { store, decodes } = e.kind {
            total_decodes = total_decodes.saturating_add(decodes);
            match decodes_by_store.iter_mut().find(|(s, _)| *s == store) {
                Some((_, d)) => *d = d.saturating_add(decodes),
                None => decodes_by_store.push((store, decodes)),
            }
        }
    }
    decodes_by_store.sort_unstable();
    let mut matches = 0u64;
    for e in trace.of_kind("level_end") {
        if let EventKind::LevelEnd { matches: m, .. } = e.kind {
            matches = matches.saturating_add(m);
        }
    }
    let mut out = String::new();
    for line in explain.physical.lines() {
        out.push_str(line);
        if line.trim_start().starts_with("ExecJoin:") {
            let _ = write!(
                out,
                " [actual decodes={total_decodes} matches={matches}; est blocks={}]",
                explain.cost.est_blocks
            );
        } else if let Some(term) = leaf_term_name(line) {
            if let Some(id) = ix.term_id(term) {
                let mut steps = 0u64;
                let mut out_values = 0u64;
                for e in trace.of_kind("join_step") {
                    if let EventKind::JoinStep { term: t, output_values, .. } = e.kind {
                        if t == id.0 {
                            steps = steps.saturating_add(1);
                            out_values = out_values.saturating_add(output_values);
                        }
                    }
                }
                let mut driver_levels = 0u64;
                let mut driver_runs = 0u64;
                for e in trace.of_kind("level_start") {
                    if let EventKind::LevelStart { driver_term, driver_runs: r, .. } = e.kind {
                        if driver_term == id.0 {
                            driver_levels = driver_levels.saturating_add(1);
                            driver_runs = driver_runs.saturating_add(r);
                        }
                    }
                }
                if steps > 0 {
                    let _ = write!(out, " [actual steps={steps} out={out_values}]");
                } else if driver_levels > 0 {
                    let _ =
                        write!(out, " [actual driver levels={driver_levels} runs={driver_runs}]");
                }
            }
        }
        out.push('\n');
    }
    if decodes_by_store.len() <= 1 {
        let _ = writeln!(out, "io: decodes={total_decodes}");
    } else {
        for (store, d) in &decodes_by_store {
            let _ = writeln!(out, "io: shard={store} decodes={d}");
        }
    }
    out
}

/// The `term="…"` payload of an `ExecScan`/`ExecProbe` line, if any.
fn leaf_term_name(line: &str) -> Option<&str> {
    let t = line.trim_start();
    if !t.starts_with("ExecScan:") && !t.starts_with("ExecProbe:") {
        return None;
    }
    let rest = t.split("term=\"").nth(1)?;
    rest.split('"').next()
}

/// Wraps the scatter-gather merge between the top-K gather and the
/// per-shard pipeline, mirroring where the sharded engine merges.
fn insert_merge(plan: PlanNode, shards: usize, ta_prune: bool) -> PlanNode {
    match plan {
        PlanNode::TopK { input, k, strategy, threshold, scores, bound } => PlanNode::TopK {
            input: Box::new(PlanNode::Merge { input, shards, ta_prune }),
            k,
            strategy,
            threshold,
            scores,
            bound,
        },
        other => PlanNode::Merge { input: Box::new(other), shards, ta_prune },
    }
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// Renders the physical plan, byte-stable (no floats, no hash order —
/// the same request renders identically on any machine).
pub fn render_physical(spec: &ExecSpec, rewritten: &PlanNode, target: ExplainTarget) -> String {
    let mut out = String::new();
    let target_name = match target {
        ExplainTarget::Memory => "memory",
        ExplainTarget::Disk => "disk",
        ExplainTarget::Sharded { .. } => "sharded",
    };
    let thr = match spec.threshold {
        ThresholdKind::Tight => "tight",
        ThresholdKind::Classic => "classic",
    };
    let mode = match spec.topk {
        TopKExec::Star { k } => format!("star-join k={k} threshold={thr}"),
        TopKExec::Hybrid { k } => match target {
            ExplainTarget::Memory => format!("hybrid k={k}"),
            // The disk and sharded executors have no star join: the
            // cost-based choice degenerates to the complete sort.
            _ => format!("sort-complete k={k}"),
        },
        TopKExec::Complete { elided } => {
            let memory = matches!(target, ExplainTarget::Memory);
            let mut s = String::from(if spec.scored || (elided && memory) {
                "sort-complete"
            } else {
                "complete"
            });
            if let Some(k) = spec.truncate {
                let _ = write!(s, " k={k}");
            }
            if elided && memory {
                s.push_str(" (hybrid elided)");
            }
            s
        }
    };
    let _ = writeln!(out, "ExecTopK: target={target_name} mode={mode}");
    let mut depth = 1usize;
    if let ExplainTarget::Sharded { shards, ta_prune } = target {
        let _ = writeln!(out, "  ExecMerge: shards={shards} ta-prune={}", onoff(ta_prune));
        depth = 2;
    }
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = writeln!(
        out,
        "ExecJoin: semantics={} variant={} scored={} block-skip={} prescan={}",
        match spec.semantics {
            Semantics::Elca => "elca",
            Semantics::Slca => "slca",
        },
        match spec.variant {
            ElcaVariant::Operational => "operational",
            ElcaVariant::Formal => "formal",
        },
        if spec.scored { "yes" } else { "no" },
        onoff(spec.block_skip),
        onoff(spec.prescan),
    );
    render_leaves(rewritten, &mut out, depth + 1);
    out
}

fn render_leaves(node: &PlanNode, out: &mut String, depth: usize) {
    match node {
        PlanNode::Scan(leaf) => {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let mode = match leaf.mode {
                ScanMode::Materialize => "materialize",
                ScanMode::Stream => "stream",
            };
            let _ = writeln!(
                out,
                "ExecScan: term=\"{}\" levels={} mode={mode}",
                leaf.name,
                LevelRange(leaf.levels)
            );
        }
        PlanNode::IndexProbe(leaf) => {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = writeln!(
                out,
                "ExecProbe: term=\"{}\" levels={} skip=footers",
                leaf.name,
                LevelRange(leaf.levels)
            );
        }
        PlanNode::Join { inputs, .. } => {
            for i in inputs {
                render_leaves(i, out, depth);
            }
        }
        PlanNode::Filter { input, .. }
        | PlanNode::TopK { input, .. }
        | PlanNode::Merge { input, .. } => render_leaves(input, out, depth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::rewrite::RuleSet;
    use xtk_xml::parse as parse_xml;

    fn ix() -> XmlIndex {
        XmlIndex::build(
            parse_xml(
                "<bib><conf><paper><title>xml keyword search</title></paper>\
                 <paper><title>top k search</title></paper></conf></bib>",
            )
            .unwrap(),
        )
    }

    fn bound(ix: &XmlIndex, text: &str) -> (Query, QueryRequest) {
        bind::compile(ix, text, &QueryRequest::default()).unwrap()
    }

    #[test]
    fn default_rules_lower_to_the_probing_pipeline() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search k=2");
        let spec = lower_query(&ix, &q, &req);
        assert_eq!(spec.topk, TopKExec::Hybrid { k: 2 });
        assert!(spec.block_skip, "pushdown fired");
        assert!(!spec.prescan, "no whole-sequence reads");
    }

    #[test]
    fn no_rules_lower_to_the_strawman_pipeline() {
        let ix = ix();
        let (q, mut req) = bound(&ix, "xml search k=2");
        req.rules = RuleSet::none();
        let spec = lower_query(&ix, &q, &req);
        assert!(!spec.block_skip);
        assert!(spec.prescan, "materializing scans survive");
        assert!(explain(&ix, &q, &req, ExplainTarget::Memory).applied.is_empty());
    }

    #[test]
    fn elision_emulates_the_hybrid_complete_route() {
        let ix = ix();
        // k far above anything the corpus can produce: elim must fire.
        let (q, req) = bound(&ix, "xml search k=1000");
        let spec = lower_query(&ix, &q, &req);
        assert_eq!(spec.topk, TopKExec::Complete { elided: true });
        let on = execute_memory_spec(&ix, &q, &req, spec);
        let mut off_req = req;
        off_req.rules = RuleSet::none();
        let off_spec = lower_query(&ix, &q, &off_req);
        let off = execute_memory_spec(&ix, &q, &off_req, off_spec);
        assert_eq!(on.engine, off.engine);
        assert_eq!(on.results.len(), off.results.len());
        for (a, b) in on.results.iter().zip(&off.results) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn explain_is_byte_stable_and_sectioned() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search k=2");
        let a = explain(&ix, &q, &req, ExplainTarget::Memory).to_string();
        let b = explain(&ix, &q, &req, ExplainTarget::Memory).to_string();
        assert_eq!(a, b);
        for section in [
            "== logical plan ==",
            "== rewrites ==",
            "== rewritten plan ==",
            "== cost estimates ==",
            "== physical plan ==",
        ] {
            assert!(a.contains(section), "{a}");
        }
        assert!(a.contains("ExecProbe:"), "{a}");
        assert!(a.contains("join: est blocks="), "{a}");
        let sharded =
            explain(&ix, &q, &req, ExplainTarget::Sharded { shards: 3, ta_prune: true })
                .to_string();
        assert!(sharded.contains("ExecMerge: shards=3 ta-prune=on"), "{sharded}");
        assert!(sharded.contains("LogicalMerge: shards=3"), "{sharded}");
    }

    #[test]
    fn executed_annotations_attach_actuals_to_one_tree() {
        let ix = ix();
        let (q, req) = bound(&ix, "xml search");
        let req = req.with_trace(xtk_obs::TraceLevel::Events);
        let spec = lower_query(&ix, &q, &req);
        let resp = execute_memory_spec(&ix, &q, &req, spec);
        let trace = resp.trace.expect("trace requested");
        let ex = explain(&ix, &q, &req, ExplainTarget::Memory);
        let annotated = annotate_executed(&ix, &ex, &trace);
        assert_eq!(
            annotated.matches("ExecJoin:").count(),
            1,
            "one tree regardless of backend: {annotated}"
        );
        assert!(annotated.contains("[actual decodes="), "{annotated}");
        assert!(annotated.contains("io: decodes="), "{annotated}");
        let again = annotate_executed(&ix, &ex, &trace);
        assert_eq!(annotated, again, "annotations are byte-stable");
    }
}
