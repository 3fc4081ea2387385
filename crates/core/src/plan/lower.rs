//! Physical lowering: rewritten logical plan → executor configuration.
//!
//! [`lower`] collapses the rewritten IR into an [`ExecSpec`]: which top-K
//! execution runs ([`TopKExec`]), which semantics the join applies, and
//! how the output is shaped (scoring, truncation).  How the join reads
//! columns is not a choice: its driver reads whole and every join step
//! skips the blocks no probe falls in.
//! [`execute_memory_spec`] and [`execute_disk_spec`] are the lowered
//! drivers behind [`Engine::run`](crate::Engine::run) and the on-disk
//! [`Executor`](crate::Executor) — the procedural per-algorithm dispatch
//! they replace lives on only for the stack baseline, which the plan
//! does not cover.  [`explain`] renders the logical tree,
//! the rewrite log, the rewritten tree and the physical plan byte-stably
//! for the EXPLAIN snapshot gate.
//!
//! The lowering contract (DESIGN.md §14): the lowered execution returns
//! bit-identical results to the procedural dispatch it replaced — rules
//! move work, never answers.

use crate::batch::canonicalize;
use crate::diskexec::DiskSource;
use crate::hybrid::{hybrid_topk_obs, PlannedEngine};
use crate::joinbased::{algorithm1, join_search_obs, JoinOptions};
use crate::plan::bind;
use crate::plan::cost::{self, CostSummary, PlanStats};
use crate::plan::logical::{LevelRange, PlanNode, ScanMode, TopKStrategy};
use crate::plan::rewrite::{rewrite, AppliedRule};
use crate::query::{ElcaVariant, Query, Semantics};
use crate::request::{
    obs_for, respond, ExecutedEngine, QueryAlgorithm, QueryRequest, QueryResponse, ScoreMode,
};
use crate::result::rank_top;
use crate::topk::{topk_search_obs, ThresholdKind, TopKOptions};
use std::fmt::{self, Write as _};
use std::io;
use xtk_index::diskcol::{DiskColumnStore, IoSession};
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
            PlanNode::Filter { input, semantics: s, variant: v } => {
                semantics = *s;
                variant = *v;
                node = input;
            }
            PlanNode::Join { .. } | PlanNode::Scan(_) | PlanNode::IndexProbe(_) => break,
        }
    }
    let scored = scores == ScoreMode::Ranked;
    let topk = match (strategy, k) {
        (TopKStrategy::Auto, Some(k)) => TopKExec::Hybrid { k },
        (TopKStrategy::StarJoin, Some(k)) => TopKExec::Star { k },
        (TopKStrategy::SortComplete, _)
        | (TopKStrategy::Auto | TopKStrategy::StarJoin, None) => {
            TopKExec::Complete { elided: bound.is_some() }
        }
    };
    ExecSpec { topk, semantics, variant, threshold, scored, truncate: k }
}

/// Binds the logical plan for `query`, rewrites it and lowers it.
pub(crate) fn lower_query(ix: &XmlIndex, query: &Query, req: &QueryRequest) -> ExecSpec {
    let logical = bind::logical_plan(ix, query, req);
    let bound = bind::candidate_bound(ix, query);
    lower(&rewrite(logical, Some(bound)).plan, req)
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
            let limit = spec.truncate;
            let opts = JoinOptions { semantics: spec.semantics, variant, with_scores, limit };
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

/// Why `target`'s executor refuses `req`, if it does: the disk and
/// sharded executors implement the join-based algorithm alone (no star
/// join, no stack baseline), and the sharded one ranks every answer.
/// The executors return it as `Unsupported` before planning and
/// [`explain`] renders it in place of a physical plan, so EXPLAIN never
/// shows a plan its target would not run.
pub fn refusal(req: &QueryRequest, target: ExplainTarget) -> Option<&'static str> {
    let join_only = !matches!(req.algorithm, QueryAlgorithm::Auto | QueryAlgorithm::JoinBased);
    match target {
        ExplainTarget::Memory => None,
        ExplainTarget::Disk => {
            join_only.then_some("the on-disk executor implements the join-based algorithm only")
        }
        ExplainTarget::Sharded if join_only => {
            Some("the sharded executor implements the join-based algorithm only")
        }
        ExplainTarget::Sharded => (req.scores == ScoreMode::Unranked)
            .then_some("the sharded executor ranks by score and cannot serve unranked requests"),
    }
}

/// [`refusal`] as the executors return it.
pub(crate) fn refuse(req: &QueryRequest, target: ExplainTarget) -> io::Result<()> {
    match refusal(req, target) {
        Some(why) => Err(io::Error::new(io::ErrorKind::Unsupported, why)),
        None => Ok(()),
    }
}

/// The lowered on-disk driver, for the requests [`refusal`] lets through.
/// The disk executor implements the join-based algorithm only, so a
/// cost-based top-K lowers to the complete join cut at `k`, which stops
/// climbing once the `k` kept are settled ([`algorithm1`]).  The level
/// loop ends at `floor`: 1 for [`DiskEngine`], 2 for [`ShardedEngine`],
/// which leaves out the corpus root.
///
/// [`DiskEngine`]: crate::DiskEngine
/// [`ShardedEngine`]: crate::ShardedEngine
pub(crate) fn execute_disk_spec(
    ix: &XmlIndex,
    store: &DiskColumnStore,
    query: &Query,
    req: &QueryRequest,
    spec: ExecSpec,
    floor: u16,
) -> io::Result<QueryResponse> {
    let obs = obs_for(req);
    let opts = JoinOptions {
        semantics: spec.semantics,
        variant: spec.variant,
        with_scores: spec.scored,
        limit: spec.truncate,
    };
    let session = IoSession::default();
    let mut src = DiskSource::new(ix, store, query, floor, &session);
    let (mut rs, _) = algorithm1(ix, query, &opts, &mut src, &obs)?;
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
    /// The sharded engine: the disk plan read from level 2 down.
    Sharded,
}

impl ExplainTarget {
    /// The shallowest level the target's join reads: the sharded engine
    /// leaves out the corpus root.
    pub const fn floor(self) -> u16 {
        match self {
            ExplainTarget::Sharded => 2,
            ExplainTarget::Memory | ExplainTarget::Disk => 1,
        }
    }

    /// The target as EXPLAIN names it.
    fn name(self) -> &'static str {
        match self {
            ExplainTarget::Memory => "memory",
            ExplainTarget::Disk => "disk",
            ExplainTarget::Sharded => "sharded",
        }
    }
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
    /// The tree after the three rules.
    pub rewritten: String,
    /// The physical plan (ExecTopK/ExecJoin/ExecScan/ExecProbe).
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
/// pure function of the index and the request, never of I/O state).  The
/// logical and rewritten plans show the request as written; the physical
/// plan is what the target executes, lowered from the canonical request
/// ([`canonicalize`]) as the planner lowers it.  A request the target
/// refuses ([`refusal`]) shows an `ExecRefused` line as its physical plan.
pub fn explain(
    ix: &XmlIndex,
    query: &Query,
    req: &QueryRequest,
    target: ExplainTarget,
) -> PlanExplain {
    let stats = PlanStats::from_index(ix);
    let logical = bind::logical_plan(ix, query, req);
    let bound = bind::candidate_bound(ix, query);
    let floor = target.floor();
    let logical_render = logical.render(floor);
    let rw = rewrite(logical, Some(bound));
    PlanExplain {
        logical: logical_render,
        applied: rw.applied,
        cost: cost::summarize(&stats, &rw.plan, floor),
        rewritten: rw.plan.render(floor),
        physical: match (refusal(req, target), req.algorithm) {
            (Some(why), _) => {
                format!("ExecRefused: target={} reason=\"{why}\"\n", target.name())
            }
            // Only the memory target serves the stack baseline, and it
            // runs outside the plan: unranked, cut at `k`.
            (None, QueryAlgorithm::StackBased) => render_stack(req),
            // Every executor runs the spec the planner lowers from the
            // canonical request (`Planner::spec_for`), which folds the
            // knobs its algorithm ignores: EXPLAIN shows that spec.
            (None, _) => {
                let canonical = canonicalize(req);
                let exec = rewrite(bind::logical_plan(ix, query, &canonical), Some(bound));
                render_physical(&lower(&exec.plan, &canonical), &exec.plan, target)
            }
        },
        provenance: None,
    }
}

/// Annotates a rendered physical plan with what actually happened: the
/// executed trace's decode, match and join-step counts attached to the
/// matching `Exec*` lines, followed by the I/O line.
pub fn annotate_executed(ix: &XmlIndex, explain: &PlanExplain, trace: &Trace) -> String {
    use xtk_obs::EventKind;
    let mut total_decodes = 0u64;
    for e in trace.of_kind("store_io") {
        if let EventKind::StoreIo { decodes, .. } = e.kind {
            total_decodes = total_decodes.saturating_add(decodes);
        }
    }
    let mut matches = 0u64;
    for e in trace.of_kind("level_end") {
        if let EventKind::LevelEnd { matches: m, .. } = e.kind {
            matches = matches.saturating_add(m);
        }
    }
    let stop = trace.of_kind("join_stop").iter().find_map(|e| match e.kind {
        EventKind::JoinStop { level, .. } => Some(level),
        _ => None,
    });
    fmt::from_fn(|out| {
        for line in explain.physical.lines() {
            out.write_str(line)?;
            if line.trim_start().starts_with("ExecJoin:") {
                write!(out, " [actual decodes={total_decodes} matches={matches}")?;
                if let Some(level) = stop {
                    write!(out, " stopped-at={level}")?;
                }
                write!(out, "; est blocks={}]", explain.cost.est_blocks)?;
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
                        write!(out, " [actual steps={steps} out={out_values}]")?;
                    } else if driver_levels > 0 {
                        write!(out, " [actual driver levels={driver_levels} runs={driver_runs}]")?;
                    }
                }
            }
            out.write_char('\n')?;
        }
        writeln!(out, "io: decodes={total_decodes}")
    })
    .to_string()
}

/// The stack baseline's physical plan: what `Engine::run` answers an
/// `alg=stack` request with.
fn render_stack(req: &QueryRequest) -> String {
    fmt::from_fn(|out| {
        write!(
            out,
            "ExecStack: target=memory semantics={} variant={} scored=no",
            semantics_name(req.semantics),
            variant_name(req.variant),
        )?;
        if let Some(k) = req.k {
            write!(out, " k={k}")?;
        }
        out.write_char('\n')
    })
    .to_string()
}

fn semantics_name(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Elca => "elca",
        Semantics::Slca => "slca",
    }
}

fn variant_name(variant: ElcaVariant) -> &'static str {
    match variant {
        ElcaVariant::Operational => "operational",
        ElcaVariant::Formal => "formal",
    }
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

/// Renders the physical plan, byte-stable (no floats, no hash order —
/// the same request renders identically on any machine).
pub fn render_physical(spec: &ExecSpec, rewritten: &PlanNode, target: ExplainTarget) -> String {
    let target_name = target.name();
    let thr = match spec.threshold {
        ThresholdKind::Tight => "tight",
        ThresholdKind::Classic => "classic",
    };
    fmt::from_fn(|out| {
        write!(out, "ExecTopK: target={target_name} mode=")?;
        match spec.topk {
            TopKExec::Star { k } => write!(out, "star-join k={k} threshold={thr}")?,
            TopKExec::Hybrid { k } => match target {
                ExplainTarget::Memory => write!(out, "hybrid k={k}")?,
                // The disk and sharded executors have no star join: the
                // cost-based choice degenerates to the complete sort.
                _ => write!(out, "sort-complete k={k}")?,
            },
            TopKExec::Complete { elided } => {
                let memory = matches!(target, ExplainTarget::Memory);
                out.write_str(if spec.scored || (elided && memory) {
                    "sort-complete"
                } else {
                    "complete"
                })?;
                if let Some(k) = spec.truncate {
                    write!(out, " k={k}")?;
                }
                if elided && memory {
                    out.write_str(" (hybrid elided)")?;
                }
            }
        }
        out.write_char('\n')?;
        write!(
            out,
            "  ExecJoin: semantics={} variant={} scored={}",
            semantics_name(spec.semantics),
            variant_name(spec.variant),
            if spec.scored { "yes" } else { "no" },
        )?;
        // The sharded engine leaves out the corpus root.
        if target == ExplainTarget::Sharded {
            out.write_str(" floor=2")?;
        }
        out.write_char('\n')?;
        write_leaves(out, rewritten, 2)
    })
    .to_string()
}

fn write_leaves(out: &mut fmt::Formatter<'_>, node: &PlanNode, depth: usize) -> fmt::Result {
    match node {
        PlanNode::Scan(leaf) => {
            for _ in 0..depth {
                out.write_str("  ")?;
            }
            let mode = match leaf.mode {
                ScanMode::Materialize => "materialize",
                ScanMode::Stream => "stream",
            };
            writeln!(
                out,
                "ExecScan: term=\"{}\" levels={} mode={mode}",
                leaf.name,
                LevelRange(1, leaf.levels)
            )
        }
        PlanNode::IndexProbe(leaf) => {
            for _ in 0..depth {
                out.write_str("  ")?;
            }
            writeln!(
                out,
                "ExecProbe: term=\"{}\" levels={} skip=footers",
                leaf.name,
                LevelRange(1, leaf.levels)
            )
        }
        PlanNode::Join { inputs, .. } => {
            for i in inputs {
                write_leaves(out, i, depth)?;
            }
            Ok(())
        }
        PlanNode::Filter { input, .. } | PlanNode::TopK { input, .. } => {
            write_leaves(out, input, depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let physical = explain(&ix, &q, &req, ExplainTarget::Disk).physical;
        assert!(physical.contains("ExecProbe:"), "pushdown fired: {physical}");
        assert!(!physical.contains("materialize"), "no whole-sequence reads: {physical}");
    }

    #[test]
    fn elision_emulates_the_hybrid_complete_route() {
        let ix = ix();
        // k far above anything the corpus can produce: elim must fire.
        let (q, req) = bound(&ix, "xml search k=1000");
        let spec = lower_query(&ix, &q, &req);
        assert_eq!(spec.topk, TopKExec::Complete { elided: true });
        let on = execute_memory_spec(&ix, &q, &req, spec);
        let hybrid = ExecSpec { topk: TopKExec::Hybrid { k: 1000 }, ..spec };
        let off = execute_memory_spec(&ix, &q, &req, hybrid);
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
        let sharded = explain(&ix, &q, &req, ExplainTarget::Sharded).to_string();
        assert!(sharded.contains("target=sharded"), "{sharded}");
        assert!(sharded.contains("scored=yes floor=2\n"), "{sharded}");
        assert!(!a.contains("floor="), "{a}");
    }

    /// Every join of the rewritten plan has a probe input when it joins
    /// anything, and no whole-sequence scan survives anywhere.
    fn assert_one_pipeline(node: &PlanNode, ctx: &str) {
        match node {
            PlanNode::Scan(leaf) => {
                assert_eq!(leaf.mode, ScanMode::Stream, "materializing scan survived: {ctx}");
            }
            PlanNode::IndexProbe(_) => {}
            PlanNode::Join { inputs, .. } => {
                if inputs.len() >= 2 {
                    assert!(
                        inputs.iter().any(|i| matches!(i, PlanNode::IndexProbe(_))),
                        "join without a probe: {ctx}"
                    );
                }
                for i in inputs {
                    assert_one_pipeline(i, ctx);
                }
            }
            PlanNode::Filter { input, .. }
            | PlanNode::TopK { input, .. } => assert_one_pipeline(input, ctx),
        }
    }

    /// Random mixed-depth corpus: words planted at depths 2–7, so the
    /// keywords of one query rarely share their deepest level.
    fn mixed_depth_xml(g: &mut xtk_xml::testutil::Gen) -> String {
        let mut xml = String::from("<r>");
        for _ in 0..g.gen_range(1..12usize) {
            let depth = g.gen_range(1..7usize);
            for d in 0..depth {
                xml.push_str(&format!("<e{d}>"));
            }
            for _ in 0..g.gen_range(1..4usize) {
                xml.push_str(&format!("w{} ", g.gen_range(0..6u32)));
            }
            for d in (0..depth).rev() {
                xml.push_str(&format!("</e{d}>"));
            }
        }
        xml.push_str("</r>");
        xml
    }

    /// What the disk join's one access path rests on: every request the
    /// planner can see rewrites to streamed scans (so nothing reads a
    /// whole sequence) and probing joins (so every join step can skip).
    #[test]
    fn every_request_lowers_to_streamed_scans_and_probing_joins() {
        use crate::request::QueryAlgorithm;
        use xtk_xml::testutil::prop_check;
        prop_check(0x0E_71_7E, 200, |g| {
            let xml = mixed_depth_xml(g);
            let ix = XmlIndex::build(parse_xml(&xml).unwrap());
            let words: Vec<_> = (0..6).filter_map(|w| ix.term_id(&format!("w{w}"))).collect();
            let mut terms: Vec<_> = (0..g.gen_range(1..6usize))
                .map(|_| *g.rng().choose(&words).unwrap())
                .collect();
            if g.gen_bool(0.3) {
                terms.push(terms[0]);
            }
            let query = Query { terms };
            let semantics = if g.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
            let mut req = match g.gen_range(0..3u32) {
                0 => QueryRequest::complete(semantics),
                _ => QueryRequest::top_k(g.gen_range(0..40usize), semantics),
            };
            req = req.with_algorithm(match g.gen_range(0..3u32) {
                0 => QueryAlgorithm::Auto,
                1 => QueryAlgorithm::JoinBased,
                _ => QueryAlgorithm::TopKJoin,
            });
            if g.gen_bool(0.3) {
                req = req.unranked();
            }
            let logical = bind::logical_plan(&ix, &query, &req);
            let bound = bind::candidate_bound(&ix, &query);
            let plan = rewrite(logical, Some(bound)).plan;
            let ctx = format!("{xml} {:?} {req:?}\n{}", query.terms, plan.render(1));
            assert_one_pipeline(&plan, &ctx);
        });
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
