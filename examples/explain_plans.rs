//! EXPLAIN for keyword queries: see which join algorithm the dynamic
//! optimizer picks — the paper's "context-aware" join selection (§III-C)
//! made visible.  The same query can use the index join at the paper
//! level (keywords rarely co-occur in one paper) and the merge join at
//! the conference level (every database conference covers both topics),
//! so a probed keyword's executed line lists more than one strategy
//! (`strategy=gallop+index+merge`).
//!
//! ```text
//! cargo run --release --example explain_plans
//! ```

use xtk::core::engine::Engine;
use xtk::core::joinbased::JoinPlan;
use xtk::core::plan::annotate_executed;
use xtk::core::{QueryAlgorithm, QueryRequest, Semantics, TraceLevel};
use xtk::datagen::dblp::{generate, DblpConfig};
use xtk::datagen::PlantedTerm;

fn main() {
    // "topk" and "rewriting" are rare per paper but spread over the
    // conferences — the paper's own running example for dynamic join
    // selection.  "topk" is rare enough that the planner's cost gate
    // predicts skipped blocks and keeps the probe access path, so the
    // §III-C chooser stays in charge of every step.
    let cfg = DblpConfig {
        conferences: 120,
        years_per_conf: 6,
        papers_per_year: 40,
        planted: vec![
            PlantedTerm::new("topk", 60),
            PlantedTerm::new("rewriting", 2_500),
            PlantedTerm::new("xml", 9_000),
        ],
        ..Default::default()
    };
    let engine = Engine::new(generate(&cfg).tree);
    let q = engine.query("topk rewriting xml").unwrap();

    for (title, plan) in [
        ("dynamic plan (the default)", JoinPlan::Dynamic),
        ("forced merge-only", JoinPlan::MergeOnly),
        ("forced index-only", JoinPlan::IndexOnly),
    ] {
        println!("=== {title} ===");
        let req = QueryRequest::complete(Semantics::Elca)
            .with_algorithm(QueryAlgorithm::JoinBased)
            .with_plan(plan)
            .with_trace(TraceLevel::Events);
        // The plan as lowered, then the same tree annotated with what the
        // execution's trace recorded: per keyword the join steps it took
        // part in, the strategies chosen and the levels it drove.
        let explain = engine.explain_plan(&q, &req);
        let resp = engine.run(&q, &req);
        let trace = resp.trace.expect("trace requested");
        print!("{}", annotate_executed(engine.index(), &explain, &trace));
        println!("results: {}\n", resp.results.len());
    }
}
