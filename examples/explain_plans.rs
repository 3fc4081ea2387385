//! EXPLAIN for keyword queries: the plan as lowered, then the same tree
//! annotated with what the execution did.  The paper's §III-C picks the
//! merge or the index join per column from the intermediate cardinalities;
//! here every join step runs one lookup that adapts per probe, so there
//! is no per-step choice to report.  What the annotations show instead is
//! the work itself: which keyword drove how many levels (each level's
//! smallest column), and for every probed keyword the join steps it took
//! part in and how few values survived them.
//!
//! ```text
//! cargo run --release --example explain_plans
//! ```

use xtk::core::engine::Engine;
use xtk::core::plan::annotate_executed;
use xtk::core::{QueryAlgorithm, QueryRequest, Semantics, TraceLevel};
use xtk::datagen::dblp::{generate, DblpConfig};
use xtk::datagen::PlantedTerm;

fn main() {
    // "topk" and "rewriting" are rare per paper but spread over the
    // conferences — the paper's own running example for dynamic join
    // selection.
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
    let req = QueryRequest::complete(Semantics::Elca)
        .with_algorithm(QueryAlgorithm::JoinBased)
        .with_trace(TraceLevel::Events);

    for text in ["topk rewriting xml", "rewriting xml", "topk xml"] {
        println!("=== {text} ===");
        let q = engine.query(text).unwrap();
        // Per keyword: the join steps it took part in and the values that
        // survived them, or the levels it drove.
        let explain = engine.explain_plan(&q, &req);
        let resp = engine.run(&q, &req);
        let trace = resp.trace.expect("trace requested");
        print!("{}", annotate_executed(engine.index(), &explain, &trace));
        println!("results: {}\n", resp.results.len());
    }
}
