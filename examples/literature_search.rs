//! Literature search over a generated DBLP-like corpus: the workload the
//! paper's introduction motivates.  Compares the complete join-based
//! engine with the top-K star join and the §V-D hybrid planner, and shows
//! the unified execution metrics every `Engine::run` response carries.
//!
//! ```text
//! cargo run --release --example literature_search
//! ```

use xtk::core::engine::Engine;
use xtk::core::query::Semantics;
use xtk::core::request::{QueryAlgorithm, QueryRequest};
use xtk::datagen::dblp::{generate, DblpConfig};
use xtk::datagen::PlantedTerm;

fn main() {
    // A 25k-paper digital library with a couple of "research topics"
    // planted at controlled frequencies and correlations.
    let cfg = DblpConfig {
        conferences: 100,
        years_per_conf: 5,
        papers_per_year: 50,
        planted: vec![
            PlantedTerm::new("skyline", 900),
            PlantedTerm::correlated("preference", 400, "skyline", 0.7),
            PlantedTerm::new("crowdsourcing", 150),
        ],
        ..Default::default()
    };
    println!("generating {} papers…", cfg.paper_count());
    let corpus = generate(&cfg);
    let engine = Engine::new(corpus.tree);
    println!(
        "indexed {} nodes / {} terms\n",
        engine.tree().len(),
        engine.index().vocab_size()
    );

    // A correlated query: lots of results, the top-K join shines.
    let q = engine.query("skyline preference").unwrap();
    let resp = engine.run(
        &q,
        &QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
    );
    println!("top-5 for {{skyline, preference}} (correlated):");
    for r in &resp.results {
        println!("  {}", engine.describe(r));
    }
    let m = &resp.metrics;
    println!(
        "  [top-K join: {} rows retrieved over {} columns, {} candidates, {} emitted early]\n",
        m.get("topk.rows_retrieved"),
        m.get("topk.columns"),
        m.get("topk.candidates"),
        m.get("topk.emitted_early")
    );

    // An uncorrelated query: few results — the hybrid planner routes it to
    // the complete join instead.
    let q = engine.query("skyline crowdsourcing").unwrap();
    let resp = engine.run(&q, &QueryRequest::top_k(5, Semantics::Elca));
    println!("top-5 for {{skyline, crowdsourcing}} (uncorrelated) via {:?}:", resp.engine);
    for r in &resp.results {
        println!("  {}", engine.describe(r));
    }

    // The complete engine's execution counters show the per-level joins.
    let resp = engine.run(&q, &QueryRequest::complete(Semantics::Elca));
    let m = &resp.metrics;
    println!(
        "\ncomplete set: {} results; {} levels, {} join steps, {} raw matches",
        resp.results.len(),
        m.get("join.levels"),
        m.get("join.steps"),
        m.get("join.matches")
    );
}
