//! Auction-site search over a generated XMark-like corpus, with index
//! persistence: build → serialize the index file → reload → verify the
//! columns round-tripped, then query under both semantics.
//!
//! ```text
//! cargo run --release --example auction_search
//! ```

use xtk::core::{Engine, QueryRequest, Semantics};
use xtk::datagen::xmark::{generate, XmarkConfig};
use xtk::datagen::PlantedTerm;
use xtk::index::disk::{read_index_bytes, write_index_to, WriteIndexOptions};
use xtk::index::sizes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = XmarkConfig {
        items_per_region: 2_000,
        people: 1_500,
        open_auctions: 800,
        closed_auctions: 500,
        planted: vec![
            PlantedTerm::new("vintage", 300),
            PlantedTerm::correlated("camera", 150, "vintage", 0.6),
        ],
        ..Default::default()
    };
    let corpus = generate(&cfg);
    let engine = Engine::new(corpus.tree);
    println!(
        "XMark-like corpus: {} nodes, {} terms",
        engine.tree().len(),
        engine.index().vocab_size()
    );

    // Table-I-style size accounting for this corpus.
    println!("\nindex sizes:\n{}", sizes::compute(engine.index()));

    // Serialize the columnar index (`write_index` puts the same bytes in a
    // file) and load it back.
    let mut image = Vec::new();
    let options = WriteIndexOptions { include_scores: true, ..Default::default() };
    let bytes = write_index_to(engine.index(), &mut image, options)?;
    println!("\nwrote columnar index: {bytes} bytes");
    let loaded = read_index_bytes(image.into())?;
    let vintage = engine.index().term_by_str("vintage").expect("planted");
    assert_eq!(
        loaded.terms["vintage"].columns, vintage.columns,
        "reloaded columns are bit-identical"
    );
    println!("reloaded {} terms; columns verified identical", loaded.terms.len());

    // Queries: items about vintage cameras.
    let q = engine.query("vintage camera")?;
    println!("\ntop-5 ELCA for {{vintage, camera}}:");
    for r in engine.run(&q, &QueryRequest::top_k(5, Semantics::Elca)).results {
        println!("  {}", engine.describe(&r));
    }
    let slca = engine.run(&q, &QueryRequest::complete(Semantics::Slca));
    println!("\nSLCA count: {}", slca.results.len());
    Ok(())
}
