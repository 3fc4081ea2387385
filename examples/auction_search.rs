//! Auction-site search over a generated XMark-like corpus, with index
//! persistence: build → serialize the index file → open it as a column
//! store → verify the columns read back, then query under both semantics.
//!
//! ```text
//! cargo run --release --example auction_search
//! ```

use xtk::core::{Engine, QueryRequest, Semantics};
use xtk::datagen::xmark::{generate, XmarkConfig};
use xtk::datagen::PlantedTerm;
use std::sync::Arc;
use xtk::index::cache::ShardedLruCache;
use xtk::index::disk::{write_index_to, WriteIndexOptions};
use xtk::index::diskcol::DiskColumnStore;
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
    // file) and open it as the store the disk engine reads.
    let mut image = Vec::new();
    let options = WriteIndexOptions { include_scores: true, ..Default::default() };
    let bytes = write_index_to(engine.index(), &mut image, options)?;
    println!("\nwrote columnar index: {bytes} bytes");
    let store = DiskColumnStore::open_bytes(image.into(), Arc::new(ShardedLruCache::unbounded()))?;
    let vintage = engine.index().term_by_str("vintage").expect("planted");
    for (col, level) in vintage.columns().zip(1u16..) {
        let scanned = store.column("vintage", level).expect("stored level").scan()?;
        assert_eq!(scanned, col.runs, "stored columns read back bit-identical");
    }
    println!(
        "opened {} terms; \"vintage\" read back identical in {} blocks",
        store.term_names().len(),
        store.io_stats().decodes
    );

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
