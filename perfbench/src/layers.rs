//! Per-layer probes: direct timings of public functions that a replayed
//! request only reaches through the engine.  Run once, after the traced
//! passes, so they cannot disturb the passes' caches.

use crate::measure::median;
use crate::ops::OpList;
use crate::setup::Loaded;
use std::collections::BTreeSet;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use xtk_core::QueryRequest;
use xtk_index::cache::ShardedLruCache;
use xtk_index::diskcol::DiskColumnStore;

/// Requests sampled for the cold-planning probe.
const SPEC_SAMPLE: usize = 300;
/// `find` probes per column.
const FINDS_PER_COLUMN: usize = 8;

/// Median microseconds of `Planner::spec_for` right after
/// `cache().clear()` — a request the plan cache has never seen.  Each
/// sample first executes the request, so planning starts from the
/// processor caches a request in a pass leaves behind and the number
/// compares with `plan.spec_hit_us`, which is measured inside the passes.
pub fn spec_cold_us(loaded: &Loaded<'_>, ops: &OpList) -> Result<f64, String> {
    let (planner, exec) = (loaded.planner(), loaded.executor());
    let (generation, salt) = (exec.generation(), exec.topology_salt());
    let base = QueryRequest::default();
    let mut us = Vec::new();
    for text in ops.texts.iter().take(SPEC_SAMPLE) {
        let (query, req) =
            xtk_core::plan::compile(loaded.ix, text, &base).map_err(|e| e.to_string())?;
        exec.execute(&query, &req).map_err(|e| e.to_string())?;
        planner.cache().clear();
        let t = Instant::now();
        std::hint::black_box(planner.spec_for(loaded.ix, &query, &req, generation, salt));
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&us))
}

/// What scanning and probing the op list's columns cost.
#[derive(Default)]
pub struct DecodeProbe {
    pub ns_per_row: f64,
    pub rows_per_block: f64,
    pub find_us: f64,
}

/// Scans every column of every term the op list names, through a
/// one-block cache (so every block is decoded), then probes a few of the
/// values it saw with `DiskColumn::find`.  The probes go round-robin over
/// the columns, so each one finds another column's block in the cache
/// and has to decode its own: the cold index-join probe.
pub fn decode_probe(loaded: &Loaded<'_>, ops: &OpList) -> io::Result<DecodeProbe> {
    let mut terms: BTreeSet<&str> = BTreeSet::new();
    for text in &ops.texts {
        terms.extend(text.split_whitespace().filter(|t| !t.contains('=')));
    }
    let (mut scan_ns, mut rows, mut blocks) = (0u64, 0u64, 0u64);
    let mut find_us = Vec::new();
    for file in loaded.store_files() {
        let cache = Arc::new(ShardedLruCache::with_block_capacity(1));
        let store = DiskColumnStore::open_with_cache(&file, cache)?;
        // Per column: the values to probe.
        let mut probes: Vec<(&str, u16, Vec<u32>)> = Vec::new();
        for term in &terms {
            for level in 1..=store.levels_of(term) {
                let Some(column) = store.column(term, level) else {
                    continue;
                };
                let t = Instant::now();
                let runs = column.scan()?;
                scan_ns += t.elapsed().as_nanos() as u64;
                rows += runs.iter().map(|r| u64::from(r.len)).sum::<u64>();
                blocks += column.block_count() as u64;
                let step = (runs.len() / FINDS_PER_COLUMN).max(1);
                let values = runs
                    .iter()
                    .step_by(step)
                    .take(FINDS_PER_COLUMN)
                    .map(|r| r.value);
                probes.push((term, level, values.collect()));
            }
        }
        for round in 0..FINDS_PER_COLUMN {
            for (term, level, values) in &probes {
                let (Some(column), Some(&value)) = (store.column(term, *level), values.get(round))
                else {
                    continue;
                };
                let t = Instant::now();
                std::hint::black_box(column.find(value)?);
                find_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    if rows == 0 {
        return Ok(DecodeProbe::default());
    }
    Ok(DecodeProbe {
        ns_per_row: scan_ns as f64 / rows as f64,
        rows_per_block: rows as f64 / blocks.max(1) as f64,
        find_us: median(&find_us),
    })
}
