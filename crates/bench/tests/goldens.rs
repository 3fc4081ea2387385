//! The regression goldens: deterministic counters of the query, serving,
//! sharding and decode paths, and the EXPLAIN text, each compared exactly
//! with a committed file at the repository root.
//!
//! | golden               | what it pins                                                 |
//! |----------------------|--------------------------------------------------------------|
//! | `BENCH_query.json`   | cold decodes and cache traffic per cache capacity; the       |
//! |                      | rewrite tiers' cold decodes                                  |
//! | `BENCH_serve.json`   | decodes and result-cache traffic of a skewed stream, one by  |
//! |                      | one and batched                                              |
//! | `BENCH_shard.json`   | decodes, shard executions and prunes at 4 and 8 shards       |
//! | `BENCH_decode.json`  | bytes and blocks per compression regime; a store's file size |
//! |                      | and cold decodes                                             |
//! | `BENCH_metrics.json` | the merged `MetricsSnapshot` of a fixed request matrix       |
//! | `BENCH_explain.snap` | EXPLAIN reports, planned and executed, on every target       |
//!
//! Every value is a count over seeded corpora, so a diff is a real change
//! in what the engine does.  Review it, then rewrite the files with
//! `XTK_BLESS=1 cargo test -p xtk-bench --test goldens`.
//!
//! Besides the counters, each test asserts what the counts rest on: disk
//! answers equal the in-memory engine's, batched answers equal one-by-one
//! answers, and every shard topology equals the unsharded reference.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use xtk_bench::{
    cold_store, correlated_groups, equal_queries, gate_corpus, high_term, point_queries,
    skewed_schedule, store_image, Scale,
};
use xtk_core::diskexec::join_search_disk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::plan::{annotate_executed, compile, explain, ExplainTarget, RuleSet};
use xtk_core::pool::Parallelism;
use xtk_core::query::Query;
use xtk_core::request::QueryAlgorithm;
use xtk_core::result::{sort_ranked, ScoredResult};
use xtk_core::shard::{write_sharded, ShardedEngine};
use xtk_core::{
    BatchExecutor, BatchItem, BatchOptions, DiskEngine, Engine, Executor, MetricsSnapshot,
    QueryRequest, Semantics,
};
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::PlantedTerm;
use xtk_index::bytes::ColumnBytes;
use xtk_index::cache::{
    Block, BlockCache, CacheCapacity, CacheStats, ShardedLruCache, DEFAULT_CAPACITY_BLOCKS,
};
use xtk_index::codec::{choose_scheme, decode_column, encode_column, Scheme};
use xtk_index::columnar::Run;
use xtk_index::disk::WriteIndexOptions;
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::XmlIndex;
use xtk_xml::testutil::TempPath;

/// The one way to rewrite the goldens.
const BLESS: &str = "XTK_BLESS=1 cargo test -p xtk-bench --test goldens";

/// Compares `actual` with the golden `file` at the repository root, or
/// rewrites the file when `XTK_BLESS=1`.
fn check_golden(file: &str, actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bless = std::env::var("XTK_BLESS").is_ok_and(|v| v == "1");
    if let Err(msg) = compare_or_bless(&root.join(file), actual, bless) {
        panic!("{msg}");
    }
}

/// The whole text must match: a changed, missing or extra line fails,
/// and so does a missing file.
fn compare_or_bless(path: &Path, actual: &str, bless: bool) -> Result<(), String> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    if bless {
        return std::fs::write(path, actual).map_err(|e| format!("{name}: cannot bless: {e}"));
    }
    let golden = std::fs::read_to_string(path)
        .map_err(|e| format!("{name}: cannot read the golden ({e}); create it with: {BLESS}"))?;
    if golden == actual {
        return Ok(());
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    let first = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
    let mut msg = format!("{name} differs from this run at line {}:\n", first + 1);
    for (sign, lines) in [("-", &want), ("+", &got)] {
        for line in lines.iter().skip(first).take(3) {
            let _ = writeln!(msg, "  {sign} {line}");
        }
    }
    if want.len() == got.len() && first == want.len() {
        msg.push_str("  (only the final newline differs)\n");
    }
    let _ = write!(
        msg,
        "golden (-) has {} lines, this run (+) {}; if the change is intended, bless it with: {BLESS}",
        want.len(),
        got.len()
    );
    Err(msg)
}

#[test]
fn check_golden_fails_on_a_missing_file_a_missing_line_and_an_extra_line() {
    let path = TempPath::new("xtk_golden");
    let text = "{\n  \"a\": 1,\n  \"b\": 2\n}\n";
    let missing = compare_or_bless(&path, text, false).unwrap_err();
    assert!(missing.contains("cannot read the golden") && missing.contains(BLESS), "{missing}");

    compare_or_bless(&path, text, true).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "bless writes the run's text");
    compare_or_bless(&path, text, false).unwrap();

    let changed = compare_or_bless(&path, &text.replace("2", "3"), false).unwrap_err();
    assert!(changed.contains("at line 3") && changed.contains("+   \"b\": 3"), "{changed}");
    let dropped = compare_or_bless(&path, &text.replace("  \"b\": 2\n", ""), false).unwrap_err();
    assert!(dropped.contains("at line 3") && dropped.contains("-   \"b\": 2"), "{dropped}");
    assert!(dropped.contains(BLESS), "{dropped}");
    let extra = compare_or_bless(&path, &format!("{text}\n"), false).unwrap_err();
    assert!(extra.contains("at line 5") && extra.contains("this run (+) 5"), "{extra}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "a failed check writes nothing");
}

/// A result stream as exact bits: node, level, score.
fn bits(results: &[ScoredResult]) -> Vec<(u32, u16, u32)> {
    results.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect()
}

/// A golden's JSON text, one member per line; see [`list`].
fn json(members: &[String]) -> String {
    format!("{{\n  {}\n}}\n", members.join(",\n  "))
}

/// A list member of [`json`], one element per line: the line a failed
/// check names is one workload, topology or regime.
fn list(name: &str, elements: &[String]) -> String {
    format!("\"{name}\": [\n    {}\n  ]", elements.join(",\n    "))
}

/// The corpus the query, serving, sharding and store-decode goldens
/// share, built once per run, with its store image.
struct Gate {
    engine: Engine,
    image: ColumnBytes,
}

fn gate() -> &'static Gate {
    static GATE: OnceLock<Gate> = OnceLock::new();
    GATE.get_or_init(|| {
        let engine = Engine::from_index(gate_corpus());
        let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
        let image = store_image(engine.index(), opts).expect("write the gate store");
        Gate { engine, image }
    })
}

/// A block cache that can be emptied: a leg that reports cold counts
/// swaps in a fresh cache instead of reopening its store, whose open
/// parses the whole block directory.
#[derive(Debug)]
struct ColdCache(Mutex<Arc<ShardedLruCache>>);

impl ColdCache {
    fn new() -> Arc<ColdCache> {
        Arc::new(ColdCache(Mutex::new(Arc::new(ShardedLruCache::unbounded()))))
    }

    /// Swaps in an empty cache of `capacity`, which from here on serves
    /// and counts alone.
    fn reset(&self, capacity: CacheCapacity) {
        *self.0.lock().expect("no test panics holding the cache") =
            Arc::new(ShardedLruCache::new(capacity));
    }

    fn inner(&self) -> Arc<ShardedLruCache> {
        Arc::clone(&self.0.lock().expect("no test panics holding the cache"))
    }
}

impl BlockCache for ColdCache {
    fn get(&self, key: u64) -> Option<Block> {
        self.inner().get(key)
    }
    fn peek(&self, key: u64) -> Option<Block> {
        self.inner().peek(key)
    }
    fn insert(&self, key: u64, block: Block) {
        self.inner().insert(key, block)
    }
    fn stats(&self) -> CacheStats {
        self.inner().stats()
    }
    fn pin(&self, key: u64) -> bool {
        self.inner().pin(key)
    }
    fn unpin(&self, key: u64) {
        self.inner().unpin(key)
    }
    fn pinned_blocks(&self) -> u64 {
        self.inner().pinned_blocks()
    }
}

/// A store over the gate image behind a [`ColdCache`].
fn gate_store() -> (DiskColumnStore, Arc<ColdCache>) {
    let cache = ColdCache::new();
    let store =
        DiskColumnStore::open_bytes(gate().image.clone(), cache.clone()).expect("open store");
    (store, cache)
}

fn resolve(ix: &XmlIndex, words: &[Vec<String>]) -> Vec<Query> {
    words.iter().map(|w| Query::from_words(ix, w).expect("workload term resolves")).collect()
}

fn correlated_words() -> Vec<Vec<String>> {
    correlated_groups()
        .into_iter()
        .map(|(terms, _, _)| terms.into_iter().map(str::to_string).collect())
        .collect()
}

/// Query path: per Fig. 9/10 workload and cache capacity, the cold decodes
/// and cache traffic of Algorithm 1 on disk; then the cold decodes of the
/// three rewrite tiers, each query on an empty cache.
#[test]
fn query_io() {
    let ix = gate().engine.index();
    let (store, cache) = gate_store();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let workloads = [
        ("point_k2_f4", point_queries(Scale::Small, 2, 4, 8)),
        ("point_k2_f10", point_queries(Scale::Small, 2, 10, 8)),
        ("point_k3_f100", point_queries(Scale::Small, 3, 100, 8)),
        ("equal_k3_f1000", equal_queries(3, 1_000, 8)),
        ("correlated", correlated_words()),
    ];
    let capacities = [
        ("cap1", CacheCapacity::Blocks(1)),
        ("default", CacheCapacity::Blocks(DEFAULT_CAPACITY_BLOCKS)),
        ("unbounded", CacheCapacity::Unbounded),
    ];
    let mut lines = Vec::new();
    for (name, words) in &workloads {
        let queries = resolve(ix, words);
        let want: Vec<_> =
            queries.iter().map(|q| bits(&join_search(ix, q, &opts).0)).collect();
        let results: usize = want.iter().map(Vec::len).sum();
        let mut configs = Vec::new();
        for (cname, capacity) in capacities {
            cache.reset(capacity);
            let before = store.reads();
            for (q, want) in queries.iter().zip(&want) {
                let (got, _, _) = join_search_disk(ix, &store, q, &opts).expect("disk search");
                assert_eq!(&bits(&got), want, "{name}/{cname}: disk diverges from memory");
            }
            let s = cache.stats();
            configs.push(format!(
                "\"{cname}\": {{\"cold_decodes\": {}, \"hits\": {}, \"misses\": {}, \
                 \"evictions\": {}}}",
                store.reads() - before,
                s.hits,
                s.misses,
                s.evictions
            ));
        }
        lines.push(format!(
            "{{\"name\": \"{name}\", \"queries\": {}, \"results\": {results}, \"configs\": {{{}}}}}",
            queries.len(),
            configs.join(", ")
        ));
    }

    // The rewrite tiers through the request path: `none` lowers to the
    // §III-B strawman (whole-sequence prescan), `prune` narrows the scans
    // to the shared join levels, `all` also pushes block-skipping probes.
    // Results must be bit-identical at every tier while the cold decodes
    // strictly shrink.  The workload: mixed-depth pairs of a conference
    // name (level 3) with a high-frequency title term (level 5), whose
    // deep levels column pruning cuts, plus the index-heavy point queries.
    let disk = DiskEngine::new(ix, &store);
    let mut words: Vec<Vec<String>> =
        (0..4).map(|i| vec![format!("conf{}", 17 * i), high_term(i)]).collect();
    words.extend(workloads[..2].iter().flat_map(|(_, w)| w.iter().cloned()));
    let queries = resolve(ix, &words);
    let req = QueryRequest::complete(Semantics::Elca);
    let tiers =
        [RuleSet::none(), RuleSet { prune_columns: true, ..RuleSet::none() }, RuleSet::all()];
    let mut decodes = [0u64; 3];
    let mut answers: [Vec<_>; 3] = Default::default();
    for (i, rules) in tiers.iter().enumerate() {
        for q in &queries {
            cache.reset(CacheCapacity::Unbounded);
            let resp = disk.execute(q, &req.with_rules(*rules)).expect("disk execute");
            decodes[i] += resp.metrics.get("store.decodes");
            answers[i].push(bits(&resp.results));
        }
    }
    assert_eq!(answers[0], answers[1], "prune-columns changed results");
    assert_eq!(answers[1], answers[2], "push-probes changed results");
    let [strawman, pruned, probed] = decodes;
    assert!(strawman > pruned, "column pruning must cut cold decodes: {strawman} -> {pruned}");
    assert!(pruned > probed, "probe pushdown must cut cold decodes: {pruned} -> {probed}");

    let pruning = format!(
        "\"pruning\": {{\"queries\": {}, \"strawman_cold_decodes\": {strawman}, \
         \"pruned_cold_decodes\": {pruned}, \"probed_cold_decodes\": {probed}}}",
        queries.len()
    );
    check_golden(
        "BENCH_query.json",
        &json(&[
            "\"schema\": 2".into(),
            "\"corpus\": \"gate\"".into(),
            list("workloads", &lines),
            pruning,
        ]),
    );
}

/// The serving mix: point, equal and correlated queries, every third a
/// top-5 SLCA request, the rest complete ELCA.
fn serving_words() -> Vec<Vec<String>> {
    let mut words = point_queries(Scale::Small, 2, 10, 6);
    words.extend(point_queries(Scale::Small, 3, 100, 6));
    words.extend(equal_queries(3, 1_000, 6));
    words.extend(correlated_words());
    words
}

const ARRIVALS: usize = 240;
const BATCH_SIZE: usize = 48;

/// Batched serving: a repeat-skewed arrival stream, one by one and in
/// batches through a [`BatchExecutor`] (dedup, result cache, prefetch) at
/// `Fixed(2)` workers.
#[test]
fn serve() {
    let ix = gate().engine.index();
    let (store, cache) = gate_store();
    let disk = DiskEngine::new(ix, &store);
    let complete = QueryRequest::complete(Semantics::Elca);
    let top5 = QueryRequest::top_k(5, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased);
    let items: Vec<BatchItem> = resolve(ix, &serving_words())
        .into_iter()
        .enumerate()
        .map(|(i, q)| BatchItem::new(q, if i % 3 == 0 { top5 } else { complete }))
        .collect();
    let schedule = skewed_schedule(items.len(), ARRIVALS, 0xC0FFEE);

    // One by one: each request the stream touches, executed on its first
    // arrival.  The cache is unbounded, so a repeat arrival would decode
    // nothing and answer the same: these are the decodes and answers of
    // the whole stream served without a batch layer.
    let mut answers: Vec<Option<Vec<_>>> = vec![None; items.len()];
    for &i in &schedule {
        if answers[i].is_none() {
            let resp = disk.execute(&items[i].query, &items[i].request).expect("disk execute");
            answers[i] = Some(bits(&resp.results));
        }
    }
    let seq_decodes = store.reads();
    let results: usize =
        schedule.iter().filter_map(|&i| answers[i].as_ref()).map(Vec::len).sum();
    let executed = answers.iter().flatten().count() as u64;

    let batched = |exec: &BatchExecutor<&DiskEngine>| {
        cache.reset(CacheCapacity::Unbounded);
        let before = store.reads();
        let mut report = MetricsSnapshot::default();
        for (c, chunk) in schedule.chunks(BATCH_SIZE).enumerate() {
            let batch: Vec<BatchItem> = chunk.iter().map(|&i| items[i].clone()).collect();
            let out = exec.run(&batch).expect("batched execute");
            for (a, (&i, resp)) in chunk.iter().zip(&out.responses).enumerate() {
                let want = answers[i].as_ref().expect("scheduled request answered");
                let arrival = c * BATCH_SIZE + a;
                assert_eq!(&bits(&resp.results), want, "arrival {arrival}: batched != one by one");
            }
            report.merge(&out.metrics);
        }
        (store.reads() - before, report)
    };
    let opts = BatchOptions { parallelism: Parallelism::Fixed(2), ..Default::default() };
    let exec = BatchExecutor::with_options(&disk, opts);
    let (decodes, m) = batched(&exec);
    assert_eq!(m.get("batch.result_misses"), executed, "each touched request executes once");
    // A fresh executor on a fresh cache repeats every counter.
    let replay = batched(&BatchExecutor::with_options(&disk, opts));
    assert_eq!(replay, (decodes, m.clone()), "a replay counts differently");
    // The first executor again: all result-cache hits, no decode.
    let warm = store.reads();
    let mut hits = 0;
    for chunk in schedule.chunks(BATCH_SIZE) {
        let batch: Vec<BatchItem> = chunk.iter().map(|&i| items[i].clone()).collect();
        hits += exec.run(&batch).expect("warm replay").metrics.get("batch.result_hits");
    }
    assert_eq!((store.reads(), hits), (warm, ARRIVALS as u64), "a warm replay decoded or missed");

    let batched = format!(
        "\"batched\": {{\"decodes\": {decodes}, \"result_hits\": {}, \"result_misses\": {}, \
         \"dedup_hits\": {}, \"prefetch_pinned\": {}}}",
        m.get("batch.result_hits"),
        m.get("batch.result_misses"),
        m.get("batch.dedup_hits"),
        m.get("batch.prefetch_pinned"),
    );
    check_golden(
        "BENCH_serve.json",
        &json(&[
            "\"schema\": 2".into(),
            "\"corpus\": \"gate\"".into(),
            format!("\"arrivals\": {ARRIVALS}, \"distinct\": {}", items.len()),
            format!("\"sequential\": {{\"decodes\": {seq_decodes}, \"results\": {results}}}"),
            batched,
        ]),
    );
}

/// Sharded scatter-gather: the serving mix across small and large k, at 4
/// and 8 document shards; every topology answers as the unsharded
/// engine's filtered reference, and prunes at least one shard.
#[test]
fn shard() {
    let gate = gate();
    let ix = gate.engine.index();
    let work: Vec<(Query, QueryRequest)> = resolve(ix, &serving_words())
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let req = match i % 4 {
                0 => QueryRequest::top_k(5, Semantics::Elca),
                1 => QueryRequest::top_k(2, Semantics::Slca),
                2 => QueryRequest::top_k(10, Semantics::Elca),
                _ => QueryRequest::complete(Semantics::Elca),
            };
            (q, req)
        })
        .collect();
    // The reference: the complete join without the level-1 results (which
    // partitioning cannot produce), ranked and truncated.
    let want: Vec<_> = work
        .iter()
        .map(|(q, req)| {
            let complete = QueryRequest::complete(req.semantics)
                .with_variant(req.variant)
                .with_algorithm(QueryAlgorithm::JoinBased);
            let mut rs = gate.engine.run(q, &complete).results;
            rs.retain(|r| r.level > 1);
            sort_ranked(&mut rs);
            rs.truncate(req.k.unwrap_or(usize::MAX));
            bits(&rs)
        })
        .collect();
    let results: usize = want.iter().map(Vec::len).sum();

    let (mut lines, mut single) = (Vec::new(), 0);
    for shards in [1, 4, 8] {
        let dir = TempPath::new(&format!("xtk_goldens_shard{shards}"));
        write_sharded(ix, &dir, shards).expect("write sharded corpus");
        let engine = ShardedEngine::open(ix, &dir).expect("open sharded corpus");
        let (mut decodes, mut executed, mut pruned) = (0, 0, 0);
        for ((q, req), want) in work.iter().zip(&want) {
            let resp = engine.execute(q, req).expect("sharded execute");
            assert_eq!(&bits(&resp.results), want, "{shards} shards diverge from the reference");
            decodes += resp.metrics.get("store.decodes");
            executed += resp.metrics.get("shard.executed");
            pruned += resp.metrics.get("shard.pruned");
        }
        if shards == 1 {
            single = decodes;
        } else {
            assert!(pruned > 0, "the TA merge pruned no shard at {shards} shards: is its stop test run?");
            // Ranges share one store and one cache: splitting the corpus
            // must not multiply the blocks decoded.
            assert!(
                decodes * 10 <= single * 11,
                "{shards} shards decode {decodes} blocks, over 1.1 x the {single} of one"
            );
        }
        lines.push(format!(
            "{{\"shards\": {shards}, \"decodes\": {decodes}, \"executed\": {executed}, \
             \"pruned\": {pruned}}}"
        ));
    }

    check_golden(
        "BENCH_shard.json",
        &json(&[
            "\"schema\": 2".into(),
            "\"corpus\": \"gate\"".into(),
            format!("\"queries\": {}, \"results\": {results}", work.len()),
            list("topologies", &lines),
        ]),
    );
}

/// Deterministic generator of the synthetic decode columns.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `1..=bound`.
    fn range(&mut self, bound: u64) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound) as u32 + 1
    }
}

/// The decode regimes: dense small-delta lanes (1–3 bit widths), wide-delta
/// lanes (~12 bit) and run-length blocks.
fn decode_columns() -> [(&'static str, Scheme, Vec<Run>); 3] {
    let delta = |seed: u64, gap: u64| {
        let mut rng = Lcg(seed);
        let (mut value, mut row) = (0u32, 0u32);
        (0..120_000u32)
            .map(|i| {
                value += rng.range(gap);
                // Occasional row gaps exercise the present-row mapping.
                row += if i % 13 == 0 { 3 } else { 1 };
                Run { value, start: row, len: 1 }
            })
            .collect()
    };
    let mut rng = Lcg(0xdec0de03);
    let mut runs = Vec::new();
    let (mut value, mut row) = (0u32, 0u32);
    while runs.len() < 24_000 {
        value += rng.range(7);
        let len = rng.range(32);
        runs.push(Run { value, start: row, len });
        row += len + u32::from(runs.len() % 11 == 0);
    }
    [
        ("delta_dense", Scheme::Delta, delta(0xdec0de01, 4)),
        ("delta_wide", Scheme::Delta, delta(0xdec0de02, 4_096)),
        ("rle_runs", Scheme::Rle, runs),
    ]
}

/// Block decoding in the one on-disk format: per compression regime the
/// payload bytes and the blocks a cold scan decodes; then a store's file
/// size and the cold decodes of a query set.
#[test]
fn decode() {
    let mut lines = Vec::new();
    for (name, expect, runs) in decode_columns() {
        let scheme = choose_scheme(&runs);
        assert_eq!(scheme, expect, "{name}: the column drifted off its scheme");
        let present: Vec<u32> = runs.iter().flat_map(|r| r.rows()).collect();
        let cc = encode_column(&runs, scheme);
        let decoded = decode_column(&cc, &present).expect("column decodes");
        assert!(decoded == runs, "{name}: decode diverges from the runs");
        lines.push(format!(
            "{{\"name\": \"{name}\", \"scheme\": \"{scheme:?}\", \"rows\": {}, \"bytes\": {}, \
             \"cold_decodes\": {}}}",
            present.len(),
            cc.bytes.len(),
            cc.block_count()
        ));
    }

    let gate = gate();
    let ix = gate.engine.index();
    let opts = JoinOptions { with_scores: true, ..Default::default() };
    let mut words = point_queries(Scale::Small, 2, 10, 6);
    words.extend(equal_queries(2, 1_000, 6));
    let queries = resolve(ix, &words);
    let store = cold_store(&gate.image).expect("open store");
    for q in &queries {
        let (got, _, _) = join_search_disk(ix, &store, q, &opts).expect("disk search");
        assert_eq!(bits(&got), bits(&join_search(ix, q, &opts).0), "disk diverges from memory");
    }
    let store_line = format!(
        "\"store\": {{\"corpus\": \"gate\", \"queries\": {}, \"cold_decodes\": {}, \"file_bytes\": {}}}",
        queries.len(),
        store.reads(),
        gate.image.len()
    );
    check_golden(
        "BENCH_decode.json",
        &json(&["\"schema\": 3".into(), list("workloads", &lines), store_line]),
    );
}

/// The metrics matrix's corpus: a few hundred papers with planted bands,
/// so every engine (complete join, top-K early exit, stack baseline) has
/// real work.
fn metrics_corpus() -> XmlIndex {
    let planted = vec![
        PlantedTerm::new("hi0", 2_000),
        PlantedTerm::new("hi1", 2_000),
        PlantedTerm::new("mid0", 200),
        PlantedTerm::new("mid1", 200),
        PlantedTerm::new("low0", 20),
        PlantedTerm::correlated("pair1", 150, "hi0", 0.9),
    ];
    let cfg = DblpConfig {
        conferences: 40,
        years_per_conf: 5,
        papers_per_year: 10,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size: 2_000,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

/// One pass of the metrics matrix — every served engine, both semantics,
/// complete and top-K, plus the join-based disk leg — merged.
fn metrics_matrix(engine: &Engine, disk: &DiskEngine, queries: &[Query]) -> MetricsSnapshot {
    let in_memory = [
        QueryRequest::complete(Semantics::Elca),
        QueryRequest::complete(Semantics::Slca).unranked(),
        QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased),
        QueryRequest::top_k(5, Semantics::Elca).with_algorithm(QueryAlgorithm::TopKJoin),
        QueryRequest::top_k(10, Semantics::Elca),
        QueryRequest::complete(Semantics::Slca)
            .unranked()
            .with_algorithm(QueryAlgorithm::StackBased),
    ];
    let on_disk = [
        QueryRequest::complete(Semantics::Elca).with_algorithm(QueryAlgorithm::JoinBased),
        QueryRequest::top_k(5, Semantics::Slca).with_algorithm(QueryAlgorithm::JoinBased),
    ];
    let mut total = MetricsSnapshot::default();
    for q in queries {
        for req in &in_memory {
            total.merge(&engine.run(q, req).metrics);
        }
        for req in &on_disk {
            let resp = disk.execute(q, req).expect("disk execute");
            let m = &resp.metrics;
            assert_eq!(m.get("store.decodes"), m.get("store.cache_misses"), "decode/miss invariant");
            total.merge(m);
        }
    }
    total
}

/// The unified metrics of a fixed request matrix, in memory and on disk.
/// Every counter is a logical count; under serial execution the `pool.*`
/// counters stay zero.
#[test]
fn metrics() {
    let engine = Engine::from_index(metrics_corpus());
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(engine.index(), opts).expect("write index");
    let words: [&[&str]; 4] =
        [&["hi0", "low0"], &["hi0", "pair1"], &["mid0", "mid1"], &["hi0", "hi1", "mid0"]];
    let queries: Vec<Query> = words
        .iter()
        .map(|w| Query::from_words(engine.index(), w).expect("planted term resolves"))
        .collect();
    let run = || {
        let store = cold_store(&image).expect("open store");
        metrics_matrix(&engine, &DiskEngine::new(engine.index(), &store), &queries)
    };
    let total = run();
    assert_eq!(total, run(), "two cold runs of the matrix must count the same");
    check_golden("BENCH_metrics.json", &total.to_json());
}

/// The EXPLAIN corpus: conference names at level 3, titles and authors at
/// level 5, so the rewrite rules have level ranges to prune and a
/// scarce/frequent asymmetry to push probes into.
fn explain_corpus() -> String {
    let mut xml = String::from("<dblp>");
    for i in 0..60 {
        let _ = write!(
            xml,
            "<conf><name>venue{} series</name><session><paper>\
             <title>xml keyword topic{} search</title><author>author{}</author>\
             </paper><paper><title>top k join rare{}</title></paper>\
             </session></conf>",
            i % 5,
            i % 7,
            i % 13,
            i % 29
        );
    }
    xml.push_str("</dblp>");
    xml
}

/// EXPLAIN reports: a grid covering every stage of the rule pipeline
/// (strawman, pruned, full), both top-K strategies, noop elimination and a
/// knob-heavy line, on every target; executed annotations; plan-cache
/// provenance.
#[test]
fn explain_snapshot() {
    const QUERIES: [&str; 7] = [
        "series xml",
        "series xml rules=none",
        "series xml rules=prune",
        "xml search k=3",
        "xml search k=3 alg=topk sem=slca",
        "xml search k=100000",
        "top join k=2 threshold=classic scores=unranked",
    ];
    let targets = [
        ("memory", ExplainTarget::Memory),
        ("disk", ExplainTarget::Disk),
        ("sharded", ExplainTarget::Sharded { shards: 4, ta_prune: true }),
    ];
    let engine = Engine::from_xml(&explain_corpus()).expect("corpus parses");
    let ix = engine.index();
    let base = QueryRequest::default();
    let compiled =
        |text: &str| compile(ix, text, &base).unwrap_or_else(|e| panic!("{}", e.render(text)));
    let mut snap = format!("EXPLAIN snapshot v2 ({BLESS})\n");
    for (tname, target) in targets {
        for text in QUERIES {
            let (q, req) = compiled(text);
            let report = explain(ix, &q, &req, target);
            let _ = write!(snap, "\n#### target={tname} query={text:?}\n{report}");
        }
    }

    // Executed annotations: each query runs with event tracing on, and the
    // one explain tree is rendered with per-node actuals and per-store
    // delta lines.  Sharded fan-out may only add `io: shard=N` lines,
    // never a second tree.
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(ix, opts).expect("write index");
    let shard_dir = TempPath::new("xtk_goldens_explain_shards");
    write_sharded(ix, &shard_dir, 4).expect("write sharded corpus");
    for text in ["series xml", "xml search k=3"] {
        let (q, req) = compiled(text);
        let req = req.with_trace(xtk_core::TraceLevel::Events);
        for (tname, target) in targets {
            let (report, resp) = match target {
                ExplainTarget::Memory => (explain(ix, &q, &req, target), engine.run(&q, &req)),
                ExplainTarget::Disk => {
                    let store = cold_store(&image).expect("open store");
                    let disk = DiskEngine::new(ix, &store);
                    (explain(ix, &q, &req, target), disk.execute(&q, &req).expect("disk execute"))
                }
                ExplainTarget::Sharded { .. } => {
                    let sharded = ShardedEngine::open(ix, &shard_dir).expect("open shards");
                    let report = sharded.explain_plan(&q, &req);
                    (report, sharded.execute(&q, &req).expect("sharded execute"))
                }
            };
            let trace = resp.trace.expect("trace requested");
            let _ = write!(
                snap,
                "\n#### executed target={tname} query={text:?}\n{}",
                annotate_executed(ix, &report, &trace)
            );
        }
    }

    // Plan-cache provenance: the report flips from cold to cached after
    // the request's first execution.
    let text = "series xml";
    let (q, req) = compiled(text);
    let source = || {
        let report = engine.explain_plan(&q, &req).to_string();
        let line = report.lines().find(|l| l.starts_with("source: "));
        line.expect("explain reports provenance").to_string()
    };
    let _ = write!(snap, "\n#### plan-cache provenance query={text:?}\n");
    let _ = writeln!(snap, "before first run: {}", source());
    engine.run(&q, &req);
    let _ = writeln!(snap, "after first run: {}", source());
    check_golden("BENCH_explain.snap", &snap);
}
