#![forbid(unsafe_code)]

//! Shared experiment harness: corpus construction at two scales, the
//! planted query workloads for every figure, and timing utilities.
//!
//! The paper's corpora are DBLP (496 MB) and XMark scale 1 (113 MB); the
//! reproduction generates structurally faithful substitutes whose *control
//! variables* — keyword frequency and keyword correlation — are planted
//! exactly (see DESIGN.md).  Frequencies are scaled with the corpus: at
//! [`Scale::Paper`] the high-frequency keyword covers ~10 % of the papers,
//! the same coverage a 100 k-frequency word has in the real 1 M-paper
//! DBLP.

pub mod harness;

use std::time::{Duration, Instant};
use xtk_core::joinbased::intersect;
use xtk_core::query::Query;
use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
use xtk_datagen::xmark::{generate as gen_xmark, XmarkConfig};
use xtk_datagen::PlantedTerm;
use xtk_index::bytes::ColumnBytes;
use xtk_index::cache::ShardedLruCache;
use xtk_index::columnar::Run;
use xtk_index::disk::{write_index_to, WriteIndexOptions};
use xtk_index::diskcol::DiskColumnStore;
use xtk_index::{IndexOptions, XmlIndex};
use xtk_xml::gallop::{window_gallop_partition_point, window_partition_point};
use xtk_xml::pool::Parallelism;

/// Corpus scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny corpus for unit tests and Criterion micro-runs (~2.5 k papers).
    Small,
    /// The experiment corpus (~250 k papers, frequencies up to 25 k).
    Paper,
}

impl Scale {
    /// Parses `small` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Frequency scaling: Small plants 1/10 of Paper's occurrences (with
    /// a floor so the bands stay distinct).
    pub fn freq(self, paper_freq: usize) -> usize {
        match self {
            Scale::Paper => paper_freq,
            Scale::Small => (paper_freq / 10).max(5),
        }
    }
}

/// The low-frequency sweep of Fig. 9/10 (paper values; scaled via
/// [`Scale::freq`]).
pub const LOW_FREQS: [usize; 4] = [10, 100, 1_000, 10_000];

/// The fixed high frequency (paper: 100 k over ~1 M papers; here 25 k over
/// 250 k papers — the same 10 % coverage).
pub const HIGH_FREQ: usize = 25_000;

/// Planted terms per frequency band, so random queries vary.
pub const TERMS_PER_BAND: usize = 8;

/// Number of random queries per figure point (paper: 40).
pub const QUERIES_PER_POINT: usize = 40;

/// Repetitions per query (paper: 5, hot cache).
pub const REPS: usize = 5;

/// Name of the `i`-th planted term in the band with paper-frequency `f`.
pub fn band_term(f: usize, i: usize) -> String {
    format!("lf{f}x{i}")
}

/// Name of the `i`-th planted high-frequency term.
pub fn high_term(i: usize) -> String {
    format!("hfx{i}")
}

/// The planted correlated query groups of Fig. 10(b)/(c): 2-keyword and
/// 3-keyword hand-picked queries à la `{sensor, network}` /
/// `{xml, keyword, search}`.  `(terms, paper-frequencies, rho)`.
pub fn correlated_groups() -> Vec<(Vec<&'static str>, Vec<usize>, f64)> {
    vec![
        (vec!["sensor", "network"], vec![2_000, 8_000], 0.7),
        (vec!["stream", "window"], vec![1_000, 3_000], 0.8),
        (vec!["cache", "memory"], vec![4_000, 9_000], 0.6),
        (vec!["xml", "keyword", "search"], vec![10_000, 3_000, 8_000], 0.6),
        (vec!["query", "plan", "optimizer"], vec![8_000, 4_000, 2_000], 0.7),
        (vec!["graph", "pattern", "matching"], vec![6_000, 3_000, 2_500], 0.65),
    ]
}

/// Builds the planted-term list for a scale.
fn planted(scale: Scale) -> Vec<PlantedTerm> {
    let mut out = Vec::new();
    for i in 0..4 {
        out.push(PlantedTerm::new(high_term(i), scale.freq(HIGH_FREQ)));
    }
    for &f in &LOW_FREQS {
        for i in 0..TERMS_PER_BAND {
            out.push(PlantedTerm::new(band_term(f, i), scale.freq(f)));
        }
    }
    for (terms, freqs, rho) in correlated_groups() {
        for (j, (&t, &f)) in terms.iter().zip(&freqs).enumerate() {
            if j == 0 {
                out.push(PlantedTerm::new(t, scale.freq(f)));
            } else {
                out.push(PlantedTerm::correlated(t, scale.freq(f), terms[0], rho));
            }
        }
    }
    out
}

/// Builds the DBLP-like experiment corpus.
pub fn build_dblp(scale: Scale) -> XmlIndex {
    build_dblp_with(scale, Parallelism::Serial)
}

/// [`build_dblp`] with an explicit index-build [`Parallelism`] — the
/// parallel-scaling benchmark sweeps this knob; the index is bit-identical
/// for every setting.
pub fn build_dblp_with(scale: Scale, parallelism: Parallelism) -> XmlIndex {
    let cfg = match scale {
        Scale::Paper => DblpConfig {
            conferences: 500,
            years_per_conf: 10,
            papers_per_year: 50,
            title_words: 6,
            authors_per_paper: 1,
            vocab_size: 30_000,
            planted: planted(scale),
            ..Default::default()
        },
        Scale::Small => DblpConfig {
            conferences: 100,
            years_per_conf: 5,
            papers_per_year: 20,
            title_words: 6,
            authors_per_paper: 1,
            vocab_size: 5_000,
            planted: planted(scale),
            ..Default::default()
        },
    };
    XmlIndex::build_with(gen_dblp(&cfg).tree, IndexOptions { parallelism, ..Default::default() })
}

/// The corpus of the `BENCH_*` gate bins, which differ only in size
/// (`query_io` and `plan_bench` run the large one, `serve_bench` and
/// `shard_bench` a smaller one): four high-frequency terms, the Fig. 9
/// bands plus a needle band (f = 4: the most selective index-join regime,
/// where a probe set touches a handful of blocks of a list spanning
/// dozens), and the correlated groups at half frequency.
pub fn gate_corpus(
    high_freq: usize,
    conferences: usize,
    years_per_conf: usize,
    papers_per_year: usize,
    vocab_size: usize,
) -> XmlIndex {
    let mut planted = Vec::new();
    for i in 0..4 {
        planted.push(PlantedTerm::new(high_term(i), high_freq));
    }
    for f in std::iter::once(4).chain(LOW_FREQS) {
        for i in 0..TERMS_PER_BAND {
            planted.push(PlantedTerm::new(band_term(f, i), f));
        }
    }
    for (terms, freqs, rho) in correlated_groups() {
        let mut pairs = terms.iter().zip(&freqs);
        if let Some((&lead, &f)) = pairs.next() {
            planted.push(PlantedTerm::new(lead, f / 2));
            for (&t, &f) in pairs {
                planted.push(PlantedTerm::correlated(t, f / 2, lead, rho));
            }
        }
    }
    let cfg = DblpConfig {
        conferences,
        years_per_conf,
        papers_per_year,
        title_words: 6,
        authors_per_paper: 1,
        vocab_size,
        planted,
        ..Default::default()
    };
    XmlIndex::build(gen_dblp(&cfg).tree)
}

/// Builds the XMark-like experiment corpus.
pub fn build_xmark(scale: Scale) -> XmlIndex {
    build_xmark_with(scale, Parallelism::Serial)
}

/// [`build_xmark`] with an explicit index-build [`Parallelism`].
pub fn build_xmark_with(scale: Scale, parallelism: Parallelism) -> XmlIndex {
    let cfg = match scale {
        Scale::Paper => XmarkConfig {
            items_per_region: 25_000,
            people: 30_000,
            open_auctions: 15_000,
            closed_auctions: 10_000,
            description_words: 8,
            vocab_size: 30_000,
            planted: planted_xmark(scale),
            ..Default::default()
        },
        Scale::Small => XmarkConfig {
            items_per_region: 500,
            people: 400,
            open_auctions: 200,
            closed_auctions: 150,
            description_words: 8,
            vocab_size: 5_000,
            planted: planted_xmark(scale),
            ..Default::default()
        },
    };
    XmlIndex::build_with(gen_xmark(&cfg).tree, IndexOptions { parallelism, ..Default::default() })
}

/// XMark plants a reduced band set (its item population is smaller).
fn planted_xmark(scale: Scale) -> Vec<PlantedTerm> {
    let cap = match scale {
        Scale::Paper => 100_000,
        Scale::Small => 2_000,
    };
    let mut out = Vec::new();
    for i in 0..2 {
        out.push(PlantedTerm::new(high_term(i), scale.freq(HIGH_FREQ).min(cap / 4)));
    }
    for &f in &LOW_FREQS {
        for i in 0..TERMS_PER_BAND.min(4) {
            out.push(PlantedTerm::new(band_term(f, i), scale.freq(f).min(cap / 10)));
        }
    }
    out
}

/// Bounds of [`time_median`]'s warm-up: calls repeat until this many are
/// made or this much time has gone.
const WARM_UP_CALLS: usize = 32;
const WARM_UP_TIME: Duration = Duration::from_millis(50);

/// Median wall time of `reps` runs of `f` after a warm-up (hot-cache
/// methodology, as in the paper).
///
/// One warm-up call is not enough for a short `f` right after an index
/// build: the allocator gives the heap the build freed back to the system
/// over the next several calls, each of which then faults its pages in
/// again — milliseconds on a query of microseconds, in no steady order a
/// ratio between consecutive calls could tell from the settled state.  So
/// the warm-up is by budget; an `f` of 50 ms or more still gets one call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    let warm_up = Instant::now();
    for _ in 0..WARM_UP_CALLS {
        f();
        if warm_up.elapsed() >= WARM_UP_TIME {
            break;
        }
    }
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Formats a duration in the paper's style (ms with 2 decimals or s).
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1e3)
    } else {
        format!("{ms:.2}ms")
    }
}

/// A query workload for one figure point: `count` queries of `k` words —
/// one high-frequency term + `k-1` distinct terms from the `low` band.
pub fn point_queries(scale: Scale, k: usize, low: usize, count: usize) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for i in 0..count {
        let mut q = vec![high_term(i % 4)];
        for j in 0..k - 1 {
            q.push(band_term(low, (i + j) % TERMS_PER_BAND));
        }
        let _ = scale;
        out.push(q);
    }
    out
}

/// Equal-frequency workload for Fig. 9(e)/(f): all `k` keywords from the
/// same band.
pub fn equal_queries(k: usize, freq: usize, count: usize) -> Vec<Vec<String>> {
    assert!(k <= TERMS_PER_BAND);
    let mut out = Vec::new();
    for i in 0..count {
        let q: Vec<String> = (0..k).map(|j| band_term(freq, (i + j) % TERMS_PER_BAND)).collect();
        let mut dedup = q.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() == k {
            out.push(q);
        }
    }
    out
}

/// `ix` written to an in-memory file image that any number of stores can
/// share: the bins' disk legs touch no filesystem.
pub fn store_image(ix: &XmlIndex, options: WriteIndexOptions) -> std::io::Result<ColumnBytes> {
    let mut image = Vec::new();
    write_index_to(ix, &mut image, options)?;
    Ok(ColumnBytes::from(std::sync::Arc::<[u8]>::from(image)))
}

/// A cold store over `image`: its own empty, unbounded block cache.
pub fn cold_store(image: &ColumnBytes) -> std::io::Result<DiskColumnStore> {
    DiskColumnStore::open_bytes(image.clone(), std::sync::Arc::new(ShardedLruCache::unbounded()))
}

/// The `(probe values, column)` pair of every join step Algorithm 1 runs
/// for `queries`: per level from `l_0` up, left-deep from the smallest
/// column, each step probing with the values that survived the last.
/// The inputs of the lookup ablation that replaced the §III-C join-plan
/// ablation.
pub fn join_step_inputs<'a>(ix: &'a XmlIndex, queries: &[Query]) -> Vec<(Vec<u32>, &'a [Run])> {
    let mut steps = Vec::new();
    for q in queries {
        let terms: Vec<_> = q.terms.iter().map(|&t| ix.term(t)).collect();
        let l0 = terms.iter().map(|t| t.max_len()).min().unwrap_or(0);
        for level in (0..usize::from(l0)).rev() {
            let mut cols: Vec<&[Run]> = terms
                .iter()
                .map(|t| t.columns.get(level).map(|c| c.runs.as_slice()).unwrap_or_default())
                .collect();
            cols.sort_by_key(|c| c.len());
            let Some((driver, rest)) = cols.split_first() else { continue };
            let mut probes: Vec<u32> = driver.iter().map(|r| r.value).collect();
            for &col in rest {
                if probes.is_empty() {
                    break;
                }
                let survivors = intersect(&probes, col);
                steps.push((std::mem::replace(&mut probes, survivors), col));
            }
        }
    }
    steps
}

/// Runs `steps` through `lower_bound(runs, from, v)` — the first run at or
/// after `from` of value `v` or more — and counts the probes their columns
/// hold.  Pass one of the `*_lookup` functions by name, so each call site
/// compiles its own loop around the lookup.
pub fn lookup_hits(
    steps: &[(Vec<u32>, &[Run])],
    lower_bound: impl Fn(&[Run], usize, u32) -> usize,
) -> usize {
    let mut hits = 0;
    for (probes, runs) in steps {
        let mut at = 0;
        for &v in probes {
            at = lower_bound(runs, at, v);
            hits += usize::from(runs.get(at).is_some_and(|r| r.value == v));
        }
    }
    hits
}

/// The merge join's lookup: walk forward window by window.
pub fn walk_lookup(runs: &[Run], from: usize, v: u32) -> usize {
    window_partition_point(runs, from, |r| r.value < v)
}

/// The index join's lookup: binary-search the whole column per probe.
pub fn probe_lookup(runs: &[Run], _from: usize, v: u32) -> usize {
    runs.partition_point(|r| r.value < v)
}

/// The engine's lookup: one opening window, then a gallop.
pub fn window_gallop_lookup(runs: &[Run], from: usize, v: u32) -> usize {
    window_gallop_partition_point(runs, from, |r| r.value < v)
}

/// FNV-1a over a stream of `u32` words: the gate bins fingerprint result
/// streams (order, nodes, levels, score bits) and decoded runs with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fingerprint(0xcbf29ce484222325)
    }

    /// Folds one word in, little-endian byte by byte.
    pub fn push(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// `"key": number` extraction from a flat `BENCH_*` baseline JSON — enough
/// for a std-only check (keys are unique in the file by construction).
pub fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json.get(at..)?.trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest.get(..end)?.parse().ok()
}

/// A repeat-skewed serving schedule: `total` arrival indices into a set
/// of `distinct` requests, where ~80 % of arrivals land on the hottest
/// ~20 % of requests — the Zipf-like repeat skew of a real serving mix,
/// which is what makes a result cache worth having.  Deterministic in
/// `seed`.
pub fn skewed_schedule(distinct: usize, total: usize, seed: u64) -> Vec<usize> {
    assert!(distinct > 0, "schedule needs at least one distinct request");
    let mut rng = xtk_xml::testutil::Rng::seed_from_u64(seed);
    let hot = distinct.div_ceil(5);
    (0..total)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..distinct)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtk_core::query::Query;

    #[test]
    fn time_median_warms_up_past_slow_first_calls() {
        // The shape `experiments` meets after an index build: a few slow
        // calls, then the steady state.
        let pause = Duration::from_millis(1);
        let mut calls = 0usize;
        let median = time_median(5, || {
            calls += 1;
            if calls <= 4 {
                std::thread::sleep(pause);
            }
        });
        assert_eq!(calls, WARM_UP_CALLS + 5);
        assert!(median < pause, "the median still holds a slow first call: {median:?}");
        // A long call is warmed up once, as it always was.
        let mut calls = 0usize;
        time_median(3, || {
            calls += 1;
            std::thread::sleep(WARM_UP_TIME);
        });
        assert_eq!(calls, 1 + 3);
    }

    #[test]
    fn skewed_schedule_is_deterministic_bounded_and_skewed() {
        let a = skewed_schedule(30, 240, 7);
        let b = skewed_schedule(30, 240, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, skewed_schedule(30, 240, 8), "seed matters");
        assert_eq!(a.len(), 240);
        assert!(a.iter().all(|&i| i < 30));
        // ~80 % of arrivals land on the hot fifth (6 of 30): the uniform
        // 20 % adds 1/5 · 1/5 more, so expect ~84 %; require a loose 60 %.
        let hot = a.iter().filter(|&&i| i < 6).count();
        assert!(hot * 10 >= a.len() * 6, "hot share too low: {hot}/240");
        // Every distinct request should still appear somewhere.
        let mut seen: Vec<bool> = vec![false; 30];
        for &i in &a {
            if let Some(s) = seen.get_mut(i) {
                *s = true;
            }
        }
        // 48 uniform draws over 30 slots cover ~80 % of the cold tail in
        // expectation; require a loose two-thirds overall.
        assert!(seen.iter().filter(|&&s| s).count() >= 20, "tail starved");
    }

    #[test]
    fn small_corpus_has_planted_terms_at_expected_frequencies() {
        let ix = build_dblp(Scale::Small);
        let hf = ix.term_by_str(&high_term(0)).unwrap();
        assert_eq!(hf.len(), Scale::Small.freq(HIGH_FREQ));
        for &f in &LOW_FREQS {
            let t = ix.term_by_str(&band_term(f, 0)).unwrap();
            assert_eq!(t.len(), Scale::Small.freq(f), "band {f}");
        }
        // Correlated groups resolvable as queries.
        for (terms, _, _) in correlated_groups() {
            assert!(Query::from_words(&ix, &terms).is_ok(), "{terms:?}");
        }
    }

    #[test]
    fn workloads_resolve_against_small_corpus() {
        let ix = build_dblp(Scale::Small);
        for k in 2..=5 {
            for &low in &LOW_FREQS {
                for q in point_queries(Scale::Small, k, low, 6) {
                    assert!(Query::from_words(&ix, &q).is_ok(), "{q:?}");
                }
            }
        }
        for q in equal_queries(3, 1000, 6) {
            assert!(Query::from_words(&ix, &q).is_ok(), "{q:?}");
        }
    }

    #[test]
    fn the_three_lookups_find_the_join_steps_survivors() {
        let ix = build_dblp(Scale::Small);
        let words = point_queries(Scale::Small, 3, LOW_FREQS[2], 4);
        let queries: Vec<Query> =
            words.iter().map(|w| Query::from_words(&ix, w).unwrap()).collect();
        let steps = join_step_inputs(&ix, &queries);
        assert!(steps.len() >= 2 * queries.len(), "two steps at least at the root level");
        for step in &steps {
            let want = intersect(&step.0, step.1).len();
            let step = std::slice::from_ref(step);
            assert_eq!(lookup_hits(step, walk_lookup), want);
            assert_eq!(lookup_hits(step, probe_lookup), want);
            assert_eq!(lookup_hits(step, window_gallop_lookup), want);
        }
    }

    #[test]
    fn xmark_corpus_builds() {
        let ix = build_xmark(Scale::Small);
        assert!(ix.vocab_size() > 100);
        assert!(ix.term_by_str(&high_term(0)).is_some());
    }

    #[test]
    fn timing_helpers() {
        let d = time_median(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_millis(50));
        assert!(fmt_duration(Duration::from_micros(1500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
