//! Regenerates every table and figure of the paper's evaluation (§V).
//!
//! ```text
//! experiments <command> [scale=small|paper] [queries=N] [reps=N] [k=10]
//!
//! commands:
//!   stats    corpus statistics (paper §V preamble)
//!   table1   index sizes of the five physical designs (Table I)
//!   fig9     complete-set time vs low frequency, k = 2..5 (Fig. 9 a-d)
//!   fig9eq   complete-set time, equal frequencies (Fig. 9 e-f)
//!   fig10a   top-10 time vs low frequency, random queries (Fig. 10 a)
//!   fig10bc  top-10 time, correlated queries (Fig. 10 b-c)
//!   ablation join-lookup / threshold / hybrid / scoring ablations (§III-C, §IV-B, §V-D)
//!   depth    deep-tree extension: bottom-up start level savings (§III-B)
//!   maintenance  JDewey insertion cost vs reservation gap (§III-A)
//!   all      everything above
//! ```
//!
//! Methodology mirrors the paper: per query, one warm-up then the median
//! of `reps` hot-cache runs; reported numbers are means over the query
//! set.  Run with `--release`.

use std::time::Duration;
use xtk_baselines::baseline::indexed::{indexed_search, IndexedOptions};
use xtk_baselines::baseline::rdil::{rdil_search, RdilOptions};
use xtk_baselines::BaselineIndex;
use xtk_bench::*;
use xtk_core::baseline::stack::{stack_search, StackOptions};
use xtk_core::hybrid::hybrid_topk;
use xtk_core::joinbased::{join_search, JoinOptions};
use xtk_core::query::{Query, Semantics};
use xtk_core::result::sort_ranked;
use xtk_core::topk::{topk_search, ThresholdKind, TopKOptions};
use xtk_index::sizes;
use xtk_index::XmlIndex;
use xtk_xml::stats::TreeStats;

struct Opts {
    scale: Scale,
    queries: usize,
    reps: usize,
    k: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let mut opts = Opts { scale: Scale::Small, queries: QUERIES_PER_POINT, reps: REPS, k: 10 };
    for a in &args[1.min(args.len())..] {
        if let Some((key, value)) = a.split_once('=') {
            match key.trim_start_matches('-') {
                "scale" => opts.scale = Scale::parse(value).expect("scale=small|paper"),
                "queries" => opts.queries = value.parse().expect("queries=N"),
                "reps" => opts.reps = value.parse().expect("reps=N"),
                "k" => opts.k = value.parse().expect("k=N"),
                other => panic!("unknown flag {other}"),
            }
        }
    }
    match command {
        "stats" => stats(&opts),
        "table1" => table1(&opts),
        "fig9" => fig9(&opts),
        "fig9eq" => fig9eq(&opts),
        "fig10a" => fig10a(&opts),
        "fig10bc" => fig10bc(&opts),
        "ablation" => ablation(&opts),
        "depth" => depth(&opts),
        "maintenance" => maintenance(&opts),
        "all" => {
            stats(&opts);
            table1(&opts);
            fig9(&opts);
            fig9eq(&opts);
            fig10a(&opts);
            fig10bc(&opts);
            ablation(&opts);
            depth(&opts);
            maintenance(&opts);
        }
        other => {
            eprintln!("unknown command {other:?}; see the doc comment");
            std::process::exit(2);
        }
    }
}

fn queries_of(ix: &XmlIndex, words: &[Vec<String>]) -> Vec<Query> {
    words.iter().map(|w| Query::from_words(ix, w).expect("planted terms resolve")).collect()
}

/// Mean over queries of the median-of-reps time.
fn bench_queries(reps: usize, queries: &[Query], mut f: impl FnMut(&Query)) -> Duration {
    let mut total = Duration::ZERO;
    for q in queries {
        total += time_median(reps, || f(q));
    }
    total / queries.len().max(1) as u32
}

fn stats(o: &Opts) {
    println!("== corpus statistics (scale: {:?}) ==", o.scale);
    for (name, ix) in [("DBLP-like", build_dblp(o.scale)), ("XMark-like", build_xmark(o.scale))] {
        let st = TreeStats::compute(ix.tree());
        println!("--- {name} ---");
        println!("{st}");
        println!("vocabulary: {} terms, {} docs", ix.vocab_size(), ix.doc_count());
        println!(
            "serialized XML: {}",
            sizes::human(
                xtk_xml::writer::write_document(ix.tree(), Default::default()).len() as u64
            )
        );
    }
    println!();
}

fn table1(o: &Opts) {
    println!("== Table I: index sizes ==");
    for (name, ix) in [("DBLP-like", build_dblp(o.scale)), ("XMark-like", build_xmark(o.scale))] {
        println!("--- {name} ---");
        println!("{}", sizes::compute(&ix));
    }
    println!();
}

fn fig9(o: &Opts) {
    let ix = build_dblp(o.scale);
    let bx = BaselineIndex::new(&ix);
    println!("== Fig. 9(a)-(d): complete ELCA, high freq fixed, low freq sweep ==");
    println!(
        "{:<4} {:>8} {:>14} {:>14} {:>14}",
        "k", "low", "join-based", "stack-based", "index-based"
    );
    for k in 2..=5usize {
        for &low in &LOW_FREQS {
            let qs = queries_of(&ix, &point_queries(o.scale, k, low, o.queries));
            let join = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(join_search(&ix, q, &JoinOptions::default()));
            });
            let stack = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(stack_search(&ix, q, &StackOptions::default()));
            });
            let indexed = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(indexed_search(&bx, q, &IndexedOptions::default()));
            });
            println!(
                "{:<4} {:>8} {:>14} {:>14} {:>14}",
                k,
                o.scale.freq(low),
                fmt_duration(join),
                fmt_duration(stack),
                fmt_duration(indexed)
            );
        }
    }
    println!();
}

fn fig9eq(o: &Opts) {
    let ix = build_dblp(o.scale);
    let bx = BaselineIndex::new(&ix);
    println!("== Fig. 9(e)-(f): complete ELCA, equal frequencies ==");
    println!(
        "{:<4} {:>8} {:>14} {:>14} {:>14}",
        "k", "freq", "join-based", "stack-based", "index-based"
    );
    for &freq in &[1_000usize, 10_000] {
        for k in 2..=5usize {
            let qs = queries_of(&ix, &equal_queries(k, freq, o.queries));
            let join = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(join_search(&ix, q, &JoinOptions::default()));
            });
            let stack = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(stack_search(&ix, q, &StackOptions::default()));
            });
            let indexed = bench_queries(o.reps, &qs, |q| {
                std::hint::black_box(indexed_search(&bx, q, &IndexedOptions::default()));
            });
            println!(
                "{:<4} {:>8} {:>14} {:>14} {:>14}",
                k,
                o.scale.freq(freq),
                fmt_duration(join),
                fmt_duration(stack),
                fmt_duration(indexed)
            );
        }
    }
    println!();
}

fn fig10a(o: &Opts) {
    let ix = build_dblp(o.scale);
    let bx = BaselineIndex::new(&ix);
    println!("== Fig. 10(a): top-{} ELCA, random queries, low freq sweep ==", o.k);
    println!("{:<8} {:>14} {:>14} {:>14}", "low", "topk-join", "complete-join", "RDIL");
    for &low in &LOW_FREQS {
        let qs = queries_of(&ix, &point_queries(o.scale, 2, low, o.queries));
        let (tk, complete, rdil) = bench_topk_trio(&bx, &qs, o);
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            o.scale.freq(low),
            fmt_duration(tk),
            fmt_duration(complete),
            fmt_duration(rdil)
        );
    }
    println!();
}

fn bench_topk_trio(bx: &BaselineIndex, qs: &[Query], o: &Opts) -> (Duration, Duration, Duration) {
    let ix = bx.index();
    let tk = bench_queries(o.reps, qs, |q| {
        std::hint::black_box(topk_search(ix, q, &TopKOptions { k: o.k, semantics: Semantics::Elca, ..Default::default() }));
    });
    let complete = bench_queries(o.reps, qs, |q| {
        let (mut rs, _) =
            join_search(ix, q, &JoinOptions { with_scores: true, ..Default::default() });
        sort_ranked(&mut rs);
        rs.truncate(o.k);
        std::hint::black_box(rs);
    });
    let rdil = bench_queries(o.reps, qs, |q| {
        std::hint::black_box(rdil_search(bx, q, &RdilOptions { k: o.k, semantics: Semantics::Elca }));
    });
    (tk, complete, rdil)
}

fn fig10bc(o: &Opts) {
    let ix = build_dblp(o.scale);
    let bx = BaselineIndex::new(&ix);
    println!("== Fig. 10(b)/(c): top-{} ELCA, hand-picked correlated queries ==", o.k);
    println!("{:<28} {:>14} {:>14} {:>14}", "query", "topk-join", "complete-join", "RDIL");
    for (terms, _, _) in correlated_groups() {
        let q = Query::from_words(&ix, &terms).expect("correlated terms planted");
        let qs = vec![q];
        let (tk, complete, rdil) = bench_topk_trio(&bx, &qs, o);
        println!(
            "{:<28} {:>14} {:>14} {:>14}",
            format!("{{{}}}", terms.join(", ")),
            fmt_duration(tk),
            fmt_duration(complete),
            fmt_duration(rdil)
        );
    }
    println!();
}

fn ablation(o: &Opts) {
    let ix = build_dblp(o.scale);
    println!("== Ablations ==");

    // (1) The join step's lookup (§III-C): the merge join's walk and the
    // index join's probe against the engine's window-then-gallop, over the
    // join steps of the k = 3 point workload; mean per query.
    println!("--- join-step lookup (steps of the complete join, k=3) ---");
    println!("{:<8} {:>8} {:>14} {:>14} {:>14}", "low", "steps", "walk", "probe", "window+gallop");
    for &low in &LOW_FREQS {
        let qs = queries_of(&ix, &point_queries(o.scale, 3, low, o.queries.min(20)));
        let steps = join_step_inputs(&ix, &qs);
        let per_query =
            |d: Duration| format!("{:.1}µs", d.as_secs_f64() * 1e6 / qs.len().max(1) as f64);
        let walk = time_median(o.reps, || {
            std::hint::black_box(lookup_hits(&steps, walk_lookup));
        });
        let probe = time_median(o.reps, || {
            std::hint::black_box(lookup_hits(&steps, probe_lookup));
        });
        let adaptive = time_median(o.reps, || {
            std::hint::black_box(lookup_hits(&steps, window_gallop_lookup));
        });
        println!(
            "{:<8} {:>8} {:>14} {:>14} {:>14}",
            o.scale.freq(low),
            steps.len(),
            per_query(walk),
            per_query(probe),
            per_query(adaptive)
        );
    }

    // (2) Hybrid planner vs fixed engines on a mixed workload (§V-D).
    println!("--- hybrid planner (top-{}, mixed workload) ---", o.k);
    let mut mixed = point_queries(o.scale, 2, LOW_FREQS[0], o.queries / 2);
    for (terms, _, _) in correlated_groups().into_iter().take(3) {
        mixed.push(terms.into_iter().map(str::to_string).collect());
    }
    let qs = queries_of(&ix, &mixed);
    let hybrid = bench_queries(o.reps, &qs, |q| {
        std::hint::black_box(hybrid_topk(&ix, q, o.k, Semantics::Elca));
    });
    let always_topk = bench_queries(o.reps, &qs, |q| {
        std::hint::black_box(topk_search(&ix, q, &TopKOptions { k: o.k, semantics: Semantics::Elca, ..Default::default() }));
    });
    let always_complete = bench_queries(o.reps, &qs, |q| {
        let (mut rs, _) =
            join_search(&ix, q, &JoinOptions { with_scores: true, ..Default::default() });
        sort_ranked(&mut rs);
        rs.truncate(o.k);
        std::hint::black_box(rs);
    });
    println!(
        "hybrid {:>14}   always-topk {:>14}   always-complete {:>14}",
        fmt_duration(hybrid),
        fmt_duration(always_topk),
        fmt_duration(always_complete)
    );

    // (3) Star-join threshold: the paper's tight bound vs the classic
    // top-K join bound (§IV-B).
    println!("--- star-join threshold (top-{}, correlated queries) ---", o.k);
    println!("{:<28} {:>14} {:>14} {:>10} {:>10}", "query", "tight", "classic", "early(T)", "early(C)");
    for (terms, _, _) in correlated_groups() {
        let q = Query::from_words(&ix, &terms).expect("planted");
        let opts = |threshold| TopKOptions { k: o.k, semantics: Semantics::Elca, threshold };
        let (tight_opts, classic_opts) = (opts(ThresholdKind::Tight), opts(ThresholdKind::Classic));
        let tight = time_median(o.reps, || {
            std::hint::black_box(topk_search(&ix, &q, &tight_opts));
        });
        let classic = time_median(o.reps, || {
            std::hint::black_box(topk_search(&ix, &q, &classic_opts));
        });
        let (_, st) = topk_search(&ix, &q, &tight_opts);
        let (_, sc) = topk_search(&ix, &q, &classic_opts);
        println!(
            "{:<28} {:>14} {:>14} {:>10} {:>10}",
            format!("{{{}}}", terms.join(", ")),
            fmt_duration(tight),
            fmt_duration(classic),
            st.emitted_early,
            sc.emitted_early
        );
    }

    // (4) Scoring overhead of the complete join (§II-B machinery).
    println!("--- scoring overhead (complete ELCA, k=2) ---");
    let qs = queries_of(&ix, &point_queries(o.scale, 2, LOW_FREQS[2], o.queries.min(20)));
    let unscored = bench_queries(o.reps, &qs, |q| {
        std::hint::black_box(join_search(&ix, q, &JoinOptions::default()));
    });
    let scored = bench_queries(o.reps, &qs, |q| {
        std::hint::black_box(join_search(
            &ix,
            q,
            &JoinOptions { with_scores: true, ..Default::default() },
        ));
    });
    println!("unscored {:>14}   scored {:>14}", fmt_duration(unscored), fmt_duration(scored));
    println!();
}

/// Deep-tree extension experiment (§III-B): with keywords that only meet
/// high in the tree, the join-based algorithm starts at `l_0` and skips the
/// deep columns entirely; the stack-based algorithm still pays the full
/// Dewey depth on every occurrence.  Also reports the on-disk block reads
/// of the disk-resident executor for the same contrast.
fn depth(o: &Opts) {
    use xtk_core::diskexec::join_search_disk;
    use xtk_datagen::treebank::{generate as gen_tb, TreebankConfig};
    use xtk_datagen::PlantedTerm;
    use xtk_index::disk::WriteIndexOptions;

    let (sent, occ) = match o.scale {
        Scale::Paper => (8_000usize, 1_500usize),
        Scale::Small => (400, 80),
    };
    let cfg = TreebankConfig {
        sentences: sent,
        planted_shallow: vec![
            PlantedTerm::new("hia", occ),
            PlantedTerm::new("hib", occ),
        ],
        planted_deep: vec![
            PlantedTerm::new("loa", occ),
            PlantedTerm::new("lob", occ),
        ],
        ..Default::default()
    };
    let corpus = gen_tb(&cfg);
    let depth_max = xtk_xml::stats::TreeStats::compute(&corpus.tree).max_depth;
    let ix = XmlIndex::build(corpus.tree);
    let opts = WriteIndexOptions { include_scores: true, ..Default::default() };
    let image = store_image(&ix, opts).expect("write index image");

    println!("== Depth extension: Treebank-like corpus (max depth {depth_max}) ==");
    println!(
        "{:<22} {:>8} {:>8} {:>14} {:>14} {:>12}",
        "query", "l0", "levels", "join-based", "stack-based", "block reads"
    );
    for (name, words) in [
        ("shallow {hia, hib}", vec!["hia", "hib"]),
        ("deep {loa, lob}", vec!["loa", "lob"]),
        ("mixed {hia, lob}", vec!["hia", "lob"]),
    ] {
        let q = Query::from_words(&ix, &words).unwrap();
        let (_, stats) = join_search(&ix, &q, &JoinOptions::default());
        let join = time_median(o.reps, || {
            std::hint::black_box(join_search(&ix, &q, &JoinOptions::default()));
        });
        let stack = time_median(o.reps, || {
            std::hint::black_box(stack_search(&ix, &q, &StackOptions::default()));
        });
        // Cold block reads: fresh store per query.
        let cold = cold_store(&image).expect("open store image");
        let (_, _, reads) =
            join_search_disk(&ix, &cold, &q, &JoinOptions::default()).expect("disk search");
        println!(
            "{:<22} {:>8} {:>8} {:>14} {:>14} {:>12}",
            name,
            stats.levels, // == l0
            stats.levels,
            fmt_duration(join),
            fmt_duration(stack),
            reads
        );
    }
    println!();
}

/// JDewey maintenance (§III-A): insertion throughput and partial
/// re-encode frequency as a function of the reservation gap.  The paper
/// argues reserved spaces make insertions cheap and re-encodes rare and
/// local; this quantifies the trade-off (bigger gap = more reserved
/// number space, fewer re-encodes).
fn maintenance(o: &Opts) {
    use xtk_datagen::dblp::{generate as gen_dblp, DblpConfig};
    use xtk_xml::maintain::JDeweyMaintainer;

    let inserts = match o.scale {
        Scale::Paper => 50_000usize,
        Scale::Small => 5_000,
    };
    let cfg = DblpConfig {
        conferences: 40,
        years_per_conf: 5,
        papers_per_year: 10,
        ..Default::default()
    };
    println!("== JDewey maintenance: {} paper insertions ==", inserts);
    println!(
        "{:<6} {:>14} {:>12} {:>16} {:>14}",
        "gap", "total time", "re-encodes", "nodes renumbered", "ns/insert"
    );
    for gap in [0u32, 1, 4, 16, 64] {
        let corpus = gen_dblp(&cfg);
        let mut m = JDeweyMaintainer::new(corpus.tree, gap);
        // Insert papers round-robin under every year element.
        let years: Vec<_> = m
            .tree()
            .ids()
            .filter(|&i| m.tree().label(i) == "year")
            .collect();
        let t0 = std::time::Instant::now();
        for i in 0..inserts {
            let year = years[i % years.len()];
            let paper = m.insert_child_auto(year, "paper").expect("insert");
            let title = m.insert_child_auto(paper, "title").expect("insert");
            m.tree_mut().append_text(title, "inserted xml paper");
        }
        let elapsed = t0.elapsed();
        m.assignment().validate(m.tree()).expect("requirements hold");
        println!(
            "{:<6} {:>14} {:>12} {:>16} {:>14}",
            gap,
            fmt_duration(elapsed),
            m.reencode_count,
            m.reencoded_nodes,
            format!("{}", elapsed.as_nanos() / (2 * inserts as u128))
        );
    }
    println!();
}
