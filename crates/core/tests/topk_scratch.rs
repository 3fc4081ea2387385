//! The top-K stream's per-thread scratch keeps no state between queries:
//! a seeded sequence of top-K requests run one after another on one
//! thread — with a stream paged while a second one runs, and streams
//! dropped in the middle of a column — answers every request exactly as
//! the same request run alone on a fresh thread does: nodes, levels,
//! score bits, `TopKStats`, the `starjoin.*` counters and the event trace.
//! The batch executor's workers reuse their scratch across a batch, so the
//! same sequence goes through it at one and at two workers.

use xtk_core::topk::{topk_search_obs, ThresholdKind, TopKOptions, TopKStats, TopKStream};
use xtk_core::{
    BatchExecutor, BatchItem, BatchOptions, Engine, Parallelism, Query, QueryAlgorithm,
    QueryRequest, QueryResponse, Semantics, TraceLevel,
};
use xtk_index::XmlIndex;
use xtk_obs::Obs;
use xtk_xml::testutil::Rng;

const WORDS: [&str; 6] = ["foo", "bar", "baz", "qux", "zap", "pad"];

/// Papers holding the six words at four depths, in shapes that complete
/// at different levels; enough rows for several refills per column and a
/// bucket table that has to grow.
fn corpus() -> Engine {
    let mut xml = String::from("<r>");
    for i in 0..900 {
        let w = |j: usize| WORDS[(i * 7 + j * 5) % WORDS.len()];
        xml.push_str(&match i % 5 {
            0 => format!("<p>{} {}</p>", w(0), w(1)),
            1 => format!("<p>{}<q>{} {}</q></p>", w(0), w(1), w(2)),
            2 => format!("<p><q>{}</q><q>{} {}</q>{}</p>", w(0), w(1), w(3), w(2)),
            3 => format!("<p><q><s>{} {} {}</s></q>{}</p>", w(2), w(3), w(4), w(0)),
            _ => format!("<p>{} {} {} {} {}</p>", w(0), w(1), w(2), w(3), w(4)),
        });
    }
    xml.push_str("</r>");
    Engine::from_index(XmlIndex::build(xtk_xml::parse(&xml).unwrap()))
}

/// Everything observable about one top-K run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(node, level, score bits)` in emission order.
    results: Vec<(u32, u16, u32)>,
    stats: TopKStats,
    /// `starjoin.{inserts,duplicates,completions}`.
    starjoin: [u64; 3],
    trace: String,
}

fn outcome(results: Vec<xtk_core::ScoredResult>, stats: TopKStats, obs: &Obs) -> Outcome {
    Outcome {
        results: results.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect(),
        stats,
        starjoin: ["inserts", "duplicates", "completions"]
            .map(|c| obs.metrics.value(&format!("starjoin.{c}"))),
        trace: obs.tracer.finish().expect("tracing is on").to_json_lines(),
    }
}

/// One request through `topk_search_obs`, on the calling thread.
fn run(ix: &XmlIndex, q: &Query, opts: &TopKOptions) -> Outcome {
    let obs = Obs::for_level(TraceLevel::Events);
    let (results, stats) = topk_search_obs(ix, q, opts, &obs);
    outcome(results, stats, &obs)
}

/// `f` on a thread of its own, whose scratch nothing has used.
fn alone<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// One stream paged: `first` results, then `during()`, then `then` more.
fn paged(
    ix: &XmlIndex,
    q: &Query,
    opts: &TopKOptions,
    (first, then): (usize, usize),
    during: impl FnOnce(),
) -> Outcome {
    let obs = Obs::for_level(TraceLevel::Events);
    let mut stream = TopKStream::new_obs(ix, q, opts, obs.clone());
    let mut results: Vec<_> = stream.by_ref().take(first).collect();
    during();
    results.extend(stream.by_ref().take(then));
    let stats = stream.stats();
    drop(stream);
    outcome(results, stats, &obs)
}

/// The seeded request sequence: 2–5 keywords, both semantics, both
/// thresholds, k from {0, 1, 10, 50, count + 1}.
fn requests(e: &Engine, seed: u64, n: usize) -> Vec<(Query, TopKOptions)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut words = WORDS.to_vec();
            let keep = rng.gen_range(2..6usize);
            while words.len() > keep {
                words.remove(rng.gen_range(0..words.len()));
            }
            let q = e.query(&words.join(" ")).unwrap();
            let semantics = if rng.gen_bool(0.5) { Semantics::Elca } else { Semantics::Slca };
            let threshold =
                if rng.gen_bool(0.5) { ThresholdKind::Tight } else { ThresholdKind::Classic };
            let all = TopKOptions { k: usize::MAX, semantics, threshold };
            let count = TopKStream::new(e.index(), &q, &all).count();
            let k = [0, 1, 10, 50, count + 1][rng.gen_range(0..5usize)];
            (q, TopKOptions { k, semantics, threshold })
        })
        .collect()
}

#[test]
fn a_reused_scratch_answers_as_a_fresh_thread() {
    let e = corpus();
    let ix = e.index();
    let reqs = requests(&e, 0x5C7A, 40);
    let mut dropped_mid_column = 0;
    for (i, (q, opts)) in reqs.iter().enumerate() {
        let what = format!("request {i}: {} keywords, {opts:?}", q.terms.len());
        match i % 4 {
            // Paged, with the next request run while the stream is alive:
            // that one takes a fresh scratch, the paged one keeps its own.
            1 => {
                let (other_q, other_opts) = &reqs[(i + 1) % reqs.len()];
                let mut other = None;
                let got = paged(ix, q, opts, (3, 7), || other = Some(run(ix, other_q, other_opts)));
                assert_eq!(got, alone(|| paged(ix, q, opts, (3, 7), || ())), "{what}, paged");
                let want = alone(|| run(ix, other_q, other_opts));
                assert_eq!(other.unwrap(), want, "{what}, run while another was paged");
            }
            // Dropped after its first result, before its column ends: the
            // next query takes over whatever the stream left in the scratch.
            3 => {
                let mut stream = TopKStream::new(ix, q, &TopKOptions { k: 50, ..*opts });
                if stream.next().is_some() && stream.stats().emitted_early > 0 {
                    dropped_mid_column += 1;
                }
                drop(stream);
                assert_eq!(run(ix, q, opts), alone(|| run(ix, q, opts)), "{what}, after a drop");
            }
            _ => assert_eq!(run(ix, q, opts), alone(|| run(ix, q, opts)), "{what}"),
        }
    }
    assert!(dropped_mid_column > 0, "no stream was dropped in the middle of a column");
}

/// The response fields a batch must reproduce: result bits, every
/// counter, the trace.
fn response_bits(r: &QueryResponse) -> (Vec<(u32, u16, u32)>, xtk_core::MetricsSnapshot, String) {
    let results = r.results.iter().map(|r| (r.node.0, r.level, r.score.to_bits())).collect();
    let trace = r.trace.as_ref().map(|t| t.to_json_lines()).unwrap_or_default();
    (results, r.metrics.clone(), trace)
}

#[test]
fn batch_workers_reusing_their_scratch_answer_as_fresh_threads() {
    let e = corpus();
    let items: Vec<BatchItem> = requests(&e, 0x5C7B, 30)
        .into_iter()
        .map(|(q, o)| {
            let req = QueryRequest::top_k(o.k, o.semantics)
                .with_algorithm(QueryAlgorithm::TopKJoin)
                .with_threshold(o.threshold)
                .with_trace(TraceLevel::Events);
            BatchItem::new(q, req)
        })
        .collect();
    let want: Vec<_> = items
        .iter()
        .map(|it| alone(|| response_bits(&e.run(&it.query, &it.request))))
        .collect();
    for workers in [1, 2] {
        let opts = BatchOptions { parallelism: Parallelism::Fixed(workers), ..Default::default() };
        // No result cache: every round executes every distinct request.
        let batch = BatchExecutor::with_options(&e, opts).with_result_capacity(0);
        // Twice: the second batch starts on scratch the first one left.
        for round in 0..2 {
            let report = batch.run(&items).unwrap();
            for (i, (got, want)) in report.responses.iter().zip(&want).enumerate() {
                assert_eq!(&response_bits(got), want, "{workers} workers, round {round}, item {i}");
            }
        }
    }
}
