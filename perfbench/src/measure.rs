//! Replaying an op list: one closed-loop client, whole passes.
//!
//! An op is one request string: parsed, bound and executed inside its
//! timing window.  On `serve_shard4` an op is one arrival and its
//! latency is the wall time of the batch it was submitted in.

use crate::ops::OpList;
use crate::setup::{Backend, Loaded};
use crate::spans::Recorder;
use std::time::Instant;
use xtk_core::{BatchItem, MetricsSnapshot, QueryRequest, QueryResponse};
use xtk_obs::EventKind;

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` % of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    if mean > 0.0 {
        var.sqrt() / mean
    } else {
        0.0
    }
}

/// Executes one request string directly on the workload's engine (no
/// batching) — the verification path.
pub fn execute_text(loaded: &Loaded<'_>, text: &str) -> Result<QueryResponse, String> {
    let (query, req) = xtk_core::plan::compile(loaded.ix, text, &QueryRequest::default())
        .map_err(|e| e.to_string())?;
    loaded
        .executor()
        .execute(&query, &req)
        .map_err(|e| e.to_string())
}

/// What one pass observed.
pub struct Pass {
    pub wall_ns: u64,
    /// Latency of each op, in schedule order.
    pub op_ns: Vec<u64>,
    /// Batch-layer counters summed over the pass (`serve_shard4` only).
    pub batch_metrics: MetricsSnapshot,
}

/// One untraced pass.  `on_response(slot, outcome)` runs after the op's
/// timing window has closed.
pub fn run_pass(
    loaded: &Loaded<'_>,
    ops: &OpList,
    mut on_response: impl FnMut(usize, Result<&QueryResponse, &str>),
) -> Pass {
    let base = QueryRequest::default();
    let mut op_ns = vec![0u64; ops.schedule.len()];
    let mut batch_metrics = MetricsSnapshot::default();
    let start = Instant::now();
    match &loaded.backend {
        Backend::Sharded { batch, .. } => {
            for (b, chunk) in ops.schedule.chunks(ops.batch).enumerate() {
                let first = b * ops.batch;
                let t0 = Instant::now();
                let outcome = chunk
                    .iter()
                    .map(|&ti| {
                        xtk_core::plan::compile(loaded.ix, &ops.texts[ti], &base)
                            .map(|(query, request)| BatchItem::new(query, request))
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .and_then(|items| batch.run(&items).map_err(|e| e.to_string()));
                let ns = t0.elapsed().as_nanos() as u64;
                op_ns[first..first + chunk.len()].fill(ns);
                match &outcome {
                    Ok(report) => {
                        batch_metrics.merge(&report.metrics);
                        for (i, response) in report.responses.iter().enumerate() {
                            on_response(first + i, Ok(response));
                        }
                    }
                    Err(e) => (first..first + chunk.len()).for_each(|s| on_response(s, Err(e))),
                }
            }
        }
        _ => {
            let exec = loaded.executor();
            for (slot, &ti) in ops.schedule.iter().enumerate() {
                let t0 = Instant::now();
                let outcome = xtk_core::plan::compile(loaded.ix, &ops.texts[ti], &base)
                    .map_err(|e| e.to_string())
                    .and_then(|(q, r)| exec.execute(&q, &r).map_err(|e| e.to_string()));
                op_ns[slot] = t0.elapsed().as_nanos() as u64;
                on_response(slot, outcome.as_ref().map_err(String::as_str));
            }
        }
    }
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        op_ns,
        batch_metrics,
    }
}

/// Work counts of the executions a traced pass observed.
#[derive(Default)]
pub struct Counters {
    /// Sum of the `MetricsSnapshot` of every *executed* response (answers
    /// replayed from the result cache or deduplicated carry the counts of
    /// the execution that produced them and are not added again).
    pub exec: MetricsSnapshot,
    /// Sum of every `BatchReport`'s metrics.
    pub batch: MetricsSnapshot,
    /// Batches submitted.
    pub batches: u64,
    /// Ops replayed.
    pub ops: u64,
    /// Results returned by the responses the star join produced.
    pub topk_results: u64,
}

impl Counters {
    fn add_executed(&mut self, response: &QueryResponse) {
        self.exec.merge(&response.metrics);
        if response.engine == xtk_core::ExecutedEngine::TopKJoin {
            self.topk_results += response.results.len() as u64;
        }
    }
}

fn counter_list(m: &MetricsSnapshot) -> Vec<(String, u64)> {
    m.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The bind step of `plan::bind::compile`, on an already parsed query —
/// so a traced request can time parsing and binding separately.
fn bind(
    loaded: &Loaded<'_>,
    parsed: &xtk_core::ParsedQuery,
    base: &QueryRequest,
) -> Result<(xtk_core::Query, QueryRequest), String> {
    let mut terms = Vec::with_capacity(parsed.keywords.len());
    for word in &parsed.keywords {
        terms.push(
            loaded
                .ix
                .term_id(word)
                .ok_or_else(|| format!("unknown keyword {word}"))?,
        );
    }
    Ok((xtk_core::Query { terms }, parsed.request_over(base)))
}

/// One traced pass: the same requests, with a span around every public
/// call and the response's counters attached to its `exec` span.
/// Returns the pass wall time.
pub fn run_traced_pass(
    loaded: &Loaded<'_>,
    ops: &OpList,
    rec: &mut Recorder,
    counters: &mut Counters,
    next_request: &mut u32,
) -> Result<u64, String> {
    let base = QueryRequest::default();
    let exec = loaded.executor();
    let plans = loaded.planner();
    let (generation, salt) = (exec.generation(), exec.topology_salt());
    let start = Instant::now();
    match &loaded.backend {
        Backend::Sharded { batch, .. } => {
            let mut items: Vec<BatchItem> = Vec::with_capacity(ops.batch);
            for chunk in ops.schedule.chunks(ops.batch) {
                items.clear();
                let mut t = rec.now();
                let batch_span = rec.open(0, 0, "batch", t);
                for &ti in chunk {
                    *next_request += 1;
                    let request_span = rec.open(batch_span, *next_request, "request", t);
                    let parsed =
                        xtk_core::plan::parse(&ops.texts[ti]).map_err(|e| e.to_string())?;
                    let t1 = rec.now();
                    let (query, request) = bind(loaded, &parsed, &base)?;
                    let t2 = rec.now();
                    rec.push(request_span, *next_request, "plan.parse", t, t1);
                    rec.push(request_span, *next_request, "plan.bind", t1, t2);
                    rec.close(request_span, t2);
                    items.push(BatchItem::new(query, request));
                    t = t2;
                }
                let report = batch.run(&items).map_err(|e| e.to_string())?;
                let end = rec.now();
                let exec_span = rec.push(batch_span, 0, "exec", t, end);
                rec.attach(exec_span, counter_list(&report.metrics));
                rec.close(batch_span, end);
                counters.batch.merge(&report.metrics);
                counters.batches += 1;
                counters.ops += chunk.len() as u64;
                let trace = report
                    .trace
                    .as_ref()
                    .ok_or("batch trace was not recorded")?;
                for event in &trace.events {
                    if let EventKind::BatchServe {
                        index,
                        source: "exec",
                    } = event.kind
                    {
                        let response = report
                            .responses
                            .get(index as usize)
                            .ok_or("serve event out of range")?;
                        counters.add_executed(response);
                    }
                }
            }
        }
        _ => {
            for &ti in &ops.schedule {
                *next_request += 1;
                let id = *next_request;
                let t0 = rec.now();
                let parsed = xtk_core::plan::parse(&ops.texts[ti]).map_err(|e| e.to_string())?;
                let t1 = rec.now();
                let (query, request) = bind(loaded, &parsed, &base)?;
                let t2 = rec.now();
                // `Engine::run`/`execute` looks the plan up again inside
                // `exec`; this explicit lookup is what lets the trace
                // show planning apart from execution.
                std::hint::black_box(plans.spec_for(loaded.ix, &query, &request, generation, salt));
                let t3 = rec.now();
                let response = exec.execute(&query, &request).map_err(|e| e.to_string())?;
                let t4 = rec.now();
                let request_span = rec.push(0, id, "request", t0, t4);
                rec.push(request_span, id, "plan.parse", t0, t1);
                rec.push(request_span, id, "plan.bind", t1, t2);
                rec.push(request_span, id, "plan.spec", t2, t3);
                let exec_span = rec.push(request_span, id, "exec", t3, t4);
                rec.attach(exec_span, counter_list(&response.metrics));
                counters.ops += 1;
                counters.add_executed(&response);
            }
        }
    }
    Ok(start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0); // ten samples beyond
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
