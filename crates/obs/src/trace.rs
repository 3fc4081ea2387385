//! Span-style query-execution tracing with logical sequence numbers.
//!
//! A [`Tracer`] records structured [`TraceEvent`]s describing what the
//! executors actually did: per-level join cardinalities, top-K rounds
//! and threshold progression, per-store decode totals.  Events carry a
//! *logical* sequence number — not a wall-clock timestamp — and are only
//! recorded from sequential driver/commit code, so the trace of a query
//! is bit-identical across `Parallelism` settings.  Quantities that
//! legitimately vary with the worker count (cache hit/miss splits)
//! belong in the [`MetricsRegistry`](crate::MetricsRegistry) instead.
//!
//! Scores travel as `f32::to_bits` so events are `Eq` and trace equality
//! is exact.

use crate::locks::{lock, LockRank};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How much observability a query run should collect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No metrics beyond what the executor tallies anyway, no events.
    #[default]
    Off,
    /// Unified counters in the response metrics snapshot, no event log.
    Counters,
    /// Counters plus the full structured event log.
    Events,
}

impl TraceLevel {
    pub fn events_enabled(self) -> bool {
        matches!(self, TraceLevel::Events)
    }
}

/// One structured event.  All numeric payloads are parallelism-invariant
/// by construction; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Query admitted: number of keywords and the deepest level joined.
    QueryStart { keywords: u32, start_level: u32 },
    /// A per-level join round started; `driver_term` is the scarcest
    /// term's id at this level and `driver_runs` its column width.
    LevelStart { level: u32, driver_term: u32, driver_runs: u64 },
    /// One conjunctive step inside a level.
    JoinStep {
        level: u32,
        term: u32,
        column_runs: u64,
        input_values: u64,
        output_values: u64,
    },
    /// A per-level round finished with `matches` value-matches that
    /// produced `results` surviving ELCA/SLCA candidates.
    LevelEnd { level: u32, matches: u64, results: u64 },
    /// The join stopped before `level`: the `results` it held settle the
    /// `k` kept — their `k`-th best score (`kth_bits`) reaches the bound
    /// on every level left (`bound_bits`; both 0 for an unranked cut).
    JoinStop { level: u32, results: u64, kth_bits: u32, bound_bits: u32 },
    /// The top-K streamer opened the scored column at `level`.
    TopKColumn { level: u32, runs: u64 },
    /// The TA threshold dropped (recorded only on change).
    TopKThreshold { level: u32, threshold_bits: u32 },
    /// The top-K streamer emitted a result; `early` marks emissions that
    /// beat the current threshold before the stream was exhausted.
    TopKEmit { value: u32, level: u32, score_bits: u32, early: bool },
    /// Per-store I/O at query end: blocks decoded from disk.  Decode
    /// counts are parallelism-invariant (decode-once is guaranteed by the
    /// double-checked cache insert); hit/miss splits are not, and live in
    /// metrics only.
    StoreIo { store: u32, decodes: u64 },
    /// Query finished with `results` results.
    QueryEnd { results: u64 },
    /// A batch was admitted: total requests and the distinct execution
    /// classes left after canonicalization + dedup.
    BatchStart { queries: u64, distinct: u64 },
    /// One batch slot was resolved: `source` is `"cache"` (served from
    /// the generation-stamped result cache), `"dedup"` (identical to an
    /// executed slot earlier in the batch) or `"exec"` (executed).
    BatchServe { index: u64, source: &'static str },
    /// Batch finished: total results over every slot.
    BatchEnd { queries: u64, results: u64 },
}

impl EventKind {
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryStart { .. } => "query_start",
            EventKind::LevelStart { .. } => "level_start",
            EventKind::JoinStep { .. } => "join_step",
            EventKind::LevelEnd { .. } => "level_end",
            EventKind::JoinStop { .. } => "join_stop",
            EventKind::TopKColumn { .. } => "topk_column",
            EventKind::TopKThreshold { .. } => "topk_threshold",
            EventKind::TopKEmit { .. } => "topk_emit",
            EventKind::StoreIo { .. } => "store_io",
            EventKind::QueryEnd { .. } => "query_end",
            EventKind::BatchStart { .. } => "batch_start",
            EventKind::BatchServe { .. } => "batch_serve",
            EventKind::BatchEnd { .. } => "batch_end",
        }
    }

    /// The event payload as ordered `(key, value)` pairs for rendering.
    fn fields(&self) -> Vec<(&'static str, FieldVal)> {
        use FieldVal::{Str, U64};
        match *self {
            EventKind::QueryStart { keywords, start_level } => vec![
                ("keywords", U64(keywords as u64)),
                ("start_level", U64(start_level as u64)),
            ],
            EventKind::LevelStart { level, driver_term, driver_runs } => vec![
                ("level", U64(level as u64)),
                ("driver_term", U64(driver_term as u64)),
                ("driver_runs", U64(driver_runs)),
            ],
            EventKind::JoinStep { level, term, column_runs, input_values, output_values } => {
                vec![
                    ("level", U64(level as u64)),
                    ("term", U64(term as u64)),
                    ("column_runs", U64(column_runs)),
                    ("input_values", U64(input_values)),
                    ("output_values", U64(output_values)),
                ]
            }
            EventKind::LevelEnd { level, matches, results } => vec![
                ("level", U64(level as u64)),
                ("matches", U64(matches)),
                ("results", U64(results)),
            ],
            EventKind::JoinStop { level, results, kth_bits, bound_bits } => vec![
                ("level", U64(level as u64)),
                ("results", U64(results)),
                ("kth_bits", U64(kth_bits as u64)),
                ("bound_bits", U64(bound_bits as u64)),
            ],
            EventKind::TopKColumn { level, runs } => {
                vec![("level", U64(level as u64)), ("runs", U64(runs))]
            }
            EventKind::TopKThreshold { level, threshold_bits } => vec![
                ("level", U64(level as u64)),
                ("threshold_bits", U64(threshold_bits as u64)),
            ],
            EventKind::TopKEmit { value, level, score_bits, early } => vec![
                ("value", U64(value as u64)),
                ("level", U64(level as u64)),
                ("score_bits", U64(score_bits as u64)),
                ("early", U64(early as u64)),
            ],
            EventKind::StoreIo { store, decodes } => {
                vec![("store", U64(store as u64)), ("decodes", U64(decodes))]
            }
            EventKind::QueryEnd { results } => vec![("results", U64(results))],
            EventKind::BatchStart { queries, distinct } => {
                vec![("queries", U64(queries)), ("distinct", U64(distinct))]
            }
            EventKind::BatchServe { index, source } => {
                vec![("index", U64(index)), ("source", Str(source))]
            }
            EventKind::BatchEnd { queries, results } => {
                vec![("queries", U64(queries)), ("results", U64(results))]
            }
        }
    }
}

enum FieldVal {
    U64(u64),
    Str(&'static str),
}

/// One recorded event with its logical sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub kind: EventKind,
}

impl TraceEvent {
    /// One JSON object, no trailing newline:
    /// `{"seq":3,"event":"join_step","level":2,...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"event\":\"");
        out.push_str(self.kind.name());
        out.push('"');
        for (k, v) in self.kind.fields() {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            match v {
                FieldVal::U64(n) => out.push_str(&n.to_string()),
                FieldVal::Str(s) => {
                    out.push('"');
                    out.push_str(&crate::json_escape(s));
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }

    /// Compact human-readable rendering: `event k=v k=v`.
    pub fn render(&self) -> String {
        let mut out = String::from(self.kind.name());
        for (k, v) in self.kind.fields() {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            match v {
                FieldVal::U64(n) => out.push_str(&n.to_string()),
                FieldVal::Str(s) => out.push_str(s),
            }
        }
        out
    }
}

struct TracerInner {
    seq: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

/// Handle used by executors to record events.  A disabled tracer (the
/// default) is a single `Option` check per call site; clones share the
/// same event log and sequence counter.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// A live tracer if `level` asks for events, otherwise disabled.
    pub fn for_level(level: TraceLevel) -> Self {
        if level.events_enabled() {
            Tracer {
                inner: Some(Arc::new(TracerInner {
                    seq: AtomicU64::new(0),
                    events: Mutex::new(Vec::new()),
                })),
            }
        } else {
            Tracer { inner: None }
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event, assigning the next logical sequence number.
    pub fn record(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            let mut log = lock(&inner.events, LockRank::TraceLog);
            log.push(TraceEvent { seq, kind });
        }
    }

    /// Snapshot the recorded events into an immutable [`Trace`].
    /// Returns `None` when the tracer is disabled.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_ref()?;
        let log = lock(&inner.events, LockRank::TraceLog);
        Some(Trace { events: log.clone() })
    }
}

/// An immutable recorded trace.  `Eq` compares full event sequences —
/// the determinism tests assert `Serial` and `Auto` runs are `==`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// JSON-lines export: one event object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("[{:04}] {}\n", e.seq, e.render()));
        }
        out
    }

    /// Events of one kind, in sequence order.
    pub fn of_kind(&self, name: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.kind.name() == name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        t.record(EventKind::QueryEnd { results: 1 });
        assert!(t.finish().is_none());
        let t2 = Tracer::for_level(TraceLevel::Counters);
        assert!(!t2.enabled());
    }

    #[test]
    fn sequence_numbers_are_logical_and_dense() {
        let t = Tracer::for_level(TraceLevel::Events);
        t.record(EventKind::QueryStart { keywords: 2, start_level: 3 });
        t.record(EventKind::LevelEnd { level: 3, matches: 5, results: 2 });
        t.record(EventKind::QueryEnd { results: 2 });
        let trace = t.finish().expect("tracer enabled");
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn json_line_rendering_is_stable() {
        let e = TraceEvent {
            seq: 3,
            kind: EventKind::JoinStep {
                level: 2,
                term: 7,
                column_runs: 100,
                input_values: 10,
                output_values: 4,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"seq\":3,\"event\":\"join_step\",\"level\":2,\"term\":7,\"column_runs\":100,\
             \"input_values\":10,\"output_values\":4}"
        );
        assert_eq!(
            e.render(),
            "join_step level=2 term=7 column_runs=100 input_values=10 output_values=4"
        );
    }

    #[test]
    fn traces_compare_by_full_sequence() {
        let mk = |early: bool| {
            let t = Tracer::for_level(TraceLevel::Events);
            t.record(EventKind::TopKEmit {
                value: 9,
                level: 4,
                score_bits: 1.5f32.to_bits(),
                early,
            });
            t.finish().expect("enabled")
        };
        assert_eq!(mk(true), mk(true));
        assert_ne!(mk(true), mk(false));
    }

    #[test]
    fn of_kind_filters() {
        let t = Tracer::for_level(TraceLevel::Events);
        t.record(EventKind::QueryStart { keywords: 1, start_level: 2 });
        t.record(EventKind::QueryEnd { results: 0 });
        let tr = t.finish().expect("enabled");
        assert_eq!(tr.of_kind("query_end").len(), 1);
        assert_eq!(tr.of_kind("join_step").len(), 0);
        assert_eq!(tr.len(), 2);
    }
}
