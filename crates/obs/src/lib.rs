//! # xtk-obs — deterministic observability for the xtk query path
//!
//! A std-only metrics/tracing substrate shared by `xtk-index` and
//! `xtk-core`:
//!
//! * [`MetricsRegistry`] — named atomic counters and power-of-two
//!   histograms, snapshotted into a sorted, canonically-rendered
//!   [`MetricsSnapshot`] that can be byte-compared against a committed
//!   golden file.
//! * [`Tracer`] — a span-style recorder of structured query-execution
//!   events ([`EventKind`]) ordered by *logical* sequence numbers, so a
//!   trace is bit-identical across `Parallelism` settings.
//! * [`Obs`] — the bundle executors thread down the call tree instead of
//!   the previous per-subsystem stats structs.
//!
//! Determinism is a hard design rule: this crate never reads the wall
//! clock (enforced by the xtk-lint L5 rule), never iterates a hash map
//! into output, and stores floating-point scores as `f32::to_bits` so
//! event equality is exact.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use trace::{EventKind, Trace, TraceEvent, TraceLevel, Tracer};

/// The observability bundle passed down the executor call tree: one
/// registry for counters/histograms plus one tracer for events.  Cloning
/// shares both.
#[derive(Clone, Default)]
pub struct Obs {
    pub metrics: MetricsRegistry,
    pub tracer: Tracer,
}

impl Obs {
    /// Fresh registry, tracing disabled.  This is what the deprecated
    /// compatibility shims use: counters are still tallied (they are
    /// cheap and the response wants them) but no event log is kept.
    pub fn new() -> Self {
        Obs { metrics: MetricsRegistry::new(), tracer: Tracer::off() }
    }

    /// Fresh registry with tracing according to `level`.
    pub fn for_level(level: TraceLevel) -> Self {
        Obs { metrics: MetricsRegistry::new(), tracer: Tracer::for_level(level) }
    }

    /// Record an event iff tracing is enabled.
    pub fn event(&self, kind: EventKind) {
        self.tracer.record(kind);
    }
}

/// Escape a string for embedding in a JSON string literal.  Metric and
/// event names are ASCII identifiers in practice, but the escaper is
/// total so arbitrary input cannot corrupt an export.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundle_defaults_off() {
        let obs = Obs::new();
        assert!(!obs.tracer.enabled());
        obs.event(EventKind::QueryEnd { results: 0 }); // no-op, must not panic
        obs.metrics.add("x", 2);
        assert_eq!(obs.metrics.snapshot().get("x"), 2);
    }

    #[test]
    fn obs_for_level_events() {
        let obs = Obs::for_level(TraceLevel::Events);
        assert!(obs.tracer.enabled());
        obs.event(EventKind::QueryEnd { results: 3 });
        let tr = obs.tracer.finish().expect("enabled");
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
