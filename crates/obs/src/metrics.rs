//! Deterministic metrics: named atomic counters and power-of-two
//! histograms collected into a diffable, canonically-rendered snapshot.
//!
//! Counters are identified by `&'static str` names so call sites pay one
//! registry lookup at handle-creation time and a single relaxed atomic add
//! per increment afterwards.  Snapshots flatten everything into a sorted
//! `BTreeMap<String, u64>` whose JSON rendering is byte-stable, which is
//! what lets ci.sh compare a run against a committed golden file with a
//! plain byte comparison.

use crate::locks::{lock, LockRank};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets: bucket `i` counts samples
/// whose bit length is `i`, i.e. bucket 0 holds the value 0, bucket 1
/// holds 1, bucket 2 holds 2..=3, and so on up to bucket 64.
const HIST_BUCKETS: usize = 65;

struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(HIST_BUCKETS);
        for _ in 0..HIST_BUCKETS {
            buckets.push(AtomicU64::new(0));
        }
        HistogramCell { buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }

    fn observe(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

struct RegistryInner {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCell>>>,
}

/// A registry of named counters and histograms.  Cloning is cheap and all
/// clones share the same underlying cells, so a registry handle can be
/// passed down a call tree (and across pool workers) freely.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Fetch (or create) the counter registered under `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = lock(&self.inner.counters, LockRank::Metrics);
        let cell = map.entry(name).or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter { cell: Some(Arc::clone(cell)) }
    }

    /// Fetch (or create) the histogram registered under `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut map = lock(&self.inner.histograms, LockRank::Metrics);
        let cell = map.entry(name).or_insert_with(|| Arc::new(HistogramCell::new()));
        Histogram { cell: Some(Arc::clone(cell)) }
    }

    /// Convenience: one-shot add without keeping a handle around.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Current value of a counter, 0 if it was never registered.
    pub fn value(&self, name: &str) -> u64 {
        let map = lock(&self.inner.counters, LockRank::Metrics);
        map.get(name).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Freeze the registry contents into a diffable snapshot.  Histograms
    /// flatten into `name.count`, `name.sum` and `name.le_pow2_<i>` keys
    /// (non-empty buckets only) so the snapshot stays a flat map.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = BTreeMap::new();
        {
            let map = lock(&self.inner.counters, LockRank::Metrics);
            for (name, cell) in map.iter() {
                values.insert((*name).to_string(), cell.load(Ordering::Relaxed));
            }
        }
        {
            let map = lock(&self.inner.histograms, LockRank::Metrics);
            for (name, cell) in map.iter() {
                values.insert(format!("{name}.count"), cell.count.load(Ordering::Relaxed));
                values.insert(format!("{name}.sum"), cell.sum.load(Ordering::Relaxed));
                for (i, b) in cell.buckets.iter().enumerate() {
                    let n = b.load(Ordering::Relaxed);
                    if n > 0 {
                        values.insert(format!("{name}.le_pow2_{i:02}"), n);
                    }
                }
            }
        }
        MetricsSnapshot { values }
    }
}

/// Cheap handle on a registered counter.  A no-op counter (from
/// [`Counter::noop`]) swallows updates, letting instrumented code keep a
/// single unconditional code path.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that discards all updates and always reads 0.
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        match &self.cell {
            Some(c) => c.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

/// Cheap handle on a registered histogram.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A histogram that discards all observations.
    pub fn noop() -> Self {
        Histogram { cell: None }
    }

    pub fn observe(&self, value: u64) {
        if let Some(c) = &self.cell {
            c.observe(value);
        }
    }
}

/// A frozen, sorted view of a registry.  Equality and JSON rendering are
/// both canonical: two snapshots with the same logical contents render to
/// identical bytes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// True iff the snapshot contains an entry for `name` (even if 0).
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Insert or overwrite an entry.  Used by executors that fold
    /// externally-tracked totals (e.g. per-store I/O counters) into the
    /// per-query snapshot.
    pub fn set(&mut self, name: &str, value: u64) {
        self.values.insert(name.to_string(), value);
    }

    /// Merge `other` into `self`, summing values on key collisions.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in other.values.iter() {
            let slot = self.values.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
    }

    /// Canonical single-object JSON: keys sorted, no whitespace variance,
    /// trailing newline.  Byte-stable for golden-file comparison.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in self.values.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  \"");
            out.push_str(&crate::json_escape(k));
            out.push_str("\": ");
            out.push_str(&v.to_string());
        }
        out.push_str("\n}\n");
        out
    }

    /// JSON-lines export: one `{"metric":...,"value":...}` object per
    /// line, sorted by metric name.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.values.iter() {
            out.push_str("{\"metric\":\"");
            out.push_str(&crate::json_escape(k));
            out.push_str("\",\"value\":");
            out.push_str(&v.to_string());
            out.push_str("}\n");
        }
        out
    }

    /// Parse a snapshot previously rendered with [`to_json`].  Accepts
    /// only the flat `{"name": number, ...}` shape; returns `None` on
    /// anything else.
    pub fn from_json(text: &str) -> Option<MetricsSnapshot> {
        let mut values = BTreeMap::new();
        let body = text.trim();
        let body = body.strip_prefix('{')?.strip_suffix('}')?;
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, num) = part.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let num: u64 = num.trim().parse().ok()?;
            values.insert(key.to_string(), num);
        }
        Some(MetricsSnapshot { values })
    }

    /// Entries that differ between `self` (old) and `new`, as
    /// `(name, old, new)` triples sorted by name.  Missing entries read
    /// as 0 on the side that lacks them.
    pub fn diff<'a>(&'a self, new: &'a MetricsSnapshot) -> Vec<(&'a str, u64, u64)> {
        let mut out = Vec::new();
        let mut keys: Vec<&str> = self.values.keys().map(|k| k.as_str()).collect();
        for k in new.values.keys() {
            if !self.values.contains_key(k.as_str()) {
                keys.push(k.as_str());
            }
        }
        keys.sort_unstable();
        for k in keys {
            let a = self.get(k);
            let b = new.get(k);
            if a != b {
                out.push((k, a, b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("join.matches");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        assert_eq!(reg.value("join.matches"), 4);
        // Same name returns the same cell.
        let c2 = reg.counter("join.matches");
        c2.incr();
        assert_eq!(c.get(), 5);
        assert_eq!(reg.value("missing"), 0);
    }

    #[test]
    fn noop_counter_discards() {
        let c = Counter::noop();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.observe(7); // must not panic
    }

    #[test]
    fn snapshot_is_sorted_and_canonical() {
        let reg = MetricsRegistry::new();
        reg.add("zeta", 2);
        reg.add("alpha", 1);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
        let json = snap.to_json();
        assert_eq!(json, "{\n  \"alpha\": 1,\n  \"zeta\": 2\n}\n");
        let back = MetricsSnapshot::from_json(&json).expect("parse own rendering");
        assert_eq!(back, snap);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("probe.len");
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2
        let snap = reg.snapshot();
        assert_eq!(snap.get("probe.len.count"), 4);
        assert_eq!(snap.get("probe.len.sum"), 6);
        assert_eq!(snap.get("probe.len.le_pow2_00"), 1);
        assert_eq!(snap.get("probe.len.le_pow2_01"), 1);
        assert_eq!(snap.get("probe.len.le_pow2_02"), 2);
    }

    #[test]
    fn diff_reports_changes_only() {
        let reg = MetricsRegistry::new();
        reg.add("a", 1);
        reg.add("b", 2);
        let old = reg.snapshot();
        reg.add("b", 3);
        reg.add("c", 9);
        let new = reg.snapshot();
        let d = old.diff(&new);
        assert_eq!(d, vec![("b", 2, 5), ("c", 0, 9)]);
    }

    #[test]
    fn merge_sums_collisions() {
        let reg1 = MetricsRegistry::new();
        reg1.add("x", 1);
        let reg2 = MetricsRegistry::new();
        reg2.add("x", 2);
        reg2.add("y", 7);
        let mut a = reg1.snapshot();
        a.merge(&reg2.snapshot());
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 7);
    }

    #[test]
    fn json_lines_one_object_per_metric() {
        let reg = MetricsRegistry::new();
        reg.add("a", 1);
        reg.add("b", 2);
        let lines = reg.snapshot().to_json_lines();
        assert_eq!(lines, "{\"metric\":\"a\",\"value\":1}\n{\"metric\":\"b\",\"value\":2}\n");
    }
}
