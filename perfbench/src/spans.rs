//! Spans recorded by the harness *around* the public calls into each
//! layer.  Kept in memory, written as JSON lines when the run ends.
//!
//! Self time of a span = its duration minus the part its children cover.
//! Siblings share boundary timestamps (one clock read ends a span and
//! starts the next), so children cover their parent with no dark time
//! unless the harness does work it forgot to name.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 = no parent (ids start at 1).
    pub parent: u32,
    /// Spans of one request (or one set-up) share this number.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts from the response the span's call returned.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose time zero is `epoch`.
    pub fn starting_at(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since time zero.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from time zero to `instant` (which is not before it).
    pub fn at(&self, instant: Instant) -> u64 {
        instant.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        id
    }

    /// Reserves a parent span whose end is filled in by [`Recorder::close`].
    pub fn open(&mut self, parent: u32, request: u32, name: &'static str, start_ns: u64) -> u32 {
        self.push(parent, request, name, start_ns, start_ns)
    }

    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn attach(&mut self, id: u32, counters: Vec<(String, u64)>) {
        self.spans[id as usize - 1].counters = counters;
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Checks the span tree (every parent resolves, children nest inside
    /// their parent) and returns the smallest share of any `request`,
    /// `batch` or `setup` span that its children cover.
    pub fn min_coverage(&self) -> Result<f64, String> {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.id));
            }
            if s.parent == 0 {
                continue;
            }
            let Some(p) = self.spans.get(s.parent as usize - 1) else {
                return Err(format!(
                    "span {}: parent {} does not resolve",
                    s.id, s.parent
                ));
            };
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) leaves its parent {}",
                    s.id, s.name, p.name
                ));
            }
            // Siblings never overlap (they share boundary timestamps), so
            // the covered part is the plain sum.
            *covered.entry(s.parent).or_default() += s.ns();
        }
        let mut min = 1.0f64;
        for s in self
            .spans
            .iter()
            .filter(|s| matches!(s.name, "request" | "batch" | "setup"))
        {
            if s.ns() > 0 {
                let c = covered.get(&s.id).copied().unwrap_or(0);
                min = min.min(c as f64 / s.ns() as f64);
            }
        }
        Ok(min)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
            if !s.counters.is_empty() {
                write!(w, ",\"counters\":{{")?;
                for (i, (k, v)) in s.counters.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    write!(w, "{sep}\"{}\":{v}", xtk_obs::json_escape(k))?;
                }
                write!(w, "}}")?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}
