//! In-memory spans for the traced run, written out when it ends.
//!
//! A span has a name, start, end, parent and op id. Live spans time the
//! benchmark's own calls into the client; replayed spans time the same
//! operation's server-side layers on the in-process mirror and are
//! attributed to the live span of that operation as children. A span's
//! self time is its duration minus its children's durations — for a
//! client round trip that leaves transport and dispatch.

use crate::util::{micros, JsonObj};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { spans: Vec::new() }
    }

    /// Record a span, returning its id for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Attach an operation's replayed layers under its live span
    /// `parent`, laid out one after another from the parent's start.
    pub fn attach(&mut self, parent: usize, layers: &Layers) {
        let op = self.spans[parent].op;
        let mut cursor = self.spans[parent].start;
        let mut ids: Vec<usize> = Vec::with_capacity(layers.0.len());
        for &(name, d, nested) in &layers.0 {
            let (p, start) = match nested {
                Some(i) => (ids[i], self.spans[ids[i]].start),
                None => {
                    let start = cursor;
                    cursor += d;
                    (parent, start)
                }
            };
            ids.push(self.push(name, op, Some(p), start, start + d));
        }
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| micros(s.end - s.start))
            .collect()
    }

    /// Self times (duration minus children) of every span named `name`, µs.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += micros(s.end - s.start);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| micros(s.end - s.start) - children[i])
            .collect()
    }

    /// Write every span as one JSON object per line, times in µs from
    /// the earliest span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = JsonObj::new();
            o.int("id", i as u64);
            o.str("name", s.name);
            o.int("op", s.op);
            o.num("parent", s.parent.map_or(-1.0, |p| p as f64));
            o.num("start_us", micros(s.start - epoch));
            o.num("end_us", micros(s.end.saturating_duration_since(epoch)));
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

/// One operation's server-side layers as timed on the mirror:
/// `(name, duration, parent)`, where `parent` indexes an earlier entry
/// (a nested layer) or is `None` (a direct child of the round trip).
#[derive(Default, Clone)]
pub struct Layers(pub Vec<(&'static str, Duration, Option<usize>)>);

impl Layers {
    pub fn add(&mut self, name: &'static str, d: Duration) -> usize {
        self.0.push((name, d, None));
        self.0.len() - 1
    }

    pub fn nest(&mut self, name: &'static str, d: Duration, parent: usize) {
        self.0.push((name, d, Some(parent)));
    }
}

/// Time `f`, returning its value and duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}
