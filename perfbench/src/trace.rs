//! Benchmark-owned spans and counter deltas for the traced run.
//!
//! A span wraps one call into a layer's public entry point and records
//! its name, start, end, parent span and tick.  Spans stay in memory and
//! are written out once the run ends.  A layer's self time is its span's
//! duration minus what its child spans cover.  Counts are before/after
//! deltas of the `most_obs` registry; the registry is never reset, so
//! nothing else sharing it can be disturbed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub tick: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tick: u64,
}

/// A span recorder; cloning shares it.  [`Tracer::off`] records nothing
/// and costs one branch per call.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Mutex<Inner>>>);

impl Tracer {
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }))))
    }

    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn set_tick(&self, tick: u64) {
        if let Some(inner) = &self.0 {
            inner.lock().expect("tracer lock").tick = tick;
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.  Spans must be opened from one thread at a time.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else { return f() };
        let id = {
            let mut g = inner.lock().expect("tracer lock");
            let parent = g.open.last().copied();
            let start = g.origin.elapsed().as_nanos() as u64;
            let tick = g.tick;
            g.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                tick,
            });
            let id = g.spans.len() - 1;
            g.open.push(id);
            id
        };
        let r = f();
        let mut g = inner.lock().expect("tracer lock");
        let end = g.origin.elapsed().as_nanos() as u64;
        g.spans[id].end = end;
        g.open.pop();
        r
    }

    /// Drops the spans recorded so far (set-up and warm-up work).
    pub fn clear(&self) {
        if let Some(inner) = &self.0 {
            inner.lock().expect("tracer lock").spans.clear();
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|inner| inner.lock().expect("tracer lock").spans.clone())
            .unwrap_or_default()
    }
}

/// Analysis of a finished span set.
pub struct Ledger {
    pub spans: Vec<Span>,
    children: Vec<Vec<usize>>,
    /// The root span each span descends from.
    roots: Vec<usize>,
}

impl Ledger {
    pub fn new(spans: Vec<Span>) -> Ledger {
        let mut children = vec![Vec::new(); spans.len()];
        let mut roots = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            // Parents open before their children, so theirs is known.
            roots.push(s.parent.map_or(i, |p| roots[p]));
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Ledger {
            spans,
            children,
            roots,
        }
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of span `i`: its duration minus its children's.
    pub fn self_ms(&self, i: usize) -> f64 {
        let child: f64 = self.children[i].iter().map(|&c| self.spans[c].ms()).sum();
        self.spans[i].ms() - child
    }

    /// Per root span named `root`, the share of its duration its child
    /// spans cover.
    pub fn closure(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none())
            .map(|(i, s)| 1.0 - self.self_ms(i) / s.ms().max(1e-9))
            .collect()
    }

    /// Total self time (ms) per layer (the span name up to its first dot)
    /// inside root spans named `root`, the roots themselves excluded.
    pub fn layer_self_ms(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() && self.spans[self.roots[i]].name == root {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.entry(layer).or_insert(0.0) += self.self_ms(i);
            }
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{}}}",
                s.name, s.start, s.end, s.tick
            )?;
        }
        out.flush()
    }
}

/// Registry counters the traced run reads as deltas.
pub const COUNTERS: &[&str] = &[
    "epoch.published",
    "epoch.batches",
    "refresh.total",
    "refresh.skipped",
    "refresh.evaluated",
    "ftl.candidates_evaluated",
    "ftl.candidates_pruned",
    "ftl.plan.cache_hits",
    "ftl.plan.cache_misses",
    "index.queries",
    "index.nodes_visited",
    "index.candidates",
    "index.results",
    "index.rebuilds",
    "hist.records",
    "hist.segments",
    "hist.pruned",
    "hist.alibi_queries",
    "shard.batches",
    "shard.scatter_queries",
    "wal.appends",
    "wal.bytes",
    "wal.checkpoints",
];

/// A snapshot of [`COUNTERS`].
pub fn counters() -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&n| (n, most_obs::counter_value(n)))
        .collect()
}

/// `after - before`, per counter.
pub fn delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(&k, &v)| (k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}
