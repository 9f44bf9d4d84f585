//! Hermetic observability for the MOST workspace: a process-global
//! registry of named monotonic counters and gauges, fixed-bucket log2
//! latency histograms (integer-only p50/p95/p99), and lightweight span
//! timers that nest and aggregate per label.
//!
//! One switch keeps instrumentation cheap when it is unwanted:
//! [`set_enabled`], a relaxed `AtomicBool` checked before any registry
//! work, so one process can compare instrumented and uninstrumented runs
//! of the same workload.
//!
//! Counter names are dot-separated, `layer.event` (e.g.
//! `refresh.evaluated`, `ftl.candidates`, `index.rebuilds`,
//! `net.messages`, `dbms.rows_scanned`); span labels follow the same
//! scheme and surface in [`metrics_kv`] as `<label>.count`.  Hot loops
//! must not call into the registry per element — batch with one
//! [`add`] per call site instead (the registry is a `Mutex<BTreeMap>`;
//! cheap at aggregation points, wrong inside an inner loop).
//!
//! [`metrics_kv`] returns only deterministic quantities — counter and
//! gauge values plus span/histogram *counts*, never recorded
//! wall-clock nanoseconds — so a seeded workload emits a byte-identical
//! metrics snapshot on every run (asserted in CI).  Percentile queries
//! over the recorded durations are available separately via
//! [`percentiles`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// A fixed-bucket log2 histogram: bucket 0 holds zeros, bucket `b`
/// (1..=64) holds values with bit length `b`, i.e. `[2^(b-1), 2^b)`.
/// No floats anywhere; recording is two relaxed atomic adds.
struct Histogram {
    buckets: Vec<AtomicU64>, // 65 entries
    count: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..65).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(v, Ordering::Relaxed);
    }

    /// Lower bound of the bucket containing the `p`-th percentile
    /// (rank = ceil(count * p / 100)), or 0 when empty.
    fn percentile(&self, p: u64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = ((total * p).div_ceil(100)).max(1);
        let mut cum = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= rank {
                return if b == 0 { 0 } else { 1u64 << (b - 1) };
            }
        }
        u64::MAX
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn counter(name: &str) -> Arc<AtomicU64> {
    let mut map = registry().counters.lock().expect("obs counters lock");
    match map.get(name) {
        Some(c) => Arc::clone(c),
        None => {
            let c = Arc::new(AtomicU64::new(0));
            map.insert(name.to_owned(), Arc::clone(&c));
            c
        }
    }
}

fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().expect("obs histograms lock");
    match map.get(name) {
        Some(h) => Arc::clone(h),
        None => {
            let h = Arc::new(Histogram::new());
            map.insert(name.to_owned(), Arc::clone(&h));
            h
        }
    }
}

/// Turns recording on or off at run time (compile-time-enabled
/// builds only; the registry itself is unaffected).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to the monotonic counter `name`, creating it at zero.
pub fn add(name: &str, n: u64) {
    if is_enabled() {
        counter(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Increments the monotonic counter `name` by one.
pub fn inc(name: &str) {
    add(name, 1);
}

/// Sets the gauge `name` to `v` (last write wins).
pub fn gauge_set(name: &str, v: u64) {
    if !is_enabled() {
        return;
    }
    let mut map = registry().gauges.lock().expect("obs gauges lock");
    match map.get(name) {
        Some(g) => g.store(v, Ordering::Relaxed),
        None => {
            map.insert(name.to_owned(), Arc::new(AtomicU64::new(v)));
        }
    }
}

/// Raises the gauge `name` to `v` if `v` exceeds its current value
/// (a high-water mark, e.g. peak hold-buffer depth).
pub fn gauge_max(name: &str, v: u64) {
    if !is_enabled() {
        return;
    }
    let mut map = registry().gauges.lock().expect("obs gauges lock");
    match map.get(name) {
        Some(g) => {
            g.fetch_max(v, Ordering::Relaxed);
        }
        None => {
            map.insert(name.to_owned(), Arc::new(AtomicU64::new(v)));
        }
    }
}

/// Records value `v` into the log2 histogram `name`.
pub fn observe(name: &str, v: u64) {
    if is_enabled() {
        histogram(name).record(v);
    }
}

/// The current value of counter `name` (0 if it does not exist).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .counters
        .lock()
        .expect("obs counters lock")
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// `(p50, p95, p99)` bucket lower bounds of histogram `name`, or
/// `None` if it has recorded nothing.
pub fn percentiles(name: &str) -> Option<(u64, u64, u64)> {
    let h = {
        let map = registry().histograms.lock().expect("obs histograms lock");
        Arc::clone(map.get(name)?)
    };
    if h.count.load(Ordering::Relaxed) == 0 {
        return None;
    }
    Some((h.percentile(50), h.percentile(95), h.percentile(99)))
}

/// Clears every counter, gauge and histogram.
pub fn reset() {
    registry().counters.lock().expect("obs counters lock").clear();
    registry().gauges.lock().expect("obs gauges lock").clear();
    registry().histograms.lock().expect("obs histograms lock").clear();
}

/// Deterministic snapshot: sorted `(name, value)` pairs of every
/// counter and gauge, plus each histogram's observation count as
/// `<name>.count`.  Recorded durations themselves are excluded so a
/// seeded run snapshots byte-identically.
pub fn metrics_kv() -> Vec<(String, u64)> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, c) in registry().counters.lock().expect("obs counters lock").iter() {
        out.insert(name.clone(), c.load(Ordering::Relaxed));
    }
    for (name, g) in registry().gauges.lock().expect("obs gauges lock").iter() {
        out.insert(name.clone(), g.load(Ordering::Relaxed));
    }
    for (name, h) in registry().histograms.lock().expect("obs histograms lock").iter() {
        out.insert(format!("{name}.count"), h.count.load(Ordering::Relaxed));
    }
    out.into_iter().collect()
}

/// RAII span timer: created by [`span()`], records its elapsed
/// nanoseconds into the histogram labelled with the span's label on
/// drop.  Spans nest freely; each label aggregates independently.
#[must_use = "a span records on drop; bind it or use obs::span!"]
pub struct Span {
    label: &'static str,
    start: Option<Instant>,
}

/// Starts a span timer for `label` (no-op while disabled).
pub fn span(label: &'static str) -> Span {
    Span {
        label,
        start: is_enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observe(self.label, nanos);
        }
    }
}

/// Times the rest of the enclosing scope under `label`:
/// `obs::span!("refresh.eval");` binds a hidden [`Span`] guard that
/// records on scope exit.  Macro hygiene keeps multiple spans in one
/// scope from colliding.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        let _obs_span_guard = $crate::span($label);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; tests in this binary serialize on
    /// one lock so counter assertions cannot race each other.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let _g = guard();
        reset();
        set_enabled(true);
        inc("z.last");
        add("a.first", 41);
        inc("a.first");
        gauge_set("m.gauge", 7);
        gauge_set("m.gauge", 9);
        assert_eq!(counter_value("a.first"), 42);
        assert_eq!(counter_value("missing"), 0);
        let kv = metrics_kv();
        assert_eq!(
            kv,
            vec![
                ("a.first".to_owned(), 42),
                ("m.gauge".to_owned(), 9),
                ("z.last".to_owned(), 1),
            ]
        );
        reset();
        assert!(metrics_kv().is_empty());
    }

    #[test]
    fn runtime_disable_drops_all_recording() {
        let _g = guard();
        reset();
        set_enabled(false);
        inc("dropped");
        gauge_set("dropped.gauge", 5);
        observe("dropped.hist", 10);
        {
            span!("dropped.span");
        }
        assert!(metrics_kv().is_empty());
        set_enabled(true);
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let _g = guard();
        reset();
        set_enabled(true);
        gauge_max("hw", 3);
        gauge_max("hw", 9);
        gauge_max("hw", 5);
        assert_eq!(metrics_kv(), vec![("hw".to_owned(), 9)]);
        reset();
    }

    #[test]
    fn histogram_percentiles_use_log2_bucket_lower_bounds() {
        let _g = guard();
        reset();
        set_enabled(true);
        // 100 observations: 50 zeros, 45 in bucket [4,8), 5 in [64,128).
        for _ in 0..50 {
            observe("h", 0);
        }
        for _ in 0..45 {
            observe("h", 5);
        }
        for _ in 0..5 {
            observe("h", 100);
        }
        let (p50, p95, p99) = percentiles("h").expect("recorded");
        assert_eq!(p50, 0);
        assert_eq!(p95, 4);
        assert_eq!(p99, 64);
        assert_eq!(percentiles("empty"), None);
        // The deterministic snapshot carries the count, not durations.
        assert_eq!(metrics_kv(), vec![("h.count".to_owned(), 100)]);
        reset();
    }

    #[test]
    fn spans_nest_and_aggregate_per_label() {
        let _g = guard();
        reset();
        set_enabled(true);
        {
            span!("outer");
            for _ in 0..3 {
                span!("inner");
            }
        }
        let kv = metrics_kv();
        assert_eq!(
            kv.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["inner.count", "outer.count"]
        );
        assert_eq!(counter_value("missing"), 0);
        assert_eq!(
            kv,
            vec![("inner.count".to_owned(), 3), ("outer.count".to_owned(), 1)]
        );
        reset();
    }
}
