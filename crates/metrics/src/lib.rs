#![forbid(unsafe_code)]
//! Campaign-scale metrics for the experiment stack.
//!
//! Where `subcore-trace` observes the engine from *inside* a simulated
//! cycle, this crate observes the stack *above* it — sessions, the
//! supervisor, journaled sweeps — while a campaign runs. It provides:
//!
//! - a lock-free [`Registry`] of atomic [`Counter`]s, [`Gauge`]s, and
//!   log₂-bucketed [`Histogram`]s, registered under stable dotted names
//!   (see [`names`]);
//! - hierarchical wall-clock [`Span`]s (campaign → job → phase) with
//!   per-job attribution notes;
//! - point-in-time [`MetricsSnapshot`]s with `subcore-persist` codecs,
//!   an atomically rewritten JSONL exporter ([`SnapshotWriter`]), and a
//!   Prometheus-text renderer ([`render_prometheus`]).
//!
//! # Zero cost when disabled
//!
//! The global entry points ([`inc`], [`add`], [`gauge_set`],
//! [`observe`], [`span()`]) follow the same contract as
//! `Tracer::emit` in `subcore-trace`: when metrics are off (the
//! default), each call is a single relaxed atomic load and a branch —
//! no allocation, no locking, no string formatting. Instrumented code
//! never needs to guard call sites; `repro` flips the gate on with
//! [`set_enabled`] at campaign start.
//!
//! Handles returned by [`Registry::counter`] (and friends) are cheap
//! clones backed by `Arc<AtomicU64>`; all mutation on a handle is a
//! single relaxed atomic RMW. The registry index itself is only locked
//! on the by-name lookup path (registration and the convenience
//! helpers), never on handle operations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod export;
pub mod names;
pub mod snapshot;
pub mod span;

pub use export::{
    latest_stream, load_snapshots, spawn_periodic, PeriodicFlusher, SnapshotWriter, SNAPSHOT_RECORD,
};
pub use snapshot::{
    render_prometheus, sanitize_metric_name, validate_prometheus, HistogramSnapshot,
    MetricsSnapshot, OpenSpanSnapshot, SpanAggSnapshot, SpanRecordSnapshot,
};
pub use span::Span;

use span::SpanLog;

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Every guarded structure here is valid after any interleaving of the
/// atomic updates we perform, so poison is safe to ignore.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Number of histogram buckets: bucket 0 holds zeros, bucket `k` holds
/// values in `[2^(k-1), 2^k)` for `k` in `1..=64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for zero, otherwise the position of
/// the highest set bit plus one (log₂ scaling).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`2^k - 1`; `u64::MAX` for the
/// last bucket). Used for Prometheus `le` labels and quantile reads.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn inc_by(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (stored as `f64` bits in an
/// atomic word). Clones share the same cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` samples ([`HISTOGRAM_BUCKETS`]
/// buckets plus a running count and sum). Clones share the same cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new() -> Histogram {
        Histogram(Arc::new(HistogramCore {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts under `name`.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A metrics registry: dotted-name → instrument index plus the span
/// log. The process-wide instance lives behind [`global`]; tests build
/// private instances with [`Registry::new`].
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Arc<SpanLog>,
    seq: AtomicU64,
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry whose uptime clock starts now.
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Arc::new(SpanLog::new()),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_recover(&self.counters);
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter::new();
        map.insert(name.to_string(), c.clone());
        c
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_recover(&self.gauges);
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Gauge::new();
        map.insert(name.to_string(), g.clone());
        g
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_recover(&self.histograms);
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Histogram::new();
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Opens a root span. `label` is the display leaf (e.g. the
    /// campaign name); pass `""` to display the kind name itself.
    pub fn span(&self, name: &str, label: &str) -> Span {
        Span::start(Arc::clone(&self.spans), None, name, label)
    }

    /// A point-in-time snapshot of every registered instrument, the
    /// span aggregates, currently open spans, and recent completions.
    /// Each call advances the snapshot sequence number.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (span_aggs, open_spans, recent_spans) = self.spans.snapshot();
        MetricsSnapshot {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            uptime_us: self.epoch.elapsed().as_micros() as u64,
            counters: lock_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock_recover(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: lock_recover(&self.histograms).iter().map(|(k, v)| v.snapshot(k)).collect(),
            span_aggs,
            open_spans,
            recent_spans,
        }
    }
}

// ---------------------------------------------------------------------------
// Global gate + convenience entry points
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry (created on first touch).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the global gate is on. One relaxed load.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the global gate. Off (the default) makes every convenience
/// entry point below a no-op branch.
pub fn set_enabled(on: bool) {
    if on {
        let _ = global();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds one to the global counter `name` (no-op while disabled).
#[inline(always)]
pub fn inc(name: &str) {
    if enabled() {
        global().counter(name).inc();
    }
}

/// Adds `delta` to the global counter `name` (no-op while disabled).
#[inline(always)]
pub fn add(name: &str, delta: u64) {
    if enabled() {
        global().counter(name).inc_by(delta);
    }
}

/// Sets the global gauge `name` (no-op while disabled).
#[inline(always)]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        global().gauge(name).set(value);
    }
}

/// Records a sample into the global histogram `name` (no-op while
/// disabled).
#[inline(always)]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().histogram(name).observe(value);
    }
}

/// Opens a root span on the global registry, or a disabled no-op span
/// while the gate is off. Safe to call (and to `.child()`) from any
/// thread without checking [`enabled`] first.
#[inline(always)]
#[must_use]
pub fn span(name: &str, label: &str) -> Span {
    if enabled() {
        global().span(name, label)
    } else {
        Span::disabled()
    }
}

/// Snapshots the global registry.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k as usize);
            assert_eq!(bucket_index(hi), k as usize);
            assert!(lo <= bucket_upper_bound(k as usize));
            assert_eq!(bucket_upper_bound(k as usize), hi);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let reg = Registry::new();
        let c = reg.counter("t.count");
        c.inc();
        c.inc_by(4);
        assert_eq!(reg.counter("t.count").get(), 5, "clones share the cell");

        let g = reg.gauge("t.gauge");
        g.set(2.5);
        assert_eq!(reg.gauge("t.gauge").get(), 2.5);

        let h = reg.histogram("t.hist");
        h.observe(0);
        h.observe(3);
        h.observe(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1003);
        let snap = h.snapshot("t.hist");
        assert_eq!(snap.buckets[bucket_index(0)], 1);
        assert_eq!(snap.buckets[bucket_index(3)], 1);
        assert_eq!(snap.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn registry_snapshot_lists_instruments_and_bumps_seq() {
        let reg = Registry::new();
        reg.counter("a.b").inc_by(7);
        reg.gauge("c.d").set(1.25);
        reg.histogram("e.f").observe(9);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1.counter("a.b"), Some(7));
        assert_eq!(s1.gauge("c.d"), Some(1.25));
        assert_eq!(s1.histograms.len(), 1);
        assert_eq!(s1.histograms[0].count, 1);
        assert!(s2.seq > s1.seq);
    }

    /// The only test that touches the global gate: everything else uses
    /// private registries so parallel test threads cannot race on it.
    #[test]
    fn global_gate_controls_convenience_helpers() {
        assert!(!enabled(), "gate must start disabled");
        inc("gate.test.count");
        observe("gate.test.hist", 5);
        let before = snapshot();
        assert_eq!(before.counter("gate.test.count"), None, "disabled calls register nothing");

        set_enabled(true);
        inc("gate.test.count");
        add("gate.test.count", 2);
        gauge_set("gate.test.gauge", 0.5);
        observe("gate.test.hist", 5);
        {
            let mut sp = span("gate.test.root", "label");
            sp.note("k", "v");
            let _child = sp.child("leaf", "");
        }
        let after = snapshot();
        assert_eq!(after.counter("gate.test.count"), Some(3));
        assert_eq!(after.gauge("gate.test.gauge"), Some(0.5));
        assert_eq!(after.histograms.iter().find(|h| h.name == "gate.test.hist").unwrap().count, 1);
        assert!(after.span_aggs.iter().any(|a| a.kind == "gate.test.root/leaf"));

        set_enabled(false);
        inc("gate.test.count");
        assert_eq!(snapshot().counter("gate.test.count"), Some(3));
        assert!(!span("gate.test.root", "").is_recording());
    }
}
