#![forbid(unsafe_code)]
//! Campaign-scale metrics for the experiment stack.
//!
//! Where `subcore-trace` observes the engine from *inside* a simulated
//! cycle, this crate gives the stack *above* it — sessions, the
//! supervisor, journaled sweeps, the serve daemon — one shape to report in
//! while a campaign runs. It keeps no state of its own. Each layer counts
//! its events in plain fields it already owns (see [`names`] for which
//! layer owns which name), and a [`MetricsSnapshot`] is *pulled* from those
//! owners when a reader asks. It provides:
//!
//! - hierarchical wall-clock [`Span`]s (campaign → job → phase) over a
//!   [`SpanLog`] the owner keeps, with per-job attribution notes;
//! - point-in-time [`MetricsSnapshot`]s with log₂-bucketed
//!   [`HistogramSnapshot`]s and `subcore-persist` codecs;
//! - an atomically rewritten JSONL stream ([`SnapshotWriter`]) with a
//!   background flusher that pulls from an owner ([`spawn_periodic`]), and
//!   a Prometheus-text renderer ([`render_prometheus`]).
//!
//! Nothing here is process-wide, so two sessions in one process report
//! independently and a snapshot costs nothing until someone pulls it.

use std::sync::{Mutex, MutexGuard};

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
pub use span::{Span, SpanLog};

/// Locks a mutex, recovering the data if a previous holder panicked, so
/// a failed job never cascades into every later access. For structures
/// that are valid after any interleaving of their holders' updates (every
/// caller's, in this workspace), poison is safe to ignore.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// Does nothing. Kept only because the standalone benchmark still binds
/// the name of the retired process-wide gate.
#[doc(hidden)]
pub fn set_enabled(_on: bool) {}

/// Does nothing. Kept only because the standalone benchmark still binds
/// the name of the retired by-name counter.
#[doc(hidden)]
pub fn inc(_name: &str) {}

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
        let mut h = HistogramSnapshot::new("t.hist");
        for v in [0, 3, 1000] {
            h.observe(v);
        }
        assert_eq!((h.count, h.sum), (3, 1003));
        assert_eq!(h.buckets.len(), HISTOGRAM_BUCKETS);
        for v in [0, 3, 1000] {
            assert_eq!(h.buckets[bucket_index(v)], 1);
        }

        // Two owners' pulls merge into one name-sorted view.
        let a = MetricsSnapshot::of(vec![("t.count", 5)], vec![("t.gauge", 2.5)], vec![h]);
        let b = MetricsSnapshot::of(vec![("a.count", 1)], Vec::new(), Vec::new());
        let both = a.merge(b);
        assert_eq!(both.counter("t.count"), Some(5));
        assert_eq!(both.counter("a.count"), Some(1));
        assert_eq!(both.counters[0].0, "a.count", "series stay name-sorted");
        assert_eq!(both.gauge("t.gauge"), Some(2.5));
        assert_eq!(both.histogram("t.hist").map(|h| h.count), Some(3));
        assert_eq!(both.counter("absent"), None);
    }
}
