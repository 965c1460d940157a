//! Hierarchical wall-clock spans.
//!
//! A [`Span`] measures one unit of work (a campaign, a job keyed by
//! `SimKey`, a phase like `simulate` or `persist`). Spans form a tree
//! through [`Span::child`]; each span carries two strings:
//!
//! - its **kind** — the `/`-joined chain of span *names*
//!   (`campaign/job/simulate`), bounded cardinality, used to aggregate
//!   durations;
//! - its **path** — the `/`-joined chain of display *labels*
//!   (`fig09_all_apps/00a1b2…/simulate`), shown by `repro top` for
//!   in-flight work.
//!
//! Every span belongs to a [`SpanLog`], a value its owner keeps (the
//! simulation session owns one). While open, a span sits in the log's
//! open-span table so snapshots can show live jobs with elapsed time.
//! Closing (drop or [`Span::finish`]) records the duration into a per-kind
//! aggregate and a short ring of recent completions that keeps attribution
//! notes (engine mode, cycles/sec, …) attached via [`Span::note`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::lock_recover;
use crate::snapshot::{MetricsSnapshot, OpenSpanSnapshot, SpanAggSnapshot, SpanRecordSnapshot};

/// How many completed spans the "recent" ring keeps.
pub const RECENT_SPAN_CAP: usize = 32;

#[derive(Debug, Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

#[derive(Debug)]
struct OpenSpan {
    kind: String,
    path: String,
    started: Instant,
}

#[derive(Debug)]
struct SpanDone {
    kind: String,
    path: String,
    dur_us: u64,
    meta: Vec<(String, String)>,
}

/// The span state one owner keeps: open spans, per-kind aggregates and the
/// recent-completions ring. Shared with its spans through an `Arc`.
#[derive(Debug, Default)]
pub struct SpanLog {
    next_id: AtomicU64,
    open: Mutex<BTreeMap<u64, OpenSpan>>,
    aggs: Mutex<BTreeMap<String, SpanAgg>>,
    recent: Mutex<VecDeque<SpanDone>>,
}

impl SpanLog {
    /// Opens a root span. `label` is the display leaf (e.g. the campaign
    /// name); pass `""` to display the kind name itself.
    #[must_use]
    pub fn span(self: &Arc<Self>, name: &str, label: &str) -> Span {
        Span::start(Arc::clone(self), None, name, label)
    }

    /// A snapshot holding only this log's spans: per-kind aggregates, open
    /// spans oldest-first and recent completions oldest-first.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let span_aggs = lock_recover(&self.aggs)
            .iter()
            .map(|(kind, a)| SpanAggSnapshot {
                kind: kind.clone(),
                count: a.count,
                total_us: a.total_us,
                max_us: a.max_us,
            })
            .collect();
        let mut open: Vec<(Instant, OpenSpanSnapshot)> = lock_recover(&self.open)
            .values()
            .map(|o| {
                let snap = OpenSpanSnapshot {
                    kind: o.kind.clone(),
                    path: o.path.clone(),
                    elapsed_us: o.started.elapsed().as_micros() as u64,
                };
                (o.started, snap)
            })
            .collect();
        open.sort_by_key(|(started, _)| *started);
        let recent_spans = lock_recover(&self.recent)
            .iter()
            .map(|d| SpanRecordSnapshot {
                kind: d.kind.clone(),
                path: d.path.clone(),
                dur_us: d.dur_us,
                meta: d.meta.clone(),
            })
            .collect();
        MetricsSnapshot {
            span_aggs,
            open_spans: open.into_iter().map(|(_, s)| s).collect(),
            recent_spans,
            ..MetricsSnapshot::default()
        }
    }
}

/// A wall-clock span (see module docs). Dropping records the duration.
pub struct Span {
    log: Arc<SpanLog>,
    id: u64,
    kind: String,
    path: String,
    started: Instant,
    meta: Vec<(String, String)>,
}

impl Span {
    fn start(log: Arc<SpanLog>, parent: Option<(&str, &str)>, name: &str, label: &str) -> Span {
        let leaf = if label.is_empty() { name } else { label };
        let (kind, path) = match parent {
            Some((pkind, ppath)) => (format!("{pkind}/{name}"), format!("{ppath}/{leaf}")),
            None => (name.to_string(), leaf.to_string()),
        };
        let id = log.next_id.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        lock_recover(&log.open)
            .insert(id, OpenSpan { kind: kind.clone(), path: path.clone(), started });
        Span { log, id, kind, path, started, meta: Vec::new() }
    }

    /// Opens a child span. `label` is the display leaf (e.g. a `SimKey`
    /// hex string); pass `""` to display `name` itself.
    #[must_use]
    pub fn child(&self, name: &str, label: &str) -> Span {
        Span::start(Arc::clone(&self.log), Some((&self.kind, &self.path)), name, label)
    }

    /// Attaches an attribution note (shown with the completed span in
    /// snapshots), e.g. `engine_mode=adaptive`, `cycles_per_sec=1.2e8`.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.started.elapsed().as_micros() as u64;
        let log = &self.log;
        lock_recover(&log.open).remove(&self.id);
        let kind = std::mem::take(&mut self.kind);
        {
            let mut aggs = lock_recover(&log.aggs);
            let agg = aggs.entry(kind.clone()).or_default();
            agg.count += 1;
            agg.total_us += dur_us;
            agg.max_us = agg.max_us.max(dur_us);
        }
        let (path, meta) = (std::mem::take(&mut self.path), std::mem::take(&mut self.meta));
        let mut recent = lock_recover(&log.recent);
        if recent.len() >= RECENT_SPAN_CAP {
            recent.pop_front();
        }
        recent.push_back(SpanDone { kind, path, dur_us, meta });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_track_open_then_aggregate_on_close() {
        let log = Arc::new(SpanLog::default());
        let mut campaign = log.span("campaign", "fig_test");
        let job = campaign.child("job", "00aabbcc");
        {
            let snap = log.snapshot();
            assert_eq!(snap.open_spans.len(), 2);
            assert_eq!(snap.open_spans[0].path, "fig_test");
            assert_eq!(snap.open_spans[1].path, "fig_test/00aabbcc");
            assert_eq!(snap.open_spans[1].kind, "campaign/job");
            assert!(snap.span_aggs.is_empty());
        }
        {
            let mut phase = job.child("simulate", "");
            phase.note("engine_mode", "adaptive");
        }
        job.finish();
        campaign.note("cells", 1);
        drop(campaign);

        let snap = log.snapshot();
        assert!(snap.open_spans.is_empty());
        let kinds: Vec<&str> = snap.span_aggs.iter().map(|a| a.kind.as_str()).collect();
        assert_eq!(kinds, ["campaign", "campaign/job", "campaign/job/simulate"]);
        for agg in &snap.span_aggs {
            assert_eq!(agg.count, 1);
            assert_eq!(agg.max_us, agg.total_us, "single sample: max == total");
        }
        let sim = snap
            .recent_spans
            .iter()
            .find(|r| r.kind == "campaign/job/simulate")
            .expect("simulate span in recent ring");
        assert_eq!(sim.path, "fig_test/00aabbcc/simulate");
        assert_eq!(sim.meta, [("engine_mode".to_string(), "adaptive".to_string())]);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let log = Arc::new(SpanLog::default());
        for i in 0..(RECENT_SPAN_CAP + 5) {
            log.span("unit", &format!("u{i}")).finish();
        }
        let snap = log.snapshot();
        assert_eq!(snap.recent_spans.len(), RECENT_SPAN_CAP);
        assert_eq!(snap.recent_spans.last().unwrap().path, format!("u{}", RECENT_SPAN_CAP + 4));
        assert_eq!(snap.span_aggs[0].count, (RECENT_SPAN_CAP + 5) as u64);
    }
}
