//! Live campaign view (`repro top`): renders the most recent metrics
//! snapshots as a terminal dashboard.
//!
//! The renderer is deliberately pure — [`render_frame`] maps a slice of
//! [`MetricsSnapshot`]s (oldest first, as loaded from a snapshot stream
//! under `results/.metrics/`) to a string — so the CLI loop, the tests,
//! and the verify smoke all exercise exactly the same code. Rates
//! (jobs/s, cycles/s) come from deltas between the last two snapshots;
//! a single-snapshot stream renders totals with the rates marked `n/a`.

use subcore_metrics::names as mx;
use subcore_metrics::MetricsSnapshot;

/// Maximum in-flight spans a frame lists before eliding the rest.
const MAX_INFLIGHT_ROWS: usize = 12;

/// Maximum recent completions a frame lists.
const MAX_RECENT_ROWS: usize = 8;

/// Formats a microsecond duration compactly (`480us`, `120ms`, `12.3s`).
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{}ms", us / 1_000)
    } else {
        format!("{:.1}s", us as f64 / 1e6)
    }
}

/// Formats a count with an SI suffix (`950`, `1.2k`, `45.6M`).
fn fmt_count(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// The change of counter `name` between the last two snapshots, when both
/// carry it.
fn delta(prev: &MetricsSnapshot, last: &MetricsSnapshot, name: &str) -> Option<u64> {
    let (a, b) = (prev.counter(name)?, last.counter(name)?);
    Some(b.saturating_sub(a))
}

/// Per-second rate of counter `name` over the last snapshot interval.
fn rate(snaps: &[MetricsSnapshot], name: &str) -> Option<f64> {
    let [.., prev, last] = snaps else { return None };
    let dt_us = last.uptime_us.saturating_sub(prev.uptime_us);
    if dt_us == 0 {
        return None;
    }
    Some(delta(prev, last, name)? as f64 / (dt_us as f64 / 1e6))
}

/// Sums every counter whose name starts with `prefix`, keeping the
/// suffixes (`engine.mode.event` → `("event", n)`).
fn by_prefix<'a>(snap: &'a MetricsSnapshot, prefix: &str) -> Vec<(&'a str, u64)> {
    snap.counters
        .iter()
        .filter_map(|(n, v)| n.strip_prefix(prefix).map(|suffix| (suffix, *v)))
        .collect()
}

/// Renders one `repro top` frame from a snapshot stream (oldest first).
/// An empty slice renders a "waiting for snapshots" placeholder.
#[must_use]
pub fn render_frame(snaps: &[MetricsSnapshot]) -> String {
    use std::fmt::Write as _;
    let Some(last) = snaps.last() else {
        return "repro top: no metrics snapshots yet (is a campaign running with \
                metrics enabled?)\n"
            .to_owned();
    };
    let c = |name: &str| last.counter(name).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "subcore repro top — snapshot #{} · uptime {}",
        last.seq,
        fmt_us(last.uptime_us)
    );

    let _ = writeln!(
        out,
        "  jobs     started {}  done {}  failed {}  retried {}  timed-out {}  aborted {}",
        c(mx::SUPERVISOR_JOB_STARTED),
        c(mx::SUPERVISOR_JOB_DONE),
        c(mx::SUPERVISOR_JOB_FAILED),
        c(mx::SUPERVISOR_JOB_RETRY),
        c(mx::SUPERVISOR_JOB_TIMEOUT),
        c(mx::SUPERVISOR_JOB_ABORTED),
    );

    let runs = c(mx::SESSION_RUN);
    let hits = c(mx::SESSION_CACHE_HIT) + c(mx::SESSION_CACHE_DISK_HIT);
    let hit_rate = if runs == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", hits as f64 / runs as f64 * 100.0)
    };
    let _ = writeln!(
        out,
        "  sims     run {}  simulated {}  cache-hit {} ({})  store-drops {}",
        runs,
        c(mx::SESSION_SIM),
        hits,
        hit_rate,
        c(mx::SESSION_CACHE_STORE_DROP),
    );

    let cyc_rate = rate(snaps, mx::ENGINE_CYCLES)
        .map_or_else(|| "n/a".to_owned(), |r| format!("{}cyc/s", fmt_count(r)));
    let modes = by_prefix(last, mx::ENGINE_MODE_PREFIX);
    let modes = if modes.is_empty() {
        "n/a".to_owned()
    } else {
        modes.iter().map(|(m, n)| format!("{m} {n}")).collect::<Vec<_>>().join(", ")
    };
    let _ = writeln!(
        out,
        "  engine   {} now · {}cyc total · modes: {}",
        cyc_rate,
        fmt_count(c(mx::ENGINE_CYCLES) as f64),
        modes,
    );

    let job_rate = rate(snaps, mx::SUPERVISOR_JOB_DONE)
        .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.1} jobs/s"));
    let wall = last.histogram(mx::SESSION_SIM_WALL_US);
    let (p50, p95, mean) =
        wall.map_or((0, 0, 0.0), |h| (h.quantile(0.5), h.quantile(0.95), h.mean()));
    let _ = writeln!(
        out,
        "  wall     {job_rate} · sim p50 {}  p95 {}  mean {}",
        fmt_us(p50),
        fmt_us(p95),
        fmt_us(mean as u64),
    );

    let _ = writeln!(
        out,
        "  journal  done {}  failed {}  skips {}  write-drops {}  ·  trace drops {}",
        c(mx::JOURNAL_RECORD_DONE),
        c(mx::JOURNAL_RECORD_FAILED),
        c(mx::JOURNAL_SKIP),
        c(mx::JOURNAL_WRITE_DROP),
        c(mx::TRACE_EVENTS_DROPPED),
    );

    // The serve row only renders when the stream comes from a daemon —
    // batch campaigns never touch `serve.*` and shouldn't pay the line.
    let has_serve = last.counters.iter().any(|(n, _)| n.starts_with("serve."))
        || last.gauges.iter().any(|(n, _)| n.starts_with("serve."));
    if has_serve {
        let depth = last.gauge(mx::SERVE_QUEUE_DEPTH).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  serve    depth {}  submitted {}  coalesced {}  shed {}  lease-expired {}  \
             done {}  failed {}",
            depth as u64,
            c(mx::SERVE_SUBMITTED),
            c(mx::SERVE_COALESCED),
            c(mx::SERVE_SHED),
            c(mx::SERVE_LEASE_EXPIRED),
            c(mx::SERVE_JOB_DONE),
            c(mx::SERVE_JOB_FAILED),
        );
    }

    let _ = writeln!(out, "\nin-flight ({}):", last.open_spans.len());
    if last.open_spans.is_empty() {
        let _ = writeln!(out, "  (idle)");
    }
    for span in last.open_spans.iter().take(MAX_INFLIGHT_ROWS) {
        let _ = writeln!(out, "  [{:>8}] {}  ({})", fmt_us(span.elapsed_us), span.path, span.kind);
    }
    if last.open_spans.len() > MAX_INFLIGHT_ROWS {
        let _ = writeln!(out, "  … and {} more", last.open_spans.len() - MAX_INFLIGHT_ROWS);
    }

    let _ = writeln!(out, "\nrecent completions:");
    if last.recent_spans.is_empty() {
        let _ = writeln!(out, "  (none yet)");
    }
    for rec in last.recent_spans.iter().rev().take(MAX_RECENT_ROWS) {
        let meta: Vec<String> = rec.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "  [{:>8}] {}  {}", fmt_us(rec.dur_us), rec.path, meta.join(" "),);
    }
    out
}

/// Renders the human (non-Prometheus) `repro metrics` summary: every
/// counter, gauge, and histogram of the latest snapshot plus per-kind
/// span aggregates.
#[must_use]
pub fn render_metrics_summary(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics snapshot #{} (schema v{}, uptime {})",
        snap.seq,
        snap.version,
        fmt_us(snap.uptime_us)
    );
    let _ = writeln!(out, "\ncounters:");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "  {name:<32} {v}");
    }
    let _ = writeln!(out, "\ngauges:");
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "  {name:<32} {v:.3}");
    }
    let _ = writeln!(out, "\nhistograms (p50 / p95 / mean, count):");
    for h in &snap.histograms {
        let _ = writeln!(
            out,
            "  {:<32} {} / {} / {}  ({} samples)",
            h.name,
            fmt_us(h.quantile(0.5)),
            fmt_us(h.quantile(0.95)),
            fmt_us(h.mean() as u64),
            h.count,
        );
    }
    let _ = writeln!(out, "\nspans (count, total, max):");
    for agg in &snap.span_aggs {
        let _ = writeln!(
            out,
            "  {:<32} {:>6}  {:>10}  {:>10}",
            agg.kind,
            agg.count,
            fmt_us(agg.total_us),
            fmt_us(agg.max_us),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_metrics::Registry;

    fn snap_with(counters: &[(&str, u64)], uptime_us: u64, seq: u64) -> MetricsSnapshot {
        let reg = Registry::new();
        for &(name, v) in counters {
            reg.counter(name).inc_by(v);
        }
        let mut s = reg.snapshot();
        s.uptime_us = uptime_us;
        s.seq = seq;
        s
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        let frame = render_frame(&[]);
        assert!(frame.contains("no metrics snapshots"), "got: {frame}");
    }

    #[test]
    fn frame_shows_totals_hit_rate_and_rates() {
        let prev = snap_with(
            &[(mx::SUPERVISOR_JOB_DONE, 10), (mx::ENGINE_CYCLES, 1_000_000)],
            1_000_000,
            1,
        );
        let last = snap_with(
            &[
                (mx::SUPERVISOR_JOB_DONE, 30),
                (mx::ENGINE_CYCLES, 5_000_000),
                (mx::SESSION_RUN, 40),
                (mx::SESSION_CACHE_HIT, 9),
                (mx::SESSION_CACHE_DISK_HIT, 1),
                (mx::SESSION_SIM, 30),
            ],
            2_000_000,
            2,
        );
        let frame = render_frame(&[prev, last]);
        assert!(frame.contains("done 30"), "totals from the last snapshot:\n{frame}");
        assert!(frame.contains("25.0%"), "10 of 40 runs were cache hits:\n{frame}");
        assert!(frame.contains("20.0 jobs/s"), "20 jobs over 1s:\n{frame}");
        assert!(frame.contains("4.0Mcyc/s"), "4M cycles over 1s:\n{frame}");
    }

    #[test]
    fn serve_row_renders_only_for_daemon_streams() {
        let batch = snap_with(&[(mx::SUPERVISOR_JOB_DONE, 3)], 500_000, 1);
        assert!(!render_frame(&[batch]).contains("serve"), "batch streams skip the serve row");
        let reg = Registry::new();
        reg.counter(mx::SERVE_SUBMITTED).inc_by(7);
        reg.counter(mx::SERVE_SHED).inc_by(2);
        reg.gauge(mx::SERVE_QUEUE_DEPTH).set(5.0);
        let frame = render_frame(&[reg.snapshot()]);
        assert!(frame.contains("serve    depth 5"), "daemon gauge renders:\n{frame}");
        assert!(frame.contains("submitted 7"), "daemon counters render:\n{frame}");
        assert!(frame.contains("shed 2"), "shed counter renders:\n{frame}");
    }

    #[test]
    fn single_snapshot_marks_rates_unavailable() {
        let only = snap_with(&[(mx::SUPERVISOR_JOB_DONE, 5)], 500_000, 1);
        let frame = render_frame(&[only]);
        assert!(frame.contains("n/a"), "rates need two snapshots:\n{frame}");
        assert!(frame.contains("done 5"));
    }

    #[test]
    fn frame_lists_open_and_recent_spans() {
        let reg = Registry::new();
        let campaign = reg.span("campaign", "fig09");
        let mut job = campaign.child("job", "deadbeef");
        job.note("engine_mode", "event");
        job.finish();
        let _open = campaign.child("job", "cafebabe");
        let frame = render_frame(&[reg.snapshot()]);
        assert!(frame.contains("fig09/cafebabe"), "open span path:\n{frame}");
        assert!(frame.contains("engine_mode=event"), "recent span notes:\n{frame}");
    }

    #[test]
    fn metrics_summary_lists_every_section() {
        let reg = Registry::new();
        reg.counter("a.b").inc();
        reg.gauge("g.h").set(1.5);
        reg.histogram("h.us").observe(1000);
        reg.span("campaign", "x").finish();
        let text = render_metrics_summary(&reg.snapshot());
        for needle in ["counters:", "gauges:", "histograms", "spans", "a.b", "g.h", "h.us"] {
            assert!(text.contains(needle), "missing `{needle}`:\n{text}");
        }
    }
}
