//! Per-session run telemetry: where each result came from (fresh
//! simulation, in-memory memo, or disk cache), how long the simulations
//! took (including probe-traced runs), how well the worker pool was
//! utilized, and which supervised jobs failed.
//!
//! Each [`crate::session::SimSession`] owns one [`Telemetry`], and nothing
//! process-wide sits behind it: the session notes its own runs, a
//! supervised pool books each job as it starts and settles (and its usage
//! and failure records when it ends) on the session its campaign runs on,
//! and the campaign drivers note their journal writes, journal skips and
//! tenant slowdowns there too. The ledger is the one account: the summary
//! block, `run_telemetry.csv` and the live export ([`Telemetry::metrics`],
//! pulled by the snapshot stream behind `repro top` and by the daemon's
//! `/metrics`) all read its fields.

use crate::report::csv_field;
use crate::supervisor::{JobError, JobErrorKind, SuperviseReport};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use subcore_metrics::names as mx;
use subcore_metrics::{lock_recover, HistogramSnapshot, MetricsSnapshot};

/// Schema version of `run_telemetry.csv`, mirroring the engine's
/// [`subcore_engine::STATS_SCHEMA_VERSION`] discipline: the first CSV
/// line is a `# subcore-run-telemetry schema=N …` tag so downstream
/// tooling can detect column drift instead of silently misparsing.
/// History: v1 (untagged, header-first) through PR 6; v2 adds the tag
/// line itself; v3 drops the two always-zero `adaptive_*` columns.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// Where a [`crate::session::SimSession::run_cell`] result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Freshly simulated in this process.
    Simulated,
    /// Loaded from the on-disk result cache.
    Disk,
}

impl RunSource {
    /// Stable lowercase tag used in the telemetry CSV.
    pub fn tag(&self) -> &'static str {
        match self {
            RunSource::Simulated => "sim",
            RunSource::Disk => "disk",
        }
    }
}

/// One materialized (non-memoized) session run.
///
/// Memo hits are counted but not recorded: a sweep produces thousands of
/// them and they carry no information beyond the original record.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's [`crate::session::SimKey`] fingerprint.
    pub key: u64,
    /// Application name.
    pub app: String,
    /// Design label (see `Design::label`).
    pub design: String,
    /// Fresh simulation or disk-cache load.
    pub source: RunSource,
    /// Whether the run had the engine's probe points enabled
    /// (`trace_window > 0`), so its wall time includes tracing overhead.
    pub traced: bool,
    /// Wall time spent materializing the result.
    pub wall: Duration,
    /// Simulated cycles of the result.
    pub cycles: u64,
    /// Engine-mode tag the run's configuration selected
    /// ([`subcore_engine::EngineMode::tag`]).
    pub engine_mode: &'static str,
    /// Static cost-model cycle prediction registered for this run's key
    /// before it materialized ([`crate::session::SimSession::predict`]),
    /// `None` when no prediction was on file.
    pub predicted_cycles: Option<u64>,
    /// Tenant name for per-tenant rows of a multi-tenant co-schedule cell
    /// (`repro tenants`); `None` for ordinary single-app runs.
    pub tenant: Option<String>,
    /// Deadline slack (deadline − finish, cycles; negative = missed) for
    /// tenant rows whose tenant carries a deadline.
    pub deadline_slack: Option<i64>,
    /// Compact SM-partition label (`SmSet::label`, e.g. `0-2`) for tenant
    /// rows.
    pub partition_sms: Option<String>,
}

impl RunRecord {
    /// Relative predicted-vs-actual cycle error,
    /// `|predicted − actual| / actual`. `None` when no prediction was on
    /// file (or the run reported zero cycles, which only failures do).
    pub fn estimate_error(&self) -> Option<f64> {
        let predicted = self.predicted_cycles?;
        if self.cycles == 0 {
            return None;
        }
        Some((predicted as f64 - self.cycles as f64).abs() / self.cycles as f64)
    }
}

/// The run ledger owned by a [`crate::session::SimSession`].
#[derive(Debug, Default)]
pub struct Telemetry {
    // The memo-hit path touches only these two; everything else is behind
    // the one lock a materialized run takes anyway to keep its record.
    runs: AtomicU64,
    memo_hits: AtomicU64,
    ledger: Mutex<Ledger>,
}

#[derive(Debug, Default)]
struct Ledger {
    /// Every total except `runs`, `memo_hits` and `jobs_cap`, which
    /// [`Telemetry::snapshot`] fills in.
    totals: TelemetrySnapshot,
    /// What only the live export reads.
    live: Live,
    records: Vec<RunRecord>,
    /// Supervised-job failure records, pool by pool, in item order within
    /// a pool.
    failures: Vec<JobError>,
}

/// The ledger's fields that the summary block does not print but
/// [`Telemetry::metrics`] reports.
#[derive(Debug)]
struct Live {
    jobs_started: u64,
    jobs_done: u64,
    jobs_aborted: u64,
    journal_done: u64,
    journal_failed: u64,
    journal_drops: u64,
    deadline_misses: u64,
    /// Simulated cycles per second of the most recent fresh simulation.
    last_cycles_per_sec: f64,
    /// Workers of the most recent supervised pool.
    last_pool_workers: usize,
    sim_wall_us: HistogramSnapshot,
    estimate_error_pct: HistogramSnapshot,
    job_wall_us: HistogramSnapshot,
    tenant_slowdown_pct: HistogramSnapshot,
}

impl Default for Live {
    fn default() -> Live {
        Live {
            jobs_started: 0,
            jobs_done: 0,
            jobs_aborted: 0,
            journal_done: 0,
            journal_failed: 0,
            journal_drops: 0,
            deadline_misses: 0,
            last_cycles_per_sec: 0.0,
            last_pool_workers: 0,
            sim_wall_us: HistogramSnapshot::new(mx::SESSION_SIM_WALL_US),
            estimate_error_pct: HistogramSnapshot::new(mx::ESTIMATE_ERROR_PCT),
            job_wall_us: HistogramSnapshot::new(mx::SUPERVISOR_JOB_WALL_US),
            tenant_slowdown_pct: HistogramSnapshot::new(mx::TENANT_SLOWDOWN_PCT),
        }
    }
}

impl Ledger {
    /// Adds one materialized run to the totals.
    fn count_materialized(&mut self, record: &RunRecord) {
        let t = &mut self.totals;
        match record.source {
            RunSource::Simulated => {
                t.sims += 1;
                t.sim_wall += record.wall;
                t.sim_cycles += record.cycles;
                if record.traced {
                    t.traced_sims += 1;
                    t.traced_wall += record.wall;
                }
                match record.engine_mode {
                    "reference" => t.mode_reference += 1,
                    "adaptive" => t.mode_adaptive += 1,
                    _ => {}
                }
                let live = &mut self.live;
                live.last_cycles_per_sec =
                    record.cycles as f64 / record.wall.as_secs_f64().max(1e-9);
                live.sim_wall_us.observe(micros(record.wall));
                if let Some(error) = record.estimate_error() {
                    live.estimate_error_pct.observe((error * 100.0) as u64);
                }
            }
            RunSource::Disk => t.disk_hits += 1,
        }
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Telemetry {
    /// Counts one `run_cell` or `try_run_transient` call (any outcome).
    pub(crate) fn note_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a run served from the in-memory memo table.
    pub(crate) fn note_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Books one materialized cell (fresh simulation or disk load): its
    /// `record` into the totals, and `rows` as its telemetry rows — the
    /// record itself for an app, one row per tenant for a mix (counted as
    /// `tenant jobs`, and as deadline misses where a tenant finished late;
    /// the cell's record already counted the simulation), none for a
    /// caller that keeps the result itself (the serve daemon), so the
    /// session's memory stays flat however many it serves.
    pub(crate) fn note_materialized(&self, record: &RunRecord, rows: Vec<RunRecord>) {
        let mut ledger = lock_recover(&self.ledger);
        ledger.count_materialized(record);
        ledger.totals.tenant_jobs += rows.iter().filter(|r| r.tenant.is_some()).count() as u64;
        ledger.live.deadline_misses +=
            rows.iter().filter(|r| r.deadline_slack.is_some_and(|s| s < 0)).count() as u64;
        ledger.records.extend(rows);
    }

    /// Counts one failed write to the on-disk result cache (see
    /// [`crate::cache::DiskCache::store`]); surfaced once per session in
    /// the summary so a read-only `results/` can't silently disable
    /// persistence.
    pub(crate) fn note_cache_write_failure(&self) {
        lock_recover(&self.ledger).totals.cache_write_failures += 1;
    }

    /// Counts trace events a bounded `JsonlSink` dropped (limit reached or
    /// write failure) during a `repro trace` capture.
    pub(crate) fn note_trace_drops(&self, dropped: u64) {
        if dropped == 0 {
            return;
        }
        lock_recover(&self.ledger).totals.trace_drops += dropped;
    }

    /// Counts one supervised job handed to a worker.
    pub(crate) fn note_job_started(&self) {
        lock_recover(&self.ledger).live.jobs_started += 1;
    }

    /// Books one supervised job as it settles: done, or failed (a panic
    /// or simulator error), after `wall` of work.
    pub(crate) fn note_job_settled(&self, done: bool, wall: Duration) {
        let mut ledger = lock_recover(&self.ledger);
        if done {
            ledger.live.jobs_done += 1;
        } else {
            ledger.totals.failed += 1;
        }
        ledger.live.job_wall_us.observe(micros(wall));
    }

    /// Books the end of one supervised pool whose jobs were booked here as
    /// they settled: its usage, the jobs it aborted, and the failure
    /// records of every unfilled job, in item order.
    pub(crate) fn note_pool<R>(&self, report: &SuperviseReport<R>) {
        let failures = report.failures();
        let mut ledger = lock_recover(&self.ledger);
        let aborted = failures.iter().filter(|e| e.kind == JobErrorKind::Aborted).count();
        ledger.live.jobs_aborted += aborted as u64;
        let t = &mut ledger.totals;
        t.pool_busy += report.pool_busy;
        t.pool_wall += report.pool_wall;
        t.pool_max_workers = t.pool_max_workers.max(report.workers);
        if report.workers > 0 {
            ledger.live.last_pool_workers = report.workers;
        }
        ledger.failures.extend(failures);
    }

    /// Counts sweep cells skipped because the campaign journal already
    /// recorded them complete (`repro --resume`).
    pub(crate) fn note_journal_skips(&self, skips: u64) {
        lock_recover(&self.ledger).totals.journal_skips += skips;
    }

    /// Counts one journal record write: a completed (`done`) or failed
    /// cell, or a dropped write when it did not `land`.
    pub(crate) fn note_journal_write(&self, done: bool, landed: bool) {
        let live = &mut lock_recover(&self.ledger).live;
        match (landed, done) {
            (false, _) => live.journal_drops += 1,
            (true, true) => live.journal_done += 1,
            (true, false) => live.journal_failed += 1,
        }
    }

    /// Records one tenant's co-scheduled slowdown over its solo run, in
    /// percent.
    pub(crate) fn note_tenant_slowdown(&self, pct: u64) {
        lock_recover(&self.ledger).live.tenant_slowdown_pct.observe(pct);
    }

    /// The ledger as a metrics snapshot: every name `names.rs` gives this
    /// ledger, zero where nothing happened yet. `seq` and `uptime_us` are
    /// left for the reader to stamp.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (runs, memo_hits) =
            (self.runs.load(Ordering::Relaxed), self.memo_hits.load(Ordering::Relaxed));
        let ledger = lock_recover(&self.ledger);
        let (t, live) = (&ledger.totals, &ledger.live);
        let reference = format!("{}reference", mx::ENGINE_MODE_PREFIX);
        let adaptive = format!("{}adaptive", mx::ENGINE_MODE_PREFIX);
        MetricsSnapshot::of(
            vec![
                (mx::SESSION_RUN, runs),
                (mx::SESSION_CACHE_HIT, memo_hits),
                (mx::SESSION_CACHE_DISK_HIT, t.disk_hits),
                (mx::SESSION_CACHE_STORE_DROP, t.cache_write_failures),
                (mx::SESSION_SIM, t.sims),
                (mx::ENGINE_CYCLES, t.sim_cycles),
                (&reference, t.mode_reference),
                (&adaptive, t.mode_adaptive),
                (mx::SUPERVISOR_JOB_STARTED, live.jobs_started),
                (mx::SUPERVISOR_JOB_DONE, live.jobs_done),
                (mx::SUPERVISOR_JOB_FAILED, t.failed),
                (mx::SUPERVISOR_JOB_ABORTED, live.jobs_aborted),
                (mx::POOL_BUSY_US, micros(t.pool_busy)),
                (mx::JOURNAL_SKIP, t.journal_skips),
                (mx::JOURNAL_RECORD_DONE, live.journal_done),
                (mx::JOURNAL_RECORD_FAILED, live.journal_failed),
                (mx::JOURNAL_WRITE_DROP, live.journal_drops),
                (mx::TRACE_EVENTS_DROPPED, t.trace_drops),
                (mx::TENANT_DEADLINE_MISS, live.deadline_misses),
            ],
            vec![
                (mx::ENGINE_CYCLES_PER_SEC, live.last_cycles_per_sec),
                (mx::POOL_WORKERS, live.last_pool_workers as f64),
            ],
            vec![
                live.sim_wall_us.clone(),
                live.estimate_error_pct.clone(),
                live.job_wall_us.clone(),
                live.tenant_slowdown_pct.clone(),
            ],
        )
    }

    /// A point-in-time copy of the totals.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            jobs_cap: crate::runner::jobs_cap(),
            ..lock_recover(&self.ledger).totals
        }
    }

    /// A copy of the materialized-run records, in materialization order.
    pub fn records(&self) -> Vec<RunRecord> {
        lock_recover(&self.ledger).records.clone()
    }

    /// A copy of the failure records of the supervised sweeps that ran on
    /// this session, sweep by sweep, in item order within a sweep.
    pub fn failure_records(&self) -> Vec<JobError> {
        lock_recover(&self.ledger).failures.clone()
    }

    /// Writes the per-run records as CSV (`key,app,design,source,traced,
    /// wall_ms,cycles,cycles_per_sec,jobs,engine_mode,predicted_cycles,
    /// estimate_error,tenant,deadline_slack,partition_sms`) atomically
    /// (`subcore_persist::record::write_atomic`), creating parent
    /// directories as needed. The first line is the
    /// `# subcore-run-telemetry schema=N` version tag (see
    /// [`TELEMETRY_SCHEMA_VERSION`]); readers resolve columns by header
    /// name after the `#` lines.
    /// Free-form fields are escaped via [`csv_field`]; the `jobs` column
    /// carries the session's worker-count ceiling (empty when uncapped) so
    /// archived telemetry records the pool geometry the wall times were
    /// measured under, and `engine_mode` records which engine core
    /// produced each result.
    /// `predicted_cycles` / `estimate_error` carry the static cost-model
    /// prediction and its relative error for runs that had one on file,
    /// and stay empty otherwise. The trailing multi-tenant columns
    /// (`tenant`, `deadline_slack`, `partition_sms`) are populated only
    /// for per-tenant rows of `repro tenants` cells and stay empty for
    /// ordinary runs. Supervised-job failures
    /// append as rows whose `source` is the failure kind (`panic`,
    /// `sim-error`, …) with zero cycles and an empty engine mode, so a
    /// campaign's gaps are archived next to its results.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let jobs = crate::runner::jobs_cap().map_or(String::new(), |n| n.to_string());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# subcore-run-telemetry schema={TELEMETRY_SCHEMA_VERSION} \
             stats_schema={}",
            subcore_engine::STATS_SCHEMA_VERSION
        );
        let _ = writeln!(
            out,
            "key,app,design,source,traced,wall_ms,cycles,cycles_per_sec,jobs,\
             engine_mode,predicted_cycles,estimate_error,\
             tenant,deadline_slack,partition_sms"
        );
        for r in self.records() {
            let secs = r.wall.as_secs_f64();
            let rate = if secs > 0.0 { r.cycles as f64 / secs } else { f64::NAN };
            let predicted = r.predicted_cycles.map_or(String::new(), |p| p.to_string());
            let error = r.estimate_error().map_or(String::new(), |e| format!("{e:.4}"));
            let tenant =
                r.tenant.as_deref().map_or_else(String::new, |s| csv_field(s).into_owned());
            let slack = r.deadline_slack.map_or(String::new(), |s| s.to_string());
            let sms =
                r.partition_sms.as_deref().map_or_else(String::new, |s| csv_field(s).into_owned());
            let _ = writeln!(
                out,
                "{:016x},{},{},{},{},{:.3},{},{:.0},{},{},{},{},{},{},{}",
                r.key,
                csv_field(&r.app),
                csv_field(&r.design),
                r.source.tag(),
                r.traced,
                secs * 1e3,
                r.cycles,
                rate,
                jobs,
                r.engine_mode,
                predicted,
                error,
                tenant,
                slack,
                sms
            );
        }
        for e in self.failure_records() {
            let _ = writeln!(
                out,
                "{:016x},{},{},{},false,{:.3},0,nan,{},,,,,,",
                e.key.unwrap_or(0),
                csv_field(&e.app),
                csv_field(&e.design),
                e.kind.tag(),
                e.elapsed.as_secs_f64() * 1e3,
                jobs
            );
        }
        subcore_persist::record::write_atomic(path, out)
    }
}

/// A point-in-time view of a session's [`Telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Supervised jobs that settled as failed (panics and simulator
    /// errors, cycle-limit overruns included; excludes aborted-before-run
    /// jobs).
    pub failed: u64,
    /// Sweep cells skipped because the campaign journal already recorded
    /// them complete (`repro --resume`).
    pub journal_skips: u64,
    /// Trace events dropped by bounded `JsonlSink`s (event limit reached
    /// or a failed write), reported by `repro trace` captures.
    pub trace_drops: u64,
    /// Failed writes to the on-disk result cache (e.g. a read-only
    /// `results/` directory).
    pub cache_write_failures: u64,
    /// Total `run_cell` and `try_run_transient` calls.
    pub runs: u64,
    /// Runs served from the in-memory memo table.
    pub memo_hits: u64,
    /// Runs served from the on-disk cache.
    pub disk_hits: u64,
    /// Fresh simulations executed.
    pub sims: u64,
    /// Cumulative wall time of fresh simulations (sum over workers, so it
    /// can exceed elapsed real time under the parallel pool).
    pub sim_wall: Duration,
    /// Cumulative cycles simulated by fresh simulations.
    pub sim_cycles: u64,
    /// Fresh simulations that ran with probe tracing enabled.
    pub traced_sims: u64,
    /// Cumulative wall time of traced fresh simulations (a subset of
    /// `sim_wall`; the observable cost of the tracing subsystem).
    pub traced_wall: Duration,
    /// Fresh simulations that ran the polled reference engine.
    pub mode_reference: u64,
    /// Fresh simulations that ran the adaptive engine.
    pub mode_adaptive: u64,
    /// Per-tenant rows recorded by multi-tenant co-schedule cells
    /// (`repro tenants`); counted separately from `sims`, which tallies
    /// whole cells.
    pub tenant_jobs: u64,
    /// Cumulative busy time across all pool workers of this session's
    /// supervised sweeps.
    pub pool_busy: Duration,
    /// Cumulative wall time of this session's supervised sweeps.
    pub pool_wall: Duration,
    /// Largest worker count any of this session's supervised sweeps used.
    pub pool_max_workers: usize,
    /// The worker-count ceiling in force (`repro --jobs N` or the
    /// `SUBCORE_JOBS` environment variable), `None` when uncapped.
    pub jobs_cap: Option<usize>,
}

impl TelemetrySnapshot {
    /// Aggregate simulation throughput in simulated cycles per second of
    /// simulation wall time (NaN when nothing was simulated).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.sim_wall.as_secs_f64();
        if secs > 0.0 {
            self.sim_cycles as f64 / secs
        } else {
            f64::NAN
        }
    }

    /// Fraction of available worker time the pool kept busy, in `0..=1`
    /// (NaN when no supervised sweep ran).
    pub fn pool_utilization(&self) -> f64 {
        let available = self.pool_wall.as_secs_f64() * self.pool_max_workers as f64;
        if available > 0.0 {
            (self.pool_busy.as_secs_f64() / available).min(1.0)
        } else {
            f64::NAN
        }
    }

    /// Human-readable summary table (the block `repro` prints on exit).
    pub fn summary(&self) -> String {
        let mut s = String::from("session telemetry\n");
        let mut line = |label: &str, value: String| {
            s.push_str(&format!("  {label:<22} {value}\n"));
        };
        line("runs", self.runs.to_string());
        line("  fresh simulations", self.sims.to_string());
        line("  memo hits", self.memo_hits.to_string());
        line("  disk-cache hits", self.disk_hits.to_string());
        line("sim wall time", format!("{:.2}s", self.sim_wall.as_secs_f64()));
        if self.traced_sims > 0 {
            line(
                "  traced (probes on)",
                format!("{} runs, {:.2}s", self.traced_sims, self.traced_wall.as_secs_f64()),
            );
        }
        if self.sims > 0 {
            line(
                "engine modes",
                format!("{} adaptive, {} reference", self.mode_adaptive, self.mode_reference),
            );
        }
        if self.tenant_jobs > 0 {
            line("tenant jobs", format!("{} per-tenant rows", self.tenant_jobs));
        }
        line("sim cycles", self.sim_cycles.to_string());
        let rate = self.cycles_per_sec();
        line(
            "sim throughput",
            if rate.is_finite() { format!("{:.2} Mcycles/s", rate / 1e6) } else { "n/a".into() },
        );
        let util = self.pool_utilization();
        line(
            "pool utilization",
            if util.is_finite() {
                format!("{:.0}% of {} workers", util * 100.0, self.pool_max_workers)
            } else {
                "n/a".into()
            },
        );
        line(
            "jobs cap",
            match self.jobs_cap {
                Some(n) => n.to_string(),
                None => "none (all cores)".into(),
            },
        );
        if self.failed > 0 {
            line("supervision", format!("{} failed", self.failed));
        }
        if self.journal_skips > 0 {
            line("journal skips", format!("{} cells already complete", self.journal_skips));
        }
        if self.trace_drops > 0 {
            line(
                "trace events dropped",
                format!("{} (bounded sink limit reached; raise --limit)", self.trace_drops),
            );
        }
        if self.cache_write_failures > 0 {
            line(
                "cache write failures",
                format!(
                    "{} (results not persisted; is results/ writable?)",
                    self.cache_write_failures
                ),
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: RunSource, cycles: u64, wall_ms: u64) -> RunRecord {
        RunRecord {
            key: 0xABCD,
            app: "app".into(),
            design: "baseline".into(),
            source,
            traced: false,
            wall: Duration::from_millis(wall_ms),
            cycles,
            engine_mode: "adaptive",
            predicted_cycles: None,
            tenant: None,
            deadline_slack: None,
            partition_sms: None,
        }
    }

    /// Books `r` as an app cell: counted, and kept as its own row.
    fn keep(t: &Telemetry, r: RunRecord) {
        t.note_materialized(&r, vec![r.clone()]);
    }

    /// The header row of written telemetry: the first non-`#` line.
    fn header(text: &str) -> Vec<&str> {
        text.lines().find(|l| !l.starts_with('#')).expect("header row").split(',').collect()
    }

    #[test]
    fn counters_split_by_source() {
        let t = Telemetry::default();
        t.note_run();
        t.note_run();
        t.note_run();
        keep(&t, record(RunSource::Simulated, 1_000, 10));
        keep(&t, record(RunSource::Disk, 2_000, 1));
        t.note_memo_hit();
        let s = t.snapshot();
        assert_eq!(s.runs, 3);
        assert_eq!(s.sims, 1);
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.sim_cycles, 1_000, "disk hits do not count as simulated cycles");
        assert_eq!(s.sim_wall, Duration::from_millis(10));
        assert!((s.cycles_per_sec() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_snapshot_rates_are_nan() {
        let s = Telemetry::default().snapshot();
        assert!(s.cycles_per_sec().is_nan());
        assert_eq!(s.sims + s.runs + s.memo_hits + s.disk_hits, 0);
    }

    #[test]
    fn summary_mentions_every_counter() {
        let t = Telemetry::default();
        t.note_run();
        keep(&t, record(RunSource::Simulated, 5_000_000, 100));
        let text = t.snapshot().summary();
        for needle in
            ["runs", "fresh simulations", "memo hits", "disk-cache hits", "Mcycles/s", "jobs cap"]
        {
            assert!(text.contains(needle), "summary missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let t = Telemetry::default();
        keep(&t, record(RunSource::Simulated, 42, 2));
        keep(&t, record(RunSource::Disk, 43, 0));
        let dir = std::env::temp_dir().join(format!("subcore-telemetry-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "tag + header + one row per record:\n{text}");
        assert_eq!(
            lines[0],
            format!(
                "# subcore-run-telemetry schema={TELEMETRY_SCHEMA_VERSION} stats_schema={}",
                subcore_engine::STATS_SCHEMA_VERSION
            )
        );
        assert_eq!(
            lines[1],
            "key,app,design,source,traced,wall_ms,cycles,cycles_per_sec,jobs,\
             engine_mode,predicted_cycles,estimate_error,\
             tenant,deadline_slack,partition_sms"
        );
        assert!(lines[2].contains(",sim,false,"), "got {}", lines[2]);
        assert!(lines[2].ends_with(",adaptive,,,,,"), "trailing columns: {}", lines[2]);
        assert!(lines[3].contains(",disk,false,"), "got {}", lines[3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_csv_columns_match_schema() {
        let t = Telemetry::default();
        keep(&t, record(RunSource::Simulated, 1, 1));
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-cols-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let cols = header(&text);
        assert_eq!(cols.first(), Some(&"key"));
        assert_eq!(cols.last(), Some(&"partition_sms"));
        assert_eq!(cols.len(), 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prediction_columns_round_trip_through_tolerant_loading() {
        let t = Telemetry::default();
        let mut predicted = record(RunSource::Simulated, 1_000, 3);
        predicted.predicted_cycles = Some(1_250);
        keep(&t, predicted);
        keep(&t, record(RunSource::Simulated, 2_000, 3)); // no prediction
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-pred-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        // Columns are resolved by header name, not position.
        let cols = header(&text);
        let pi = cols.iter().position(|c| *c == "predicted_cycles").expect("predicted column");
        let ei = cols.iter().position(|c| *c == "estimate_error").expect("error column");
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split(',').collect())
            .filter(|f: &Vec<&str>| f.len() == cols.len())
            .collect();
        assert_eq!(rows.len(), 2, "both materialized rows survive");
        assert_eq!(rows[0][pi], "1250");
        // |1250 - 1000| / 1000 = 0.25.
        assert_eq!(rows[0][ei], "0.2500");
        assert_eq!(rows[1][pi], "", "prediction-free runs leave the columns empty");
        assert_eq!(rows[1][ei], "");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_rows_round_trip_and_count_separately() {
        let t = Telemetry::default();
        keep(&t, record(RunSource::Simulated, 10_000, 4)); // an app cell
        let mix = record(RunSource::Simulated, 7_500, 3); // a mix cell, kept per tenant
        let mut row = record(RunSource::Simulated, 7_000, 0);
        row.tenant = Some("latency".into());
        row.deadline_slack = Some(-250);
        row.partition_sms = Some("2-3".into());
        t.note_materialized(&mix, vec![row]);
        let s = t.snapshot();
        assert_eq!(s.sims, 2, "one simulation per cell; tenant rows add none");
        assert_eq!(t.records().len(), 2, "the mix cell keeps only its tenant row");
        assert_eq!(s.tenant_jobs, 1);
        assert!(s.summary().contains("tenant jobs"), "summary:\n{}", s.summary());
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-tenant-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let cols = header(&text);
        let ti = cols.iter().position(|c| *c == "tenant").expect("tenant column");
        let di = cols.iter().position(|c| *c == "deadline_slack").expect("slack column");
        let pi = cols.iter().position(|c| *c == "partition_sms").expect("partition column");
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split(',').collect())
            .filter(|f: &Vec<&str>| f.len() == cols.len())
            .collect();
        assert_eq!(rows[0][ti], "", "single-app rows leave the tenant columns empty");
        assert_eq!(rows[1][ti], "latency");
        assert_eq!(rows[1][di], "-250");
        assert_eq!(rows[1][pi], "2-3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_error_is_relative_and_absent_without_prediction() {
        let mut r = record(RunSource::Simulated, 2_000, 1);
        assert_eq!(r.estimate_error(), None);
        r.predicted_cycles = Some(1_500);
        assert!((r.estimate_error().unwrap() - 0.25).abs() < 1e-12);
        r.predicted_cycles = Some(2_500);
        assert!((r.estimate_error().unwrap() - 0.25).abs() < 1e-12, "error is absolute-valued");
        r.cycles = 0;
        assert_eq!(r.estimate_error(), None, "zero-cycle runs have no defined error");
    }

    #[test]
    fn trace_drops_surface_in_summary() {
        let t = Telemetry::default();
        t.note_trace_drops(0); // zero reports are free and invisible
        assert!(!t.snapshot().summary().contains("trace events dropped"));
        t.note_trace_drops(3);
        t.note_trace_drops(4);
        let s = t.snapshot();
        assert_eq!(s.trace_drops, 7);
        assert!(s.summary().contains("trace events dropped"));
        assert_eq!(Telemetry::default().snapshot().trace_drops, 0, "per session, not process");
    }

    #[test]
    fn csv_escapes_app_and_design_names() {
        let t = Telemetry::default();
        keep(
            &t,
            RunRecord {
                key: 1,
                app: "scan,filter".into(),
                design: "rba \"tuned\"".into(),
                source: RunSource::Simulated,
                traced: true,
                wall: Duration::from_millis(1),
                cycles: 10,
                engine_mode: "adaptive",
                predicted_cycles: None,
                tenant: None,
                deadline_slack: None,
                partition_sms: None,
            },
        );
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-esc-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let row = text.lines().nth(2).expect("one data row after tag + header");
        assert!(row.contains("\"scan,filter\""), "app not quoted: {row}");
        assert!(row.contains("\"rba \"\"tuned\"\"\""), "design not quoted: {row}");
        // Escaped, the row has exactly the header's field count: the
        // embedded comma and quotes no longer split it.
        let header_fields = header(&text).len();
        let mut fields = 0;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, header_fields, "row field count: {row}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_runs_counted_separately() {
        let t = Telemetry::default();
        let mut traced = record(RunSource::Simulated, 1_000, 30);
        traced.traced = true;
        keep(&t, traced);
        keep(&t, record(RunSource::Simulated, 2_000, 50));
        let s = t.snapshot();
        assert_eq!(s.sims, 2);
        assert_eq!(s.traced_sims, 1);
        assert_eq!(s.traced_wall, Duration::from_millis(30));
        assert_eq!(s.sim_wall, Duration::from_millis(80));
        assert!(s.summary().contains("traced (probes on)"));
    }

    fn failure(app: &str, kind: crate::supervisor::JobErrorKind) -> JobError {
        JobError {
            app: app.into(),
            design: "rba".into(),
            kind,
            payload: "boom".into(),
            elapsed: Duration::from_millis(7),
            key: Some(0xFEED),
        }
    }

    #[test]
    fn engine_modes_aggregate_in_snapshot_and_summary() {
        let t = Telemetry::default();
        keep(&t, record(RunSource::Simulated, 1_000, 5));
        let mut reference = record(RunSource::Simulated, 1_000, 5);
        reference.engine_mode = "reference";
        keep(&t, reference);
        // Disk hits don't count: their engine never ran in this process.
        keep(&t, record(RunSource::Disk, 1_000, 0));
        let s = t.snapshot();
        assert_eq!((s.mode_adaptive, s.mode_reference), (1, 1));
        let text = s.summary();
        assert!(text.contains("1 adaptive, 1 reference"), "summary missing engine modes:\n{text}");
    }

    #[test]
    fn cache_write_failures_surface_in_summary() {
        let t = Telemetry::default();
        assert!(!t.snapshot().summary().contains("cache write failures"));
        t.note_cache_write_failure();
        t.note_cache_write_failure();
        let s = t.snapshot();
        assert_eq!(s.cache_write_failures, 2);
        assert!(s.summary().contains("cache write failures"));
    }

    /// A one-job sweep report whose job failed as `e`.
    fn failed_report(e: JobError) -> SuperviseReport<()> {
        SuperviseReport {
            outcomes: vec![crate::supervisor::JobOutcome::Failed(e)],
            failed: 1,
            aborted: false,
            pool_busy: Duration::from_millis(30),
            pool_wall: Duration::from_millis(20),
            workers: 2,
        }
    }

    #[test]
    fn csv_appends_failure_rows() {
        use crate::supervisor::JobErrorKind;
        let t = Telemetry::default();
        keep(&t, record(RunSource::Simulated, 42, 2));
        t.note_pool(&failed_report(failure("deadapp", JobErrorKind::Panic)));
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-fail-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 4, "tag + header + run row + failure row:\n{text}");
        let row = text.lines().last().expect("failure row");
        assert!(row.contains(",deadapp,"), "failure rows follow the run rows: {row}");
        assert!(row.contains(",panic,false,"), "kind tag is the source column: {row}");
        assert!(row.contains("000000000000feed"), "failure row carries the key: {row}");
        assert!(row.ends_with(",,,,,,"), "failure rows carry empty trailing columns: {row}");
        assert_eq!(row.split(',').count(), header(&text).len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorbed_sweeps_accumulate_and_surface_in_summary() {
        use crate::supervisor::JobErrorKind;
        let t = Telemetry::default();
        assert!(t.snapshot().pool_utilization().is_nan(), "no sweep ran yet");
        // A pool books each job as it settles, and its usage and failure
        // records when it ends.
        t.note_job_settled(false, Duration::from_millis(7));
        t.note_pool(&failed_report(failure("one", JobErrorKind::Panic)));
        let mut wider = failed_report(failure("two", JobErrorKind::Sim));
        wider.workers = 4;
        t.note_job_settled(false, Duration::from_millis(7));
        t.note_pool(&wider);
        t.note_journal_skips(5);
        let s = t.snapshot();
        assert_eq!((s.failed, s.journal_skips), (2, 5));
        assert_eq!(s.pool_busy, Duration::from_millis(60));
        assert_eq!(s.pool_wall, Duration::from_millis(40));
        assert_eq!(s.pool_max_workers, 4, "the widest pool, not the sum");
        let apps: Vec<String> = t.failure_records().into_iter().map(|e| e.app).collect();
        assert_eq!(apps, ["one", "two"], "sweep order");
        let text = s.summary();
        assert!(text.contains("supervision") && text.contains(" 2 failed\n"), "summary:\n{text}");
        assert!(text.contains("journal skips"), "summary:\n{text}");
    }

    #[test]
    fn ledger_exports_every_name_it_owns() {
        use crate::supervisor::JobErrorKind;
        let t = Telemetry::default();
        let fresh = t.metrics();
        for name in [mx::SESSION_RUN, mx::SUPERVISOR_JOB_DONE, mx::JOURNAL_WRITE_DROP] {
            assert_eq!(fresh.counter(name), Some(0), "{name} reads 0 before anything happens");
        }
        assert!(fresh.counters.iter().all(|(n, _)| !n.starts_with("serve.")), "the daemon's");

        t.note_run();
        let mut predicted = record(RunSource::Simulated, 1_000, 2);
        predicted.predicted_cycles = Some(1_100);
        keep(&t, predicted);
        t.note_job_started();
        t.note_job_settled(true, Duration::from_millis(3));
        t.note_job_started();
        t.note_job_settled(false, Duration::from_millis(1));
        let mut report = failed_report(failure("gone", JobErrorKind::Aborted));
        report.failed = 0;
        t.note_pool(&report);
        t.note_journal_write(true, true);
        t.note_journal_write(false, false);
        t.note_tenant_slowdown(130);
        let m = t.metrics();
        let c = |name: &str| m.counter(name).unwrap_or(u64::MAX);
        assert_eq!((c(mx::SESSION_RUN), c(mx::SESSION_SIM), c(mx::ENGINE_CYCLES)), (1, 1, 1_000));
        assert_eq!(c("engine.mode.adaptive"), 1);
        let jobs = [mx::SUPERVISOR_JOB_STARTED, mx::SUPERVISOR_JOB_DONE, mx::SUPERVISOR_JOB_FAILED];
        assert_eq!(jobs.map(c), [2, 1, 1]);
        assert_eq!(c(mx::SUPERVISOR_JOB_ABORTED), 1);
        assert_eq!((c(mx::JOURNAL_RECORD_DONE), c(mx::JOURNAL_WRITE_DROP)), (1, 1));
        assert_eq!(c(mx::POOL_BUSY_US), 30_000);
        assert_eq!(m.gauge(mx::POOL_WORKERS), Some(2.0));
        let count = |name: &str| m.histogram(name).map_or(0, |h| h.count);
        assert_eq!(count(mx::SESSION_SIM_WALL_US), 1);
        assert_eq!(count(mx::ESTIMATE_ERROR_PCT), 1);
        assert_eq!(count(mx::SUPERVISOR_JOB_WALL_US), 2);
        assert_eq!(count(mx::TENANT_SLOWDOWN_PCT), 1);
        assert_eq!(t.snapshot().failed, 1, "the summary reads the same field");
    }
}
