//! Per-session run telemetry: where each result came from (fresh
//! simulation, in-memory memo, or disk cache), how long the simulations
//! took (including probe-traced runs), and how well the worker pool was
//! utilized.
//!
//! The counters live on the [`crate::session::SimSession`]; pool usage and
//! supervision outcomes (failed / retried / timed-out jobs, journal skips)
//! are reported by [`crate::runner::parallel_map`] and
//! [`crate::supervisor::supervise_map`] into process-wide logs (the pool
//! has no session handle). Each [`Telemetry`] captures the log positions
//! at construction and its snapshots only cover usage reported *after*
//! that point, so a second in-process session never inherits an earlier
//! session's pool or supervision counters.

use crate::report::csv_field;
use crate::supervisor::JobError;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use subcore_metrics::names as mx;

/// Schema version of `run_telemetry.csv`, mirroring the engine's
/// [`subcore_engine::STATS_SCHEMA_VERSION`] discipline: the first CSV
/// line is a `# subcore-run-telemetry schema=N …` tag so downstream
/// tooling can detect column drift instead of silently misparsing.
/// History: v1 (untagged, header-first) through PR 6; v2 adds the tag
/// line itself.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Detects the schema version of `run_telemetry.csv` text. Files
/// starting with the `# subcore-run-telemetry schema=N` tag report `N`;
/// anything else (including pre-tag archives whose first line is the
/// header row) is treated as legacy v1 — the loader tolerates, never
/// rejects.
pub fn csv_schema_version(text: &str) -> u32 {
    let Some(first) = text.lines().next() else {
        return 1;
    };
    let Some(rest) = first.strip_prefix("# subcore-run-telemetry ") else {
        return 1;
    };
    rest.split_whitespace().find_map(|word| word.strip_prefix("schema=")?.parse().ok()).unwrap_or(1)
}

/// The header columns of `run_telemetry.csv` text: the first
/// non-comment line, split on commas. `None` for empty input.
pub fn csv_columns(text: &str) -> Option<Vec<String>> {
    text.lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
}

/// Where a [`crate::session::SimSession::run`] result came from.
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
    /// Adaptive evaluation windows the run completed (0 for fixed modes
    /// and for disk-cache loads, whose engine never ran here).
    pub adaptive_windows: u64,
    /// Adaptive windows that ended on the reference-scan fallback.
    pub adaptive_fallbacks: u64,
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

/// Counter block owned by a [`crate::session::SimSession`].
#[derive(Debug)]
pub struct Telemetry {
    runs: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    sims: AtomicU64,
    sim_wall_nanos: AtomicU64,
    sim_cycles: AtomicU64,
    traced_sims: AtomicU64,
    traced_wall_nanos: AtomicU64,
    // Fresh simulations by engine mode (event / reference / adaptive), and
    // the adaptive controller's aggregate window decisions.
    mode_event: AtomicU64,
    mode_reference: AtomicU64,
    mode_adaptive: AtomicU64,
    adaptive_windows: AtomicU64,
    adaptive_fallbacks: AtomicU64,
    cache_write_failures: AtomicU64,
    tenant_jobs: AtomicU64,
    records: Mutex<Vec<RunRecord>>,
    // Positions of the process-wide pool and supervision logs at
    // construction; snapshots only report usage logged after these points.
    pool_base_busy_nanos: u64,
    pool_base_wall_nanos: u64,
    pool_base_invocations: usize,
    sup_base_failed: u64,
    sup_base_retried: u64,
    sup_base_timed_out: u64,
    sup_base_journal_skips: u64,
    sup_base_trace_drops: u64,
    sup_base_failures: usize,
}

impl Default for Telemetry {
    fn default() -> Self {
        let pool = lock_recover(&POOL);
        let sup = lock_recover(&SUPERVISION);
        Telemetry {
            runs: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            sims: AtomicU64::new(0),
            sim_wall_nanos: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            traced_sims: AtomicU64::new(0),
            traced_wall_nanos: AtomicU64::new(0),
            mode_event: AtomicU64::new(0),
            mode_reference: AtomicU64::new(0),
            mode_adaptive: AtomicU64::new(0),
            adaptive_windows: AtomicU64::new(0),
            adaptive_fallbacks: AtomicU64::new(0),
            cache_write_failures: AtomicU64::new(0),
            tenant_jobs: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            pool_base_busy_nanos: pool.busy_nanos,
            pool_base_wall_nanos: pool.wall_nanos,
            pool_base_invocations: pool.workers.len(),
            sup_base_failed: sup.failed,
            sup_base_retried: sup.retried,
            sup_base_timed_out: sup.timed_out,
            sup_base_journal_skips: sup.journal_skips,
            sup_base_trace_drops: sup.trace_drops,
            sup_base_failures: sup.failures.len(),
        }
    }
}

/// Locks `m`, recovering the guard if a panicking holder poisoned it — a
/// failed job must never cascade into every later telemetry access.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Telemetry {
    /// Counts one `run()` call (any outcome).
    pub(crate) fn note_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a run served from the in-memory memo table.
    pub(crate) fn note_memo_hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a materialized run (fresh simulation or disk load).
    pub(crate) fn note_materialized(&self, record: RunRecord) {
        self.count_materialized(&record);
        lock_recover(&self.records).push(record);
    }

    /// Counts a materialized run without keeping its record — for runs
    /// whose caller retains the result itself (the serve daemon), so the
    /// session's memory stays flat however many it serves.
    pub(crate) fn count_materialized(&self, record: &RunRecord) {
        match record.source {
            RunSource::Simulated => {
                let wall_nanos = u64::try_from(record.wall.as_nanos()).unwrap_or(u64::MAX);
                self.sims.fetch_add(1, Ordering::Relaxed);
                self.sim_wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
                self.sim_cycles.fetch_add(record.cycles, Ordering::Relaxed);
                if record.traced {
                    self.traced_sims.fetch_add(1, Ordering::Relaxed);
                    self.traced_wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
                }
                match record.engine_mode {
                    "event" => self.mode_event.fetch_add(1, Ordering::Relaxed),
                    "reference" => self.mode_reference.fetch_add(1, Ordering::Relaxed),
                    "adaptive" => self.mode_adaptive.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                self.adaptive_windows.fetch_add(record.adaptive_windows, Ordering::Relaxed);
                self.adaptive_fallbacks.fetch_add(record.adaptive_fallbacks, Ordering::Relaxed);
            }
            RunSource::Disk => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one per-tenant row of a multi-tenant co-schedule cell.
    /// Tenant rows are bookkept separately from single-app simulations —
    /// they describe a slice of a cell another record already counted, so
    /// they bump only the `tenant jobs` counter, never the sim totals.
    pub(crate) fn note_tenant_run(&self, record: RunRecord) {
        self.tenant_jobs.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.records).push(record);
    }

    /// Counts one failed write to the on-disk result cache (see
    /// [`crate::cache::DiskCache::store`]); surfaced once per session in
    /// the summary so a read-only `results/` can't silently disable
    /// persistence.
    pub(crate) fn note_cache_write_failure(&self) {
        self.cache_write_failures.fetch_add(1, Ordering::Relaxed);
        subcore_metrics::inc(mx::SESSION_CACHE_STORE_DROP);
    }

    /// A point-in-time copy of the counters, including the pool usage and
    /// supervision outcomes reported since this `Telemetry` was created.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (pool_busy, pool_wall, pool_max_workers) = {
            let pool = lock_recover(&POOL);
            let since = self.pool_base_invocations.min(pool.workers.len());
            (
                Duration::from_nanos(pool.busy_nanos.saturating_sub(self.pool_base_busy_nanos)),
                Duration::from_nanos(pool.wall_nanos.saturating_sub(self.pool_base_wall_nanos)),
                pool.workers[since..].iter().copied().max().unwrap_or(0),
            )
        };
        let (failed, retried, timed_out, journal_skips, trace_drops) = {
            let sup = lock_recover(&SUPERVISION);
            (
                sup.failed.saturating_sub(self.sup_base_failed),
                sup.retried.saturating_sub(self.sup_base_retried),
                sup.timed_out.saturating_sub(self.sup_base_timed_out),
                sup.journal_skips.saturating_sub(self.sup_base_journal_skips),
                sup.trace_drops.saturating_sub(self.sup_base_trace_drops),
            )
        };
        TelemetrySnapshot {
            failed,
            retried,
            timed_out,
            journal_skips,
            trace_drops,
            cache_write_failures: self.cache_write_failures.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            sims: self.sims.load(Ordering::Relaxed),
            sim_wall: Duration::from_nanos(self.sim_wall_nanos.load(Ordering::Relaxed)),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            traced_sims: self.traced_sims.load(Ordering::Relaxed),
            traced_wall: Duration::from_nanos(self.traced_wall_nanos.load(Ordering::Relaxed)),
            mode_event: self.mode_event.load(Ordering::Relaxed),
            mode_reference: self.mode_reference.load(Ordering::Relaxed),
            mode_adaptive: self.mode_adaptive.load(Ordering::Relaxed),
            adaptive_windows: self.adaptive_windows.load(Ordering::Relaxed),
            adaptive_fallbacks: self.adaptive_fallbacks.load(Ordering::Relaxed),
            tenant_jobs: self.tenant_jobs.load(Ordering::Relaxed),
            pool_busy,
            pool_wall,
            pool_max_workers,
            jobs_cap: crate::runner::jobs_cap(),
        }
    }

    /// A copy of the materialized-run records, in materialization order.
    pub fn records(&self) -> Vec<RunRecord> {
        lock_recover(&self.records).clone()
    }

    /// A copy of the supervised-job failure records reported since this
    /// `Telemetry` was created, in settlement order.
    pub fn failure_records(&self) -> Vec<JobError> {
        let sup = lock_recover(&SUPERVISION);
        let since = self.sup_base_failures.min(sup.failures.len());
        sup.failures[since..].to_vec()
    }

    /// Writes the per-run records as CSV (`key,app,design,source,traced,
    /// wall_ms,cycles,cycles_per_sec,jobs,engine_mode,adaptive_windows,
    /// adaptive_fallbacks,predicted_cycles,estimate_error`), creating
    /// parent directories as needed. The first line is the
    /// `# subcore-run-telemetry schema=N` version tag (see
    /// [`TELEMETRY_SCHEMA_VERSION`] / [`csv_schema_version`]).
    /// Free-form fields are escaped via [`csv_field`]; the `jobs` column
    /// carries the session's worker-count ceiling (empty when uncapped) so
    /// archived telemetry records the pool geometry the wall times were
    /// measured under, and the trailing engine columns record which engine
    /// core produced each result and what the adaptive controller decided.
    /// `predicted_cycles` / `estimate_error` carry the static cost-model
    /// prediction and its relative error for runs that had one on file,
    /// and stay empty otherwise — the columns ride under the same
    /// schema=2 tag because loaders resolve columns by header name
    /// ([`csv_columns`]), so pre-prediction v2 archives and new files
    /// parse identically. The same discipline covers the trailing
    /// multi-tenant columns (`tenant`, `deadline_slack`, `partition_sms`):
    /// they are populated only for per-tenant rows of `repro tenants`
    /// cells and stay empty for ordinary runs. Supervised-job failures
    /// append as rows whose `source` is the failure kind (`panic`,
    /// `timeout`, …) with zero cycles and an empty engine mode, so a
    /// campaign's gaps are archived next to its results.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let jobs = crate::runner::jobs_cap().map_or(String::new(), |n| n.to_string());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# subcore-run-telemetry schema={TELEMETRY_SCHEMA_VERSION} \
             stats_schema={}",
            subcore_engine::STATS_SCHEMA_VERSION
        )?;
        writeln!(
            out,
            "key,app,design,source,traced,wall_ms,cycles,cycles_per_sec,jobs,\
             engine_mode,adaptive_windows,adaptive_fallbacks,predicted_cycles,estimate_error,\
             tenant,deadline_slack,partition_sms"
        )?;
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
            writeln!(
                out,
                "{:016x},{},{},{},{},{:.3},{},{:.0},{},{},{},{},{},{},{},{},{}",
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
                r.adaptive_windows,
                r.adaptive_fallbacks,
                predicted,
                error,
                tenant,
                slack,
                sms
            )?;
        }
        for e in self.failure_records() {
            writeln!(
                out,
                "{:016x},{},{},{},false,{:.3},0,nan,{},,0,0,,,,,",
                e.key.unwrap_or(0),
                csv_field(&e.app),
                csv_field(&e.design),
                e.kind.tag(),
                e.elapsed.as_secs_f64() * 1e3,
                jobs
            )?;
        }
        out.flush()
    }
}

/// A point-in-time view of a session's [`Telemetry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySnapshot {
    /// Supervised jobs that settled as failed (panics, simulator errors,
    /// watchdog timeouts; excludes aborted-before-run jobs).
    pub failed: u64,
    /// Retry attempts the supervisor granted to transient failures.
    pub retried: u64,
    /// Supervised jobs abandoned by the wall-clock watchdog (a subset of
    /// `failed`).
    pub timed_out: u64,
    /// Sweep cells skipped because the campaign journal already recorded
    /// them complete (`repro --resume`).
    pub journal_skips: u64,
    /// Trace events dropped by bounded `JsonlSink`s (event limit reached
    /// or a failed write), reported by `repro trace` captures.
    pub trace_drops: u64,
    /// Failed writes to the on-disk result cache (e.g. a read-only
    /// `results/` directory).
    pub cache_write_failures: u64,
    /// Total `run()` calls.
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
    /// Fresh simulations that ran the event-driven engine.
    pub mode_event: u64,
    /// Fresh simulations that ran the polled reference engine.
    pub mode_reference: u64,
    /// Fresh simulations that ran the adaptive engine.
    pub mode_adaptive: u64,
    /// Adaptive evaluation windows completed across fresh simulations.
    pub adaptive_windows: u64,
    /// Adaptive windows that ended on the reference-scan fallback.
    pub adaptive_fallbacks: u64,
    /// Per-tenant rows recorded by multi-tenant co-schedule cells
    /// (`repro tenants`); counted separately from `sims`, which tallies
    /// whole cells.
    pub tenant_jobs: u64,
    /// Cumulative busy time across all pool workers (since this session's
    /// telemetry was created).
    pub pool_busy: Duration,
    /// Cumulative wall time of `parallel_map` invocations (since this
    /// session's telemetry was created).
    pub pool_wall: Duration,
    /// Largest worker count any `parallel_map` invocation used (since this
    /// session's telemetry was created).
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
    /// (NaN when `parallel_map` never ran).
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
                format!(
                    "{} adaptive, {} event, {} reference",
                    self.mode_adaptive, self.mode_event, self.mode_reference
                ),
            );
        }
        if self.adaptive_windows > 0 {
            line(
                "  adaptive fallbacks",
                format!("{} of {} windows", self.adaptive_fallbacks, self.adaptive_windows),
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
        if self.failed + self.retried + self.timed_out > 0 {
            line(
                "supervision",
                format!(
                    "{} failed, {} retried, {} timed out",
                    self.failed, self.retried, self.timed_out
                ),
            );
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

// `parallel_map` has no handle on a session, so pool usage accumulates in
// a process-wide log. Each `Telemetry` remembers the log position at its
// own construction and reports only what came after (see
// `Telemetry::default`), keeping sessions in the same process independent.
#[derive(Debug)]
struct PoolLog {
    busy_nanos: u64,
    wall_nanos: u64,
    /// Worker count of each `parallel_map` invocation, in order.
    workers: Vec<usize>,
}

static POOL: Mutex<PoolLog> =
    Mutex::new(PoolLog { busy_nanos: 0, wall_nanos: 0, workers: Vec::new() });

/// Reports one `parallel_map` invocation's worker-pool usage.
pub fn note_pool_usage(busy: Duration, wall: Duration, workers: usize) {
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    subcore_metrics::gauge_set(mx::POOL_WORKERS, workers as f64);
    subcore_metrics::add(mx::POOL_BUSY_US, u64::try_from(busy.as_micros()).unwrap_or(u64::MAX));
    let mut pool = lock_recover(&POOL);
    pool.busy_nanos = pool.busy_nanos.saturating_add(nanos(busy));
    pool.wall_nanos = pool.wall_nanos.saturating_add(nanos(wall));
    pool.workers.push(workers);
}

// Supervision outcomes accumulate in the same process-wide style as the
// pool log: `supervise_map` has no session handle, so each `Telemetry`
// captures the log position at construction and reports deltas.
#[derive(Debug)]
struct SupLog {
    failed: u64,
    retried: u64,
    timed_out: u64,
    journal_skips: u64,
    trace_drops: u64,
    /// Every failure record reported, in settlement order.
    failures: Vec<JobError>,
}

static SUPERVISION: Mutex<SupLog> = Mutex::new(SupLog {
    failed: 0,
    retried: 0,
    timed_out: 0,
    journal_skips: 0,
    trace_drops: 0,
    failures: Vec::new(),
});

/// Reports one [`crate::supervisor::supervise_map`] sweep's failure totals
/// and per-job failure records.
pub fn note_supervision(failed: u64, retried: u64, timed_out: u64, failures: &[JobError]) {
    let mut sup = lock_recover(&SUPERVISION);
    sup.failed = sup.failed.saturating_add(failed);
    sup.retried = sup.retried.saturating_add(retried);
    sup.timed_out = sup.timed_out.saturating_add(timed_out);
    sup.failures.extend_from_slice(failures);
}

/// Reports sweep cells skipped because the campaign journal already
/// recorded them complete (`repro --resume`).
pub fn note_journal_skips(skipped: u64) {
    subcore_metrics::add(mx::JOURNAL_SKIP, skipped);
    let mut sup = lock_recover(&SUPERVISION);
    sup.journal_skips = sup.journal_skips.saturating_add(skipped);
}

/// Reports trace events a bounded `JsonlSink` dropped (limit reached or
/// write failure) during a `repro trace` capture, surfacing them in the
/// end-of-run summary and as the `trace.events.dropped` metric.
pub fn note_trace_drops(dropped: u64) {
    if dropped == 0 {
        return;
    }
    subcore_metrics::add(mx::TRACE_EVENTS_DROPPED, dropped);
    let mut sup = lock_recover(&SUPERVISION);
    sup.trace_drops = sup.trace_drops.saturating_add(dropped);
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
            adaptive_windows: 0,
            adaptive_fallbacks: 0,
            predicted_cycles: None,
            tenant: None,
            deadline_slack: None,
            partition_sms: None,
        }
    }

    #[test]
    fn counters_split_by_source() {
        let t = Telemetry::default();
        t.note_run();
        t.note_run();
        t.note_run();
        t.note_materialized(record(RunSource::Simulated, 1_000, 10));
        t.note_materialized(record(RunSource::Disk, 2_000, 1));
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
        t.note_materialized(record(RunSource::Simulated, 5_000_000, 100));
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
        t.note_materialized(record(RunSource::Simulated, 42, 2));
        t.note_materialized(record(RunSource::Disk, 43, 0));
        let dir = std::env::temp_dir().join(format!("subcore-telemetry-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        // Concurrent tests may report supervision failures that append
        // extra rows, so check the materialized-run rows positionally.
        assert!(lines.len() >= 4, "got {} lines", lines.len());
        assert_eq!(
            lines[0],
            format!(
                "# subcore-run-telemetry schema={TELEMETRY_SCHEMA_VERSION} stats_schema={}",
                subcore_engine::STATS_SCHEMA_VERSION
            )
        );
        assert_eq!(csv_schema_version(&text), TELEMETRY_SCHEMA_VERSION);
        assert_eq!(
            lines[1],
            "key,app,design,source,traced,wall_ms,cycles,cycles_per_sec,jobs,\
             engine_mode,adaptive_windows,adaptive_fallbacks,predicted_cycles,estimate_error,\
             tenant,deadline_slack,partition_sms"
        );
        assert!(lines[2].contains(",sim,false,"), "got {}", lines[2]);
        assert!(lines[2].ends_with(",adaptive,0,0,,,,,"), "trailing columns: {}", lines[2]);
        assert!(lines[3].contains(",disk,false,"), "got {}", lines[3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_schema_version_tolerates_legacy_and_garbage() {
        // Tagged (current) files report their schema.
        assert_eq!(csv_schema_version("# subcore-run-telemetry schema=2 stats_schema=2\nkey\n"), 2);
        assert_eq!(csv_schema_version("# subcore-run-telemetry schema=7\n"), 7);
        // Legacy archives start straight at the header row → v1.
        assert_eq!(csv_schema_version("key,app,design\n1,a,b\n"), 1);
        // Damaged tags and empty input degrade to v1, never error.
        assert_eq!(csv_schema_version("# subcore-run-telemetry schema=zap\n"), 1);
        assert_eq!(csv_schema_version(""), 1);
        // Column extraction skips the tag line (and works on legacy text).
        let tagged = "# subcore-run-telemetry schema=2\nkey,app\n1,a\n";
        assert_eq!(csv_columns(tagged).unwrap(), ["key", "app"]);
        assert_eq!(csv_columns("key,app\n1,a\n").unwrap(), ["key", "app"]);
        assert_eq!(csv_columns(""), None);
    }

    #[test]
    fn written_csv_columns_match_schema() {
        let t = Telemetry::default();
        t.note_materialized(record(RunSource::Simulated, 1, 1));
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-cols-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let cols = csv_columns(&text).expect("header row");
        assert_eq!(cols.first().map(String::as_str), Some("key"));
        assert_eq!(cols.last().map(String::as_str), Some("partition_sms"));
        assert_eq!(cols.len(), 17);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prediction_columns_round_trip_through_tolerant_loading() {
        let t = Telemetry::default();
        let mut predicted = record(RunSource::Simulated, 1_000, 3);
        predicted.predicted_cycles = Some(1_250);
        t.note_materialized(predicted);
        t.note_materialized(record(RunSource::Simulated, 2_000, 3)); // no prediction
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-pred-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        // Tolerant loading: columns are resolved by header name, not
        // position, so the new fields read back exactly and legacy v2
        // archives (12 columns, same tag) still resolve the old fields.
        assert_eq!(csv_schema_version(&text), TELEMETRY_SCHEMA_VERSION);
        let cols = csv_columns(&text).expect("header row");
        let pi = cols.iter().position(|c| c == "predicted_cycles").expect("predicted column");
        let ei = cols.iter().position(|c| c == "estimate_error").expect("error column");
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split(',').collect())
            .filter(|f: &Vec<&str>| f.len() == cols.len())
            .collect();
        assert!(rows.len() >= 2, "both materialized rows survive");
        assert_eq!(rows[0][pi], "1250");
        // |1250 - 1000| / 1000 = 0.25.
        assert_eq!(rows[0][ei], "0.2500");
        assert_eq!(rows[1][pi], "", "prediction-free runs leave the columns empty");
        assert_eq!(rows[1][ei], "");
        // A legacy v2 archive (pre-prediction header) still resolves its
        // columns by name; the new fields are simply absent.
        let legacy = "# subcore-run-telemetry schema=2 stats_schema=2\n\
                      key,app,design,source,traced,wall_ms,cycles,cycles_per_sec,jobs,\
                      engine_mode,adaptive_windows,adaptive_fallbacks\n";
        let legacy_cols = csv_columns(legacy).expect("legacy header");
        assert_eq!(csv_schema_version(legacy), 2);
        assert!(legacy_cols.iter().any(|c| c == "cycles"));
        assert!(!legacy_cols.iter().any(|c| c == "predicted_cycles"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_rows_round_trip_and_count_separately() {
        let t = Telemetry::default();
        t.note_materialized(record(RunSource::Simulated, 10_000, 4)); // the cell itself
        let mut row = record(RunSource::Simulated, 7_000, 0);
        row.tenant = Some("latency".into());
        row.deadline_slack = Some(-250);
        row.partition_sms = Some("2-3".into());
        t.note_tenant_run(row);
        let s = t.snapshot();
        assert_eq!(s.sims, 1, "tenant rows must not inflate the sim count");
        assert_eq!(s.tenant_jobs, 1);
        assert!(s.summary().contains("tenant jobs"), "summary:\n{}", s.summary());
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-tenant-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let cols = csv_columns(&text).expect("header row");
        let ti = cols.iter().position(|c| c == "tenant").expect("tenant column");
        let di = cols.iter().position(|c| c == "deadline_slack").expect("slack column");
        let pi = cols.iter().position(|c| c == "partition_sms").expect("partition column");
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
    fn trace_drops_are_deltas_and_surface_in_summary() {
        // Same delta discipline as the pool/supervision logs: drops
        // reported before construction are invisible, later ones appear.
        note_trace_drops(5_000_000);
        let t = Telemetry::default();
        assert!(t.snapshot().trace_drops < 5_000_000, "inherited prior trace drops");
        assert!(!t.snapshot().summary().contains("trace events dropped"));
        note_trace_drops(0); // zero reports are free and invisible
        note_trace_drops(3);
        let s = t.snapshot();
        assert!(s.trace_drops >= 3, "missed new trace drops: {}", s.trace_drops);
        assert!(s.summary().contains("trace events dropped"));
    }

    #[test]
    fn csv_escapes_app_and_design_names() {
        let t = Telemetry::default();
        t.note_materialized(RunRecord {
            key: 1,
            app: "scan,filter".into(),
            design: "rba \"tuned\"".into(),
            source: RunSource::Simulated,
            traced: true,
            wall: Duration::from_millis(1),
            cycles: 10,
            engine_mode: "event",
            adaptive_windows: 0,
            adaptive_fallbacks: 0,
            predicted_cycles: None,
            tenant: None,
            deadline_slack: None,
            partition_sms: None,
        });
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-esc-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let row = text.lines().nth(2).expect("one data row after tag + header");
        assert!(row.contains("\"scan,filter\""), "app not quoted: {row}");
        assert!(row.contains("\"rba \"\"tuned\"\"\""), "design not quoted: {row}");
        // Escaped, the row has exactly the 14 header fields: the embedded
        // comma and quotes no longer split it.
        let header_fields = csv_columns(&text).unwrap().len();
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
        t.note_materialized(traced);
        t.note_materialized(record(RunSource::Simulated, 2_000, 50));
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
            attempts: 2,
            elapsed: Duration::from_millis(7),
            key: Some(0xFEED),
        }
    }

    #[test]
    fn supervision_counters_are_deltas_since_construction() {
        use crate::supervisor::JobErrorKind;
        // Other tests report small real supervision totals concurrently, so
        // compare against distinctive magnitudes rather than zero (same
        // strategy as the pool-usage test below).
        note_supervision(
            1_000_000,
            2_000_000,
            3_000_000,
            &[failure("earlier", JobErrorKind::Panic)],
        );
        let t = Telemetry::default();
        let s = t.snapshot();
        assert!(s.failed < 1_000_000, "inherited prior failed count: {}", s.failed);
        assert!(s.retried < 2_000_000, "inherited prior retried count: {}", s.retried);
        assert!(s.timed_out < 3_000_000, "inherited prior timeout count: {}", s.timed_out);
        assert!(
            !t.failure_records().iter().any(|e| e.app == "earlier"),
            "inherited prior failure records"
        );
        note_supervision(2, 5, 1, &[failure("mine", JobErrorKind::TimedOut)]);
        note_journal_skips(4);
        let s = t.snapshot();
        assert!(s.failed >= 2 && s.retried >= 5 && s.timed_out >= 1, "missed new supervision");
        assert!(s.journal_skips >= 4);
        assert!(t.failure_records().iter().any(|e| e.app == "mine"));
        let text = s.summary();
        assert!(text.contains("supervision"), "summary missing supervision line:\n{text}");
        assert!(text.contains("journal skips"), "summary missing journal skips:\n{text}");
    }

    #[test]
    fn engine_modes_aggregate_in_snapshot_and_summary() {
        let t = Telemetry::default();
        let mut adaptive = record(RunSource::Simulated, 1_000, 5);
        adaptive.adaptive_windows = 10;
        adaptive.adaptive_fallbacks = 3;
        t.note_materialized(adaptive);
        let mut reference = record(RunSource::Simulated, 1_000, 5);
        reference.engine_mode = "reference";
        t.note_materialized(reference);
        // Disk hits don't count: their engine never ran in this process.
        let mut disk = record(RunSource::Disk, 1_000, 0);
        disk.engine_mode = "event";
        t.note_materialized(disk);
        let s = t.snapshot();
        assert_eq!((s.mode_adaptive, s.mode_reference, s.mode_event), (1, 1, 0));
        assert_eq!((s.adaptive_windows, s.adaptive_fallbacks), (10, 3));
        let text = s.summary();
        assert!(text.contains("engine modes"), "summary missing engine modes:\n{text}");
        assert!(text.contains("3 of 10 windows"), "summary missing fallbacks:\n{text}");
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

    #[test]
    fn csv_appends_failure_rows() {
        use crate::supervisor::JobErrorKind;
        let t = Telemetry::default();
        t.note_materialized(record(RunSource::Simulated, 42, 2));
        note_supervision(1, 0, 0, &[failure("deadapp", JobErrorKind::Panic)]);
        let dir =
            std::env::temp_dir().join(format!("subcore-telemetry-fail-{}", std::process::id()));
        let path = dir.join("run_telemetry.csv");
        t.write_csv(&path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        let row = text.lines().find(|l| l.contains("deadapp")).expect("failure row present in CSV");
        assert!(row.contains(",panic,false,"), "kind tag is the source column: {row}");
        assert!(row.contains("000000000000feed"), "failure row carries the key: {row}");
        assert!(row.ends_with(",,0,0,,,,,"), "failure rows carry empty trailing columns: {row}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_telemetry_does_not_inherit_pool_usage() {
        // First "session" reports distinctive pool usage…
        note_pool_usage(Duration::from_secs(40_000), Duration::from_secs(50_000), 4096);
        // …which a telemetry block created afterwards must not see. (Other
        // tests may report small real pool usage concurrently, so compare
        // against the distinctive magnitudes rather than zero.)
        let t = Telemetry::default();
        let s = t.snapshot();
        assert!(
            s.pool_busy < Duration::from_secs(40_000),
            "inherited prior busy time: {:?}",
            s.pool_busy
        );
        assert!(
            s.pool_wall < Duration::from_secs(50_000),
            "inherited prior wall time: {:?}",
            s.pool_wall
        );
        assert!(s.pool_max_workers < 4096, "inherited prior max workers: {}", s.pool_max_workers);
        // Usage reported after construction is visible.
        note_pool_usage(Duration::from_secs(20_000), Duration::from_secs(30_000), 2048);
        let s = t.snapshot();
        assert!(s.pool_busy >= Duration::from_secs(20_000));
        assert!(s.pool_wall >= Duration::from_secs(30_000));
        assert!(s.pool_max_workers >= 2048, "missed post-construction usage");
    }
}
