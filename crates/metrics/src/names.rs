//! Stable dotted metric names used across the experiment stack.
//!
//! The scheme is `<layer>.<noun>[.<event>]`, lowercase, dot-separated:
//! the first segment names the layer the event belongs to (`session`,
//! `engine`, `estimate`, `supervisor`, `pool`, `journal`, `trace`,
//! `tenant`, `serve`), the rest name the thing counted. `supervisor.*`,
//! `pool.*`, `journal.record.*`, `tenant.*` and `serve.*` are emitted where
//! they happen; everything a session's run ledger also totals
//! (`session.*`, `engine.*`, `estimate.*`, `journal.skip`,
//! `trace.events.dropped`) is emitted by that ledger
//! (`subcore-experiments`' `telemetry.rs`) and nowhere else, so the
//! summary block and the live export cannot disagree on what was counted.
//! Exporters derive the Prometheus name mechanically
//! (`session.cache.hit` → `subcore_session_cache_hit`), so renaming a
//! constant here is a breaking change for downstream dashboards — add
//! new names instead.

/// Counter: `SimSession` run requests (any source).
pub const SESSION_RUN: &str = "session.run";
/// Counter: runs answered from the in-memory memo.
pub const SESSION_CACHE_HIT: &str = "session.cache.hit";
/// Counter: runs answered from the on-disk cache.
pub const SESSION_CACHE_DISK_HIT: &str = "session.cache.disk_hit";
/// Counter: disk-cache store attempts that were dropped (write failed).
pub const SESSION_CACHE_STORE_DROP: &str = "session.cache.store_drop";
/// Counter: fresh simulations executed.
pub const SESSION_SIM: &str = "session.sim";
/// Histogram: wall time of one fresh simulation, microseconds.
pub const SESSION_SIM_WALL_US: &str = "session.sim.wall_us";

/// Counter: simulated cycles accumulated by fresh simulations.
pub const ENGINE_CYCLES: &str = "engine.cycles";
/// Gauge: simulated cycles per wall-clock second of the most recent
/// fresh simulation.
pub const ENGINE_CYCLES_PER_SEC: &str = "engine.cycles_per_sec";
/// Counter-name prefix for per-mode run counts; append
/// `EngineMode::tag()` (`engine.mode.adaptive`, `engine.mode.reference`).
pub const ENGINE_MODE_PREFIX: &str = "engine.mode.";

/// Histogram: absolute predicted-vs-actual cycle error of one fresh
/// simulation that had a cost-model prediction attached, in percent of
/// the simulated cycles.
pub const ESTIMATE_ERROR_PCT: &str = "estimate.error_pct";

/// Counter: job attempts handed to a supervisor worker.
pub const SUPERVISOR_JOB_STARTED: &str = "supervisor.job.started";
/// Counter: jobs settled successfully.
pub const SUPERVISOR_JOB_DONE: &str = "supervisor.job.done";
/// Counter: jobs settled as failed (all kinds, after retries).
pub const SUPERVISOR_JOB_FAILED: &str = "supervisor.job.failed";
/// Counter: retry attempts granted for transient failures.
pub const SUPERVISOR_JOB_RETRY: &str = "supervisor.job.retry";
/// Counter: jobs settled by the watchdog as timed out.
pub const SUPERVISOR_JOB_TIMEOUT: &str = "supervisor.job.timeout";
/// Counter: jobs settled as aborted (budget exhausted / stop request).
pub const SUPERVISOR_JOB_ABORTED: &str = "supervisor.job.aborted";
/// Histogram: wall time of one settled job, microseconds.
pub const SUPERVISOR_JOB_WALL_US: &str = "supervisor.job.wall_us";
/// Histogram: per-job watchdog budget armed for a sweep cell, derived
/// from the cost model's predicted cycles, in milliseconds.
pub const SUPERVISOR_JOB_BUDGET_MS: &str = "supervisor.job.budget_ms";

/// Gauge: worker threads of the most recent supervised pool.
pub const POOL_WORKERS: &str = "pool.workers";
/// Counter: busy worker-microseconds accumulated across pools.
pub const POOL_BUSY_US: &str = "pool.busy_us";

/// Counter: sweep cells skipped because the journal already had them.
pub const JOURNAL_SKIP: &str = "journal.skip";
/// Counter: journal `Done` records written.
pub const JOURNAL_RECORD_DONE: &str = "journal.record.done";
/// Counter: journal `Failed` records written.
pub const JOURNAL_RECORD_FAILED: &str = "journal.record.failed";
/// Counter: journal record writes that were dropped (I/O error).
pub const JOURNAL_WRITE_DROP: &str = "journal.write_drop";

/// Counter: trace events dropped by bounded `JsonlSink`s.
pub const TRACE_EVENTS_DROPPED: &str = "trace.events.dropped";

/// Gauge: jobs currently admitted but not settled in the serve daemon
/// (queued + leased).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Counter: submissions admitted as new jobs.
pub const SERVE_SUBMITTED: &str = "serve.submitted";
/// Counter: submissions coalesced onto an existing job with the same
/// content fingerprint.
pub const SERVE_COALESCED: &str = "serve.coalesced";
/// Counter: submissions shed by bounded admission (queue full or
/// draining), answered with a structured retry-after rejection.
pub const SERVE_SHED: &str = "serve.shed";
/// Counter: leases that expired (heartbeats stopped) and were reclaimed
/// back onto the queue or failed out of attempts.
pub const SERVE_LEASE_EXPIRED: &str = "serve.lease.expired";
/// Counter: lease / settle / reclaim transitions whose durable record
/// failed to land (memory is one arrow ahead of the queue directory).
pub const SERVE_PERSIST_DROP: &str = "serve.persist.drop";
/// Counter: serve jobs settled done.
pub const SERVE_JOB_DONE: &str = "serve.job.done";
/// Counter: serve jobs settled failed (structured error to waiters).
pub const SERVE_JOB_FAILED: &str = "serve.job.failed";

/// Counter: tenants that finished past their deadline in a multi-tenant
/// co-schedule cell.
pub const TENANT_DEADLINE_MISS: &str = "tenant.deadline_miss";
/// Histogram: per-tenant slowdown of a co-scheduled run over the tenant's
/// solo run on the full GPU, in percent (100 = no interference).
pub const TENANT_SLOWDOWN_PCT: &str = "tenant.slowdown_pct";
