//! Supervised job execution: fault-isolated, bounded, retriable sweeps.
//!
//! A bare scoped worker pool lets one bad cell kill a whole campaign and
//! throw away every in-flight result. [`supervise_map`] is the harness's
//! pool with supervision built in: it runs each job under `catch_unwind`,
//! converts failures into structured [`JobError`]s instead of propagating
//! them, retries transient kinds with exponential backoff, and enforces a
//! wall-clock deadline per job with a watchdog that marks overdue jobs
//! [`JobErrorKind::TimedOut`] and keeps the sweep going.
//!
//! The watchdog is purely supervisory — no engine changes, no thread
//! cancellation. An overdue job is *abandoned*: its outcome is recorded as
//! timed out, its worker slot is released so a fresh job can start, and
//! whatever the stray thread eventually produces is discarded. The thread
//! itself still runs to completion before [`supervise_map`] returns (every
//! simulation is finite by the engine's `max_cycles` bound), so the
//! deadline bounds how long a slow cell can *hold up the campaign*, not
//! the process lifetime of its thread.
//!
//! Failure totals (failed / retried / timed-out jobs) and pool usage come
//! back in the [`SuperviseReport`]; the campaign drivers hand it to the
//! session they ran on, which is how both reach the `repro` summary and
//! `run_telemetry.csv` (see [`crate::telemetry`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use subcore_metrics::names as mx;

/// How a job failure is classified, which decides whether the supervisor
/// retries it and how it is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobErrorKind {
    /// The job panicked. Treated as transient (retried): panics include
    /// environmental failures and injected faults, both of which a fresh
    /// attempt can survive.
    Panic,
    /// The simulator returned a [`subcore_engine::SimError`]. Deterministic
    /// — a retry would fail identically — so never retried.
    Sim,
    /// The job exceeded its wall-clock deadline and was abandoned by the
    /// watchdog. Not retried (the budget is already spent); a later
    /// `--resume` can pick the cell up again.
    TimedOut,
    /// The sweep was aborted (fail-fast, failure budget, or a deliberate
    /// stop) before this job ran.
    Aborted,
}

impl JobErrorKind {
    /// Stable lowercase tag used in telemetry CSV rows and journal files.
    pub fn tag(&self) -> &'static str {
        match self {
            JobErrorKind::Panic => "panic",
            JobErrorKind::Sim => "sim-error",
            JobErrorKind::TimedOut => "timeout",
            JobErrorKind::Aborted => "aborted",
        }
    }

    /// Whether the supervisor may re-attempt a job that failed this way.
    pub fn transient(&self) -> bool {
        matches!(self, JobErrorKind::Panic)
    }

    /// Parses a [`JobErrorKind::tag`] back (journal round-trips).
    pub fn from_tag(tag: &str) -> Option<JobErrorKind> {
        match tag {
            "panic" => Some(JobErrorKind::Panic),
            "sim-error" => Some(JobErrorKind::Sim),
            "timeout" => Some(JobErrorKind::TimedOut),
            "aborted" => Some(JobErrorKind::Aborted),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Identity of a job as reported in failures, telemetry, and journals.
#[derive(Debug, Clone, Default)]
pub struct JobTag {
    /// Application name (or a synthetic `job #i` label for generic maps).
    pub app: String,
    /// Design label; empty for jobs that are not (app, design) cells.
    pub design: String,
    /// The cell's [`crate::session::SimKey`] fingerprint, when known.
    pub key: Option<u64>,
    /// Per-job watchdog deadline overriding the policy-wide
    /// [`SupervisorPolicy::job_timeout`] — sweeps derive it from the cost
    /// model's predicted cycles (see
    /// [`SupervisorPolicy::predicted_timeout`]). `None` falls back to the
    /// policy deadline; a zero duration here is ignored (it does not
    /// disable the watchdog — only an explicit policy zero does).
    pub timeout: Option<Duration>,
}

/// A structured record of one failed job.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Application name.
    pub app: String,
    /// Design label (empty for non-cell jobs).
    pub design: String,
    /// Failure classification.
    pub kind: JobErrorKind,
    /// Human-readable payload: the panic message, simulator error, or
    /// deadline description.
    pub payload: String,
    /// Attempts consumed (1 = failed on the first try, no retry granted).
    pub attempts: u32,
    /// Wall time from the job's first attempt to its final settlement.
    pub elapsed: Duration,
    /// The cell's fingerprint, when known.
    pub key: Option<u64>,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cell = if self.design.is_empty() {
            self.app.clone()
        } else {
            format!("{}/{}", self.app, self.design)
        };
        write!(f, "{cell}: {}: {} ({} attempt(s))", self.kind, self.payload, self.attempts)
    }
}

/// Result of one supervised job.
#[derive(Debug, Clone)]
pub enum JobOutcome<R> {
    /// The job produced a value.
    Done(R),
    /// The job failed after exhausting its retry budget (or was timed out
    /// / aborted).
    Failed(JobError),
}

impl<R> JobOutcome<R> {
    /// The value, if the job succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The error, if the job failed.
    pub fn err(&self) -> Option<&JobError> {
        match self {
            JobOutcome::Done(_) => None,
            JobOutcome::Failed(e) => Some(e),
        }
    }
}

/// A failure a job function reports without panicking (e.g. a simulator
/// error). Panics are captured separately as [`JobErrorKind::Panic`].
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Failure classification.
    pub kind: JobErrorKind,
    /// Human-readable description.
    pub payload: String,
}

impl JobFailure {
    /// A deterministic simulator failure.
    pub fn sim(payload: impl Into<String>) -> JobFailure {
        JobFailure { kind: JobErrorKind::Sim, payload: payload.into() }
    }
}

/// Supervision policy for one sweep.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Extra attempts granted to transient failures (0 = fail on first
    /// error). Deterministic kinds ([`JobErrorKind::Sim`],
    /// [`JobErrorKind::TimedOut`]) are never retried regardless.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Per-job wall-clock deadline (first attempt to settlement).
    /// `Some(Duration::ZERO)` disables the watchdog explicitly
    /// (`--job-timeout 0`); `None` lets sweeps derive a default from the
    /// config's `max_cycles` (see [`SupervisorPolicy::derived_timeout`]).
    pub job_timeout: Option<Duration>,
    /// Abort the sweep on the first failure.
    pub fail_fast: bool,
    /// Abort the sweep once more than this many jobs have failed.
    pub max_failures: Option<u64>,
    /// Abort after this many jobs have settled — a deterministic
    /// mid-campaign kill, used by the fault-injection harness and the
    /// resume tests.
    pub stop_after: Option<usize>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            retries: 1,
            backoff: Duration::from_millis(50),
            job_timeout: None,
            fail_fast: false,
            max_failures: None,
            stop_after: None,
        }
    }
}

impl SupervisorPolicy {
    /// Default per-simulation deadline derived from a cycle budget: the
    /// slowest workloads simulate well above 250 kcycles/s, so this is a
    /// generous bound that only a genuinely wedged job crosses. Clamped to
    /// `[120 s, 900 s]`.
    pub fn derived_timeout(max_cycles: u64) -> Duration {
        Duration::from_secs((max_cycles / 250_000).clamp(120, 900))
    }

    /// Per-job deadline derived from the cost model's *predicted* cycles
    /// rather than the `max_cycles` upper bound: the prediction tracks the
    /// actual run length (registry-wide Spearman ≈0.9), so 25 kcycles/s —
    /// an order of magnitude below the slowest observed simulation rate —
    /// leaves ~10× slack for estimator error and machine load. Clamped to
    /// the same `[120 s, 900 s]` band as [`Self::derived_timeout`], so a
    /// wildly low prediction can never produce a hair-trigger watchdog.
    pub fn predicted_timeout(predicted_cycles: u64) -> Duration {
        Duration::from_secs((predicted_cycles / 25_000).clamp(120, 900))
    }

    /// The effective deadline for jobs that each run up to `sims_per_job`
    /// simulations of at most `max_cycles` cycles: an explicit
    /// `job_timeout` wins (zero meaning "no deadline"), else the derived
    /// default scaled by the job's simulation count.
    pub fn effective_timeout(&self, max_cycles: u64, sims_per_job: u32) -> Option<Duration> {
        match self.job_timeout {
            Some(d) if d.is_zero() => None,
            Some(d) => Some(d),
            None => Some(Self::derived_timeout(max_cycles) * sims_per_job.max(1)),
        }
    }
}

/// The installed run context's supervision policy (the `repro` flags
/// `--retries`, `--job-timeout`, `--fail-fast`, `--max-failures`; the
/// defaults if nothing was installed). Library and test users pass
/// explicit policies instead.
pub fn policy() -> &'static SupervisorPolicy {
    &crate::session::context().policy
}

/// Outcome summary of one [`supervise_map`] sweep.
#[derive(Debug)]
pub struct SuperviseReport<R> {
    /// Per-job outcomes, in item order.
    pub outcomes: Vec<JobOutcome<R>>,
    /// Jobs that settled as failed (including timeouts, excluding aborts).
    pub failed: u64,
    /// Retry attempts granted across all jobs.
    pub retried: u64,
    /// Jobs abandoned by the watchdog.
    pub timed_out: u64,
    /// Whether the sweep stopped early (fail-fast, failure budget, or
    /// `stop_after`).
    pub aborted: bool,
    /// Cumulative time the pool's workers spent inside job attempts.
    pub pool_busy: Duration,
    /// Wall time of the whole sweep.
    pub pool_wall: Duration,
    /// Worker threads the pool ran (0 for an empty sweep).
    pub workers: usize,
}

impl<R> SuperviseReport<R> {
    /// The [`JobError`]s of every non-`Done` outcome, in item order.
    pub fn failures(&self) -> Vec<JobError> {
        self.outcomes.iter().filter_map(|o| o.err().cloned()).collect()
    }
}

/// Counting semaphore bounding how many jobs run at once. The watchdog
/// releases an abandoned job's slot so the pool never shrinks below the
/// configured parallelism while a straggler drains.
struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Slots {
        Slots { free: Mutex::new(n), cv: Condvar::new() }
    }

    /// Waits for a slot; returns `false` if the sweep was cancelled first.
    fn acquire(&self, cancel: &AtomicBool) -> bool {
        let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if cancel.load(Ordering::Relaxed) {
                return false;
            }
            if *free > 0 {
                *free -= 1;
                return true;
            }
            // Bounded wait so a cancel raised while we sleep is noticed.
            let (guard, _) = self
                .cv
                .wait_timeout(free, Duration::from_millis(25))
                .unwrap_or_else(|p| p.into_inner());
            free = guard;
        }
    }

    fn release(&self) {
        *self.free.lock().unwrap_or_else(|p| p.into_inner()) += 1;
        self.cv.notify_all();
    }
}

/// Watchdog tick: how often the collector scans running jobs for deadline
/// overruns (and re-checks abort conditions).
const TICK: Duration = Duration::from_millis(25);

/// Runs `f` over `items` on a bounded worker pool, supervised: panics and
/// reported failures become per-job [`JobOutcome::Failed`] records instead
/// of propagating, transient failures are retried per `policy`, and a
/// watchdog abandons jobs that exceed the policy deadline. Outcomes are
/// returned in item order.
///
/// `tags[i]` labels item `i` in failure records; `f` receives the item and
/// the 1-based attempt number (deterministic fault injection keys off it).
///
/// # Panics
///
/// Panics only on internal invariant violations (`tags` shorter than
/// `items`), never because a *job* failed.
pub fn supervise_map<T, R, F>(
    items: &[T],
    tags: Vec<JobTag>,
    f: F,
    policy: &SupervisorPolicy,
) -> SuperviseReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u32) -> Result<R, JobFailure> + Sync,
{
    let n = items.len();
    assert!(tags.len() >= n, "every item needs a tag");
    if n == 0 {
        return SuperviseReport {
            outcomes: Vec::new(),
            failed: 0,
            retried: 0,
            timed_out: 0,
            aborted: false,
            pool_busy: Duration::ZERO,
            pool_wall: Duration::ZERO,
            workers: 0,
        };
    }
    let workers = std::thread::available_parallelism()
        .map_or(4, |w| w.get())
        .min(n)
        .min(crate::runner::jobs_cap().unwrap_or(usize::MAX));

    let slots = Slots::new(workers);
    let cancel = AtomicBool::new(false);
    // Per-job settlement flag: exactly one of {job thread, watchdog,
    // spawner-abort} records each outcome. Losers of the race discard
    // their result and must not release the slot a second time.
    let settled: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    // Start instant of each in-flight job (first attempt), for the
    // watchdog's deadline scan.
    let running: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let busy_nanos = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<R>)>();

    let mut outcomes: Vec<Option<JobOutcome<R>>> = (0..n).map(|_| None).collect();
    let mut failed: u64 = 0;
    let mut timed_out: u64 = 0;
    let mut aborted = false;
    let wall_start = Instant::now();

    std::thread::scope(|s| {
        let slots = &slots;
        let cancel = &cancel;
        let settled = &settled;
        let running = &running;
        let busy_nanos = &busy_nanos;
        let retried_ctr = &retried;
        let f = &f;
        let tags = &tags;

        // Spawner: feeds jobs into the pool as slots free up; on cancel,
        // settles every not-yet-started job as aborted.
        let spawner_tx = tx.clone();
        s.spawn(move || {
            for i in 0..n {
                if !slots.acquire(cancel) {
                    // Cancelled: abort this and all remaining jobs.
                    for j in i..n {
                        if settled[j]
                            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            let tag = &tags[j];
                            subcore_metrics::inc(mx::SUPERVISOR_JOB_ABORTED);
                            let _ = spawner_tx.send((
                                j,
                                JobOutcome::Failed(JobError {
                                    app: tag.app.clone(),
                                    design: tag.design.clone(),
                                    kind: JobErrorKind::Aborted,
                                    payload: "sweep aborted before this job ran".into(),
                                    attempts: 0,
                                    elapsed: Duration::ZERO,
                                    key: tag.key,
                                }),
                            ));
                        }
                    }
                    return;
                }
                let job_tx = spawner_tx.clone();
                s.spawn(move || {
                    let job_start = Instant::now();
                    *running[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(job_start);
                    subcore_metrics::inc(mx::SUPERVISOR_JOB_STARTED);
                    let mut attempt: u32 = 1;
                    loop {
                        let t0 = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| f(&items[i], attempt)));
                        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        busy_nanos.fetch_add(nanos, Ordering::Relaxed);
                        let failure = match result {
                            Ok(Ok(r)) => {
                                if settle(i, JobOutcome::Done(r), settled, slots, &job_tx) {
                                    subcore_metrics::inc(mx::SUPERVISOR_JOB_DONE);
                                    subcore_metrics::observe(
                                        mx::SUPERVISOR_JOB_WALL_US,
                                        u64::try_from(job_start.elapsed().as_micros())
                                            .unwrap_or(u64::MAX),
                                    );
                                }
                                break;
                            }
                            Ok(Err(fail)) => fail,
                            Err(payload) => JobFailure {
                                kind: JobErrorKind::Panic,
                                payload: panic_message(&*payload),
                            },
                        };
                        let abandoned = settled[i].load(Ordering::Acquire);
                        if failure.kind.transient()
                            && attempt <= policy.retries
                            && !abandoned
                            && !cancel.load(Ordering::Relaxed)
                        {
                            retried_ctr.fetch_add(1, Ordering::Relaxed);
                            subcore_metrics::inc(mx::SUPERVISOR_JOB_RETRY);
                            std::thread::sleep(policy.backoff * 2u32.pow(attempt - 1));
                            attempt += 1;
                            continue;
                        }
                        let tag = &tags[i];
                        let elapsed = job_start.elapsed();
                        if settle(
                            i,
                            JobOutcome::Failed(JobError {
                                app: tag.app.clone(),
                                design: tag.design.clone(),
                                kind: failure.kind,
                                payload: failure.payload,
                                attempts: attempt,
                                elapsed,
                                key: tag.key,
                            }),
                            settled,
                            slots,
                            &job_tx,
                        ) {
                            subcore_metrics::inc(mx::SUPERVISOR_JOB_FAILED);
                            subcore_metrics::observe(
                                mx::SUPERVISOR_JOB_WALL_US,
                                u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                            );
                        }
                        break;
                    }
                    *running[i].lock().unwrap_or_else(|p| p.into_inner()) = None;
                });
            }
        });
        drop(tx);

        // Collector + watchdog (this thread): records outcomes, scans for
        // deadline overruns, and raises the abort flag per policy.
        let mut recorded = 0usize;
        while recorded < n {
            match rx.recv_timeout(TICK) {
                Ok((i, outcome)) => {
                    if outcome.err().is_some_and(|e| e.kind != JobErrorKind::Aborted) {
                        failed += 1;
                    }
                    outcomes[i] = Some(outcome);
                    recorded += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            // An explicit policy zero (`--job-timeout 0`) disables the
            // watchdog outright, including per-job budgets.
            let watchdog_disabled = policy.job_timeout.is_some_and(|d| d.is_zero());
            if !watchdog_disabled {
                for i in 0..n {
                    let Some(deadline) =
                        tags[i].timeout.filter(|d| !d.is_zero()).or(policy.job_timeout)
                    else {
                        continue;
                    };
                    if settled[i].load(Ordering::Acquire) {
                        continue;
                    }
                    let overdue = running[i]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .is_some_and(|start| start.elapsed() > deadline);
                    if overdue
                        && settled[i]
                            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        let tag = &tags[i];
                        outcomes[i] = Some(JobOutcome::Failed(JobError {
                            app: tag.app.clone(),
                            design: tag.design.clone(),
                            kind: JobErrorKind::TimedOut,
                            payload: format!(
                                "exceeded the {:.1}s job deadline; abandoned by the watchdog",
                                deadline.as_secs_f64()
                            ),
                            attempts: 1,
                            elapsed: deadline,
                            key: tag.key,
                        }));
                        recorded += 1;
                        failed += 1;
                        timed_out += 1;
                        subcore_metrics::inc(mx::SUPERVISOR_JOB_TIMEOUT);
                        subcore_metrics::inc(mx::SUPERVISOR_JOB_FAILED);
                        // Free the abandoned job's slot so the pool keeps
                        // its parallelism while the straggler drains.
                        slots.release();
                    }
                }
            }
            let over_budget = policy.max_failures.is_some_and(|max| failed > max);
            let stop = policy.stop_after.is_some_and(|k| recorded >= k);
            if ((policy.fail_fast && failed > 0) || over_budget || stop)
                && !cancel.swap(true, Ordering::Relaxed)
            {
                aborted = true;
                slots.cv.notify_all();
            }
        }
        // Scope exit joins any straggler threads (finite: every simulation
        // is bounded by `max_cycles`).
    });

    let pool_busy = Duration::from_nanos(busy_nanos.load(Ordering::Relaxed));
    subcore_metrics::gauge_set(mx::POOL_WORKERS, workers as f64);
    subcore_metrics::add(
        mx::POOL_BUSY_US,
        u64::try_from(pool_busy.as_micros()).unwrap_or(u64::MAX),
    );
    SuperviseReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every job settles exactly once"))
            .collect(),
        failed,
        retried: retried.load(Ordering::Relaxed),
        timed_out,
        aborted,
        pool_busy,
        pool_wall: wall_start.elapsed(),
        workers,
    }
}

/// Records `outcome` for job `i` if nobody else (watchdog, abort) has, and
/// releases the job's worker slot. Returns whether this call won the
/// settlement race; losing means the job was abandoned, its result is
/// discarded, and its slot was already released.
fn settle<R>(
    i: usize,
    outcome: JobOutcome<R>,
    settled: &[AtomicBool],
    slots: &Slots,
    tx: &mpsc::Sender<(usize, JobOutcome<R>)>,
) -> bool {
    if settled[i].compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok() {
        // The collector outlives every sender (same scope); a failed send
        // means it already stopped, and there is nothing left to do.
        let _ = tx.send((i, outcome));
        slots.release();
        true
    } else {
        false
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(n: usize) -> Vec<JobTag> {
        (0..n)
            .map(|i| JobTag {
                app: format!("app{i}"),
                design: "d".into(),
                key: Some(i as u64),
                timeout: None,
            })
            .collect()
    }

    fn quick() -> SupervisorPolicy {
        SupervisorPolicy { backoff: Duration::from_millis(1), ..SupervisorPolicy::default() }
    }

    #[test]
    fn all_jobs_succeed_in_order() {
        let items: Vec<u64> = (0..50).collect();
        let report = supervise_map(&items, tags(50), |&x, _| Ok::<_, JobFailure>(x * 3), &quick());
        assert_eq!(report.failed, 0);
        assert!(!report.aborted);
        let values: Vec<u64> = report.outcomes.into_iter().map(|o| o.ok().unwrap()).collect();
        assert_eq!(values, (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panics_become_failures_not_propagation() {
        let items = vec![1u64, 2, 3, 4];
        let report = supervise_map(
            &items,
            tags(4),
            |&x, _| {
                if x % 2 == 0 {
                    panic!("job {x} exploded");
                }
                Ok::<_, JobFailure>(x)
            },
            &SupervisorPolicy { retries: 0, ..quick() },
        );
        assert_eq!(report.failed, 2);
        assert!(!report.aborted);
        let e = report.outcomes[1].err().expect("job 2 failed");
        assert_eq!(e.kind, JobErrorKind::Panic);
        assert!(e.payload.contains("job 2 exploded"));
        assert_eq!(e.attempts, 1);
        assert!(report.outcomes[0].err().is_none());
    }

    #[test]
    fn transient_failures_retry_and_recover() {
        use std::sync::atomic::AtomicU32;
        let attempts_seen = AtomicU32::new(0);
        let items = vec![()];
        let report = supervise_map(
            &items,
            tags(1),
            |(), attempt| {
                attempts_seen.fetch_max(attempt, Ordering::Relaxed);
                if attempt < 3 {
                    panic!("transient wobble");
                }
                Ok::<_, JobFailure>(attempt)
            },
            &SupervisorPolicy { retries: 2, ..quick() },
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.retried, 2);
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn sim_errors_are_never_retried() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let items = vec![()];
        let report = supervise_map(
            &items,
            tags(1),
            |(), _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err::<u64, _>(JobFailure::sim("kernel unschedulable"))
            },
            &SupervisorPolicy { retries: 5, ..quick() },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "deterministic failures fail once");
        let e = report.outcomes[0].err().unwrap();
        assert_eq!(e.kind, JobErrorKind::Sim);
        assert_eq!(report.retried, 0);
    }

    #[test]
    fn exhausted_retry_budget_reports_attempts() {
        let items = vec![()];
        let report = supervise_map(
            &items,
            tags(1),
            |(), _| -> Result<u64, JobFailure> { panic!("always fails") },
            &SupervisorPolicy { retries: 2, ..quick() },
        );
        let e = report.outcomes[0].err().unwrap();
        assert_eq!(e.attempts, 3, "initial try plus two retries");
        assert_eq!(report.retried, 2);
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn watchdog_times_out_stalled_jobs_and_sweep_continues() {
        let items: Vec<u64> = (0..6).collect();
        let report = supervise_map(
            &items,
            tags(6),
            |&x, _| {
                if x == 2 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok::<_, JobFailure>(x)
            },
            &SupervisorPolicy {
                retries: 0,
                job_timeout: Some(Duration::from_millis(80)),
                ..quick()
            },
        );
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.failed, 1);
        let e = report.outcomes[2].err().expect("stalled job abandoned");
        assert_eq!(e.kind, JobErrorKind::TimedOut);
        // Every other job still produced its value.
        for (i, o) in report.outcomes.iter().enumerate() {
            if i != 2 {
                assert!(o.err().is_none(), "job {i} should have survived");
            }
        }
    }

    #[test]
    fn fail_fast_aborts_remaining_jobs() {
        // Serialize the pool to one worker via many items and a poisoned
        // first job: with fail_fast, later jobs must be aborted, not run.
        let items: Vec<u64> = (0..64).collect();
        let report = supervise_map(
            &items,
            tags(64),
            |&x, _| {
                if x == 0 {
                    panic!("first job dies");
                }
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, JobFailure>(x)
            },
            &SupervisorPolicy { retries: 0, fail_fast: true, ..quick() },
        );
        assert!(report.aborted);
        assert_eq!(report.failed, 1, "aborted jobs are not counted as failures");
        let aborted = report
            .outcomes
            .iter()
            .filter(|o| o.err().is_some_and(|e| e.kind == JobErrorKind::Aborted))
            .count();
        assert!(aborted > 0, "some jobs must have been aborted before running");
    }

    #[test]
    fn max_failures_budget_aborts_when_exceeded() {
        let items: Vec<u64> = (0..64).collect();
        let report = supervise_map(
            &items,
            tags(64),
            |&x, _| -> Result<u64, JobFailure> {
                std::thread::sleep(Duration::from_millis(1));
                panic!("job {x} dies")
            },
            &SupervisorPolicy { retries: 0, max_failures: Some(3), ..quick() },
        );
        assert!(report.aborted);
        assert!(report.failed > 3, "the budget must have been exceeded");
        assert!(
            report.failed < 64,
            "the sweep must stop well before every job fails: {}",
            report.failed
        );
    }

    #[test]
    fn stop_after_is_a_deterministic_kill() {
        let items: Vec<u64> = (0..32).collect();
        let report = supervise_map(
            &items,
            tags(32),
            |&x, _| {
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, JobFailure>(x)
            },
            &SupervisorPolicy { stop_after: Some(5), ..quick() },
        );
        assert!(report.aborted);
        let done = report.outcomes.iter().filter(|o| o.err().is_none()).count();
        let aborted = report
            .outcomes
            .iter()
            .filter(|o| o.err().is_some_and(|e| e.kind == JobErrorKind::Aborted))
            .count();
        assert!(done >= 5, "at least stop_after jobs settle: {done}");
        assert!(aborted > 0, "the tail of the campaign must be aborted");
        assert_eq!(done + aborted, 32);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let report =
            supervise_map(&Vec::<u64>::new(), Vec::new(), |&x, _| Ok::<_, JobFailure>(x), &quick());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn derived_timeout_clamps() {
        assert_eq!(SupervisorPolicy::derived_timeout(0), Duration::from_secs(120));
        assert_eq!(SupervisorPolicy::derived_timeout(80_000_000), Duration::from_secs(320));
        assert_eq!(SupervisorPolicy::derived_timeout(u64::MAX), Duration::from_secs(900));
        let p =
            SupervisorPolicy { job_timeout: Some(Duration::from_secs(7)), ..Default::default() };
        assert_eq!(p.effective_timeout(80_000_000, 10), Some(Duration::from_secs(7)));
        let d = SupervisorPolicy::default();
        assert_eq!(d.effective_timeout(80_000_000, 2), Some(Duration::from_secs(640)));
        let off = SupervisorPolicy { job_timeout: Some(Duration::ZERO), ..Default::default() };
        assert_eq!(off.effective_timeout(80_000_000, 2), None, "zero disables the watchdog");
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in
            [JobErrorKind::Panic, JobErrorKind::Sim, JobErrorKind::TimedOut, JobErrorKind::Aborted]
        {
            assert_eq!(JobErrorKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(JobErrorKind::from_tag("gremlins"), None);
    }
}
