//! Supervised job execution: fault-isolated, retriable sweeps.
//!
//! A bare scoped worker pool lets one bad cell kill a whole campaign and
//! throw away every in-flight result. [`supervise_map`] is the harness's
//! pool with supervision built in: it runs each job under `catch_unwind`,
//! converts failures into structured [`JobError`]s instead of propagating
//! them, retries transient kinds with exponential backoff, and stops the
//! sweep early on request (fail-fast, a failure budget, or a deliberate
//! mid-campaign kill), settling every job it never started as
//! [`JobErrorKind::Aborted`].
//!
//! There is no wall-clock deadline. Every job the harness supervises is a
//! simulation bounded by its config's `max_cycles`, and an overrun is the
//! engine's own deterministic `CycleLimitExceeded`, which arrives here as
//! an ordinary [`JobErrorKind::Sim`] failure and reads the same on every
//! host.
//!
//! Failure totals (failed / retried jobs) and pool usage come back in the
//! [`SuperviseReport`]; the campaign drivers hand it to the session they
//! ran on, which is how both reach the `repro` summary and
//! `run_telemetry.csv` (see [`crate::telemetry`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
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
    /// The simulator returned a [`subcore_engine::SimError`] (including a
    /// run that hit its `max_cycles` bound). Deterministic — a retry would
    /// fail identically — so never retried.
    Sim,
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
            JobErrorKind::Aborted => "aborted",
        }
    }

    /// Whether the supervisor may re-attempt a job that failed this way.
    pub fn transient(&self) -> bool {
        matches!(self, JobErrorKind::Panic)
    }

    /// Parses a [`JobErrorKind::tag`] back (journal round-trips). Tags this
    /// build no longer produces parse as `None`.
    pub fn from_tag(tag: &str) -> Option<JobErrorKind> {
        match tag {
            "panic" => Some(JobErrorKind::Panic),
            "sim-error" => Some(JobErrorKind::Sim),
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
    /// Human-readable payload: the panic message or simulator error.
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
    /// The job failed after exhausting its retry budget (or was aborted).
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
    /// error). Deterministic [`JobErrorKind::Sim`] failures are never
    /// retried regardless.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Abort the sweep on the first failure.
    pub fail_fast: bool,
    /// Abort the sweep once more than this many jobs have failed.
    pub max_failures: Option<u64>,
    /// Start only this many jobs and abort the rest once they have
    /// settled — a deterministic mid-campaign kill, used by the
    /// fault-injection harness and the resume tests.
    pub stop_after: Option<usize>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            retries: 1,
            backoff: Duration::from_millis(50),
            fail_fast: false,
            max_failures: None,
            stop_after: None,
        }
    }
}

/// The installed run context's supervision policy (the `repro` flags
/// `--retries`, `--fail-fast`, `--max-failures`; the defaults if nothing
/// was installed). Library and test users pass explicit policies instead.
pub fn policy() -> &'static SupervisorPolicy {
    &crate::session::context().policy
}

/// Outcome summary of one [`supervise_map`] sweep.
#[derive(Debug)]
pub struct SuperviseReport<R> {
    /// Per-job outcomes, in item order.
    pub outcomes: Vec<JobOutcome<R>>,
    /// Jobs that settled as failed (excluding aborts).
    pub failed: u64,
    /// Retry attempts granted across all jobs.
    pub retried: u64,
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

/// Runs `f` over `items` on a bounded worker pool, supervised: panics and
/// reported failures become per-job [`JobOutcome::Failed`] records instead
/// of propagating, and transient failures are retried per `policy`.
/// Outcomes are returned in item order.
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
    let workers = std::thread::available_parallelism()
        .map_or(4, |w| w.get())
        .min(n)
        .min(crate::runner::jobs_cap().unwrap_or(usize::MAX));

    // Workers pull item indices from `next` until it runs past the end (or
    // past `stop_after`, so that kill never depends on how fast the pool
    // outruns the collector) or the collector raises `cancel`; whatever
    // was never pulled is aborted.
    let started_max = policy.stop_after.map_or(n, |k| k.min(n));
    let next = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let busy_nanos = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<R>)>();

    let mut outcomes: Vec<Option<JobOutcome<R>>> = (0..n).map(|_| None).collect();
    let mut failed: u64 = 0;
    let mut aborted = false;
    let wall_start = Instant::now();

    let attempts = Attempts { policy, cancel: &cancel, busy_nanos: &busy_nanos, retried: &retried };
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, attempts, f, tags) = (&next, &attempts, &f, &tags);
            s.spawn(move || {
                while !attempts.cancel.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= started_max {
                        break;
                    }
                    let outcome = attempts.job(&tags[i], |attempt| f(&items[i], attempt));
                    // The collector outlives every worker (same scope).
                    let _ = tx.send((i, outcome));
                }
            });
        }
        drop(tx);

        // Collector (this thread): records outcomes as they settle and
        // raises the cancel flag per policy. Ends once every worker left.
        for (settled, (i, outcome)) in (1usize..).zip(rx) {
            if outcome.err().is_some() {
                failed += 1;
            }
            outcomes[i] = Some(outcome);
            let over_budget = policy.max_failures.is_some_and(|max| failed > max);
            let stop = policy.stop_after.is_some_and(|k| settled >= k);
            if ((policy.fail_fast && failed > 0) || over_budget || stop)
                && !cancel.swap(true, Ordering::Relaxed)
            {
                aborted = true;
            }
        }
    });

    let pool_busy = Duration::from_nanos(busy_nanos.load(Ordering::Relaxed));
    if workers > 0 {
        subcore_metrics::gauge_set(mx::POOL_WORKERS, workers as f64);
        subcore_metrics::add(
            mx::POOL_BUSY_US,
            u64::try_from(pool_busy.as_micros()).unwrap_or(u64::MAX),
        );
    }
    let outcomes = outcomes
        .into_iter()
        .zip(&tags)
        .map(|(outcome, tag)| {
            outcome.unwrap_or_else(|| {
                subcore_metrics::inc(mx::SUPERVISOR_JOB_ABORTED);
                JobOutcome::Failed(JobError {
                    app: tag.app.clone(),
                    design: tag.design.clone(),
                    kind: JobErrorKind::Aborted,
                    payload: "sweep aborted before this job ran".into(),
                    attempts: 0,
                    elapsed: Duration::ZERO,
                    key: tag.key,
                })
            })
        })
        .collect();
    SuperviseReport {
        outcomes,
        failed,
        retried: retried.load(Ordering::Relaxed),
        aborted,
        pool_busy,
        pool_wall: wall_start.elapsed(),
        workers,
    }
}

/// What one worker needs to run a job through its attempts.
struct Attempts<'a> {
    policy: &'a SupervisorPolicy,
    cancel: &'a AtomicBool,
    busy_nanos: &'a AtomicU64,
    retried: &'a AtomicU64,
}

impl Attempts<'_> {
    /// Runs `run` under `catch_unwind` until it succeeds, fails
    /// deterministically, runs out of retries, or the sweep is cancelled.
    fn job<R>(&self, tag: &JobTag, run: impl Fn(u32) -> Result<R, JobFailure>) -> JobOutcome<R> {
        let job_start = Instant::now();
        subcore_metrics::inc(mx::SUPERVISOR_JOB_STARTED);
        let mut attempt: u32 = 1;
        let failure = loop {
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| run(attempt)));
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
            let failure = match result {
                Ok(Ok(r)) => {
                    subcore_metrics::inc(mx::SUPERVISOR_JOB_DONE);
                    observe_wall(job_start);
                    return JobOutcome::Done(r);
                }
                Ok(Err(fail)) => fail,
                Err(payload) => {
                    JobFailure { kind: JobErrorKind::Panic, payload: panic_message(&*payload) }
                }
            };
            if failure.kind.transient()
                && attempt <= self.policy.retries
                && !self.cancel.load(Ordering::Relaxed)
            {
                self.retried.fetch_add(1, Ordering::Relaxed);
                subcore_metrics::inc(mx::SUPERVISOR_JOB_RETRY);
                std::thread::sleep(self.policy.backoff * 2u32.pow(attempt - 1));
                attempt += 1;
                continue;
            }
            break failure;
        };
        subcore_metrics::inc(mx::SUPERVISOR_JOB_FAILED);
        observe_wall(job_start);
        JobOutcome::Failed(JobError {
            app: tag.app.clone(),
            design: tag.design.clone(),
            kind: failure.kind,
            payload: failure.payload,
            attempts: attempt,
            elapsed: job_start.elapsed(),
            key: tag.key,
        })
    }
}

/// Records a settled job's wall time since its first attempt.
fn observe_wall(job_start: Instant) {
    let us = u64::try_from(job_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    subcore_metrics::observe(mx::SUPERVISOR_JOB_WALL_US, us);
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
            .map(|i| JobTag { app: format!("app{i}"), design: "d".into(), key: Some(i as u64) })
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
        assert_eq!(done, 5, "exactly stop_after jobs run, however fast the pool");
        assert_eq!(aborted, 27, "the tail of the campaign must be aborted");
    }

    #[test]
    fn empty_input_is_a_noop() {
        let report =
            supervise_map(&Vec::<u64>::new(), Vec::new(), |&x, _| Ok::<_, JobFailure>(x), &quick());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in [JobErrorKind::Panic, JobErrorKind::Sim, JobErrorKind::Aborted] {
            assert_eq!(JobErrorKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(JobErrorKind::from_tag("gremlins"), None);
        assert_eq!(JobErrorKind::from_tag("timeout"), None, "the retired watchdog tag");
    }
}
