//! Supervised job execution: fault-isolated sweeps.
//!
//! A bare scoped worker pool lets one bad cell kill a whole campaign and
//! throw away every in-flight result. [`supervise_map`] is the harness's
//! pool with supervision built in: it runs each job once under
//! `catch_unwind`, converts failures into structured [`JobError`]s instead
//! of propagating them, and stops the sweep early on request (a failure
//! budget, or a deliberate mid-campaign kill), settling every job it never
//! started as [`JobErrorKind::Aborted`].
//!
//! Nothing is run twice. Every job the harness supervises is a simulation
//! whose result is a pure function of its cell, so a job that panicked or
//! errored would fail the same way again. Recovery is the campaign journal
//! and `repro --resume`, which recompute exactly the cells that did not
//! complete.
//!
//! There is no wall-clock deadline. Every job is bounded by its config's
//! `max_cycles`, and an overrun is the engine's own deterministic
//! `CycleLimitExceeded`, which arrives here as an ordinary
//! [`JobErrorKind::Sim`] failure and reads the same on every host.
//!
//! Failure totals and pool usage come back in the [`SuperviseReport`]. A
//! campaign driver's pool also books itself on the session it runs on
//! (`supervise` with a ledger): each job as it starts and settles, so a
//! snapshot pulled mid-sweep counts what has settled so far, and its usage
//! and failure records when it ends. That is how they reach `repro top`,
//! the `repro` summary and `run_telemetry.csv` (see [`crate::telemetry`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::telemetry::Telemetry;

/// How a job failure is classified in telemetry and journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobErrorKind {
    /// The job panicked.
    Panic,
    /// The job returned an error: for a simulation, a
    /// [`subcore_engine::SimError`] (a run that hit its `max_cycles` bound
    /// included).
    Sim,
    /// The sweep was aborted (failure budget, or a deliberate stop) before
    /// this job ran.
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
    /// Wall time the job ran before it failed (zero if aborted).
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
        write!(f, "{cell}: {}: {}", self.kind, self.payload)
    }
}

/// Result of one supervised job.
#[derive(Debug, Clone)]
pub enum JobOutcome<R> {
    /// The job produced a value.
    Done(R),
    /// The job failed (or was aborted).
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

/// Supervision policy for one sweep. The default runs every job and never
/// stops early.
#[derive(Debug, Clone, Default)]
pub struct SupervisorPolicy {
    /// Abort the sweep once more than this many jobs have failed
    /// (`Some(0)`: on the first failure).
    pub max_failures: Option<u64>,
    /// Start only this many jobs and abort the rest once they have
    /// settled — a deterministic mid-campaign kill, used by the
    /// fault-injection harness and the resume tests.
    pub stop_after: Option<usize>,
}

/// The installed run context's supervision policy (the `repro` flag
/// `--max-failures`; the default if nothing was installed). Library and
/// test users pass explicit policies instead.
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
    /// Whether the sweep stopped early (failure budget or `stop_after`).
    pub aborted: bool,
    /// Cumulative time the pool's workers spent inside jobs.
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

/// Runs `f` over `items` on a bounded worker pool, supervised: each job
/// runs once under `catch_unwind`, and an `Err` or a panic becomes a
/// per-job [`JobOutcome::Failed`] record ([`JobErrorKind::Sim`] or
/// [`JobErrorKind::Panic`]) instead of propagating. Outcomes are returned
/// in item order.
///
/// `tags[i]` labels item `i` in failure records. `f` receives the item and
/// a `u32` that is always 1 (the run number of a pool that never reruns a
/// job; the argument stays for callers that bind this signature).
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
    F: Fn(&T, u32) -> Result<R, String> + Sync,
{
    supervise(items, tags, f, policy, None)
}

/// [`supervise_map`], booked on `ledger` when one is given: every job as
/// it starts and settles, and the pool's usage, aborts and failure records
/// when it ends.
pub(crate) fn supervise<T, R, F>(
    items: &[T],
    tags: Vec<JobTag>,
    f: F,
    policy: &SupervisorPolicy,
    ledger: Option<&Telemetry>,
) -> SuperviseReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u32) -> Result<R, String> + Sync,
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
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome<R>)>();

    let mut outcomes: Vec<Option<JobOutcome<R>>> = (0..n).map(|_| None).collect();
    let mut failed: u64 = 0;
    let mut aborted = false;
    let wall_start = Instant::now();

    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, cancel, busy_nanos, f, tags) = (&next, &cancel, &busy_nanos, &f, &tags);
            s.spawn(move || {
                while !cancel.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= started_max {
                        break;
                    }
                    let outcome = run_job(&tags[i], busy_nanos, ledger, || f(&items[i], 1));
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
            if (over_budget || stop) && !cancel.swap(true, Ordering::Relaxed) {
                aborted = true;
            }
        }
    });

    let outcomes = outcomes
        .into_iter()
        .zip(&tags)
        .map(|(outcome, tag)| {
            outcome.unwrap_or_else(|| {
                JobOutcome::Failed(JobError {
                    app: tag.app.clone(),
                    design: tag.design.clone(),
                    kind: JobErrorKind::Aborted,
                    payload: "sweep aborted before this job ran".into(),
                    elapsed: Duration::ZERO,
                    key: tag.key,
                })
            })
        })
        .collect();
    let report = SuperviseReport {
        outcomes,
        failed,
        aborted,
        pool_busy: Duration::from_nanos(busy_nanos.load(Ordering::Relaxed)),
        pool_wall: wall_start.elapsed(),
        workers,
    };
    if let Some(ledger) = ledger {
        ledger.note_pool(&report);
    }
    report
}

/// Runs one job under `catch_unwind` and settles it, adding its wall time
/// to `busy_nanos` and booking it on `ledger`.
fn run_job<R>(
    tag: &JobTag,
    busy_nanos: &AtomicU64,
    ledger: Option<&Telemetry>,
    run: impl FnOnce() -> Result<R, String>,
) -> JobOutcome<R> {
    if let Some(ledger) = ledger {
        ledger.note_job_started();
    }
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(run));
    let elapsed = start.elapsed();
    busy_nanos.fetch_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    if let Some(ledger) = ledger {
        ledger.note_job_settled(matches!(result, Ok(Ok(_))), elapsed);
    }
    let (kind, payload) = match result {
        Ok(Ok(r)) => return JobOutcome::Done(r),
        Ok(Err(payload)) => (JobErrorKind::Sim, payload),
        Err(panic) => (JobErrorKind::Panic, panic_message(&*panic)),
    };
    JobOutcome::Failed(JobError {
        app: tag.app.clone(),
        design: tag.design.clone(),
        kind,
        payload,
        elapsed,
        key: tag.key,
    })
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

    fn aborted(report: &SuperviseReport<u64>) -> usize {
        report
            .outcomes
            .iter()
            .filter(|o| o.err().is_some_and(|e| e.kind == JobErrorKind::Aborted))
            .count()
    }

    #[test]
    fn all_jobs_succeed_in_order() {
        let items: Vec<u64> = (0..50).collect();
        let report = supervise_map(
            &items,
            tags(50),
            |&x, _| Ok::<_, String>(x * 3),
            &SupervisorPolicy::default(),
        );
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
                Ok::<_, String>(x)
            },
            &SupervisorPolicy::default(),
        );
        assert_eq!(report.failed, 2);
        assert!(!report.aborted);
        let e = report.outcomes[1].err().expect("job 2 failed");
        assert_eq!(e.kind, JobErrorKind::Panic);
        assert!(e.payload.contains("job 2 exploded"));
        assert_eq!(e.to_string(), "app1/d: panic: job 2 exploded");
        assert!(report.outcomes[0].err().is_none());
    }

    #[test]
    fn a_failing_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for (kind, panics) in [(JobErrorKind::Sim, false), (JobErrorKind::Panic, true)] {
            let calls = AtomicU32::new(0);
            let report = supervise_map(
                &[()],
                tags(1),
                |(), run| {
                    assert_eq!(run, 1);
                    calls.fetch_add(1, Ordering::Relaxed);
                    if panics {
                        panic!("always fails");
                    }
                    Err::<u64, _>("kernel unschedulable".to_owned())
                },
                &SupervisorPolicy::default(),
            );
            assert_eq!(calls.load(Ordering::Relaxed), 1, "{kind} fails once");
            assert_eq!(report.outcomes[0].err().map(|e| e.kind), Some(kind));
            assert_eq!((report.failed, report.aborted), (1, false));
        }
    }

    #[test]
    fn fail_fast_aborts_remaining_jobs() {
        // Fail-fast is `max_failures: Some(0)`: a poisoned first job must
        // abort the later jobs, not let them run.
        let items: Vec<u64> = (0..64).collect();
        let report = supervise_map(
            &items,
            tags(64),
            |&x, _| {
                if x == 0 {
                    panic!("first job dies");
                }
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, String>(x)
            },
            &SupervisorPolicy { max_failures: Some(0), ..SupervisorPolicy::default() },
        );
        assert!(report.aborted);
        assert_eq!(report.failed, 1, "aborted jobs are not counted as failures");
        assert!(aborted(&report) > 0, "some jobs must have been aborted before running");
    }

    #[test]
    fn max_failures_budget_aborts_when_exceeded() {
        let items: Vec<u64> = (0..64).collect();
        let report = supervise_map(
            &items,
            tags(64),
            |&x, _| -> Result<u64, String> {
                std::thread::sleep(Duration::from_millis(1));
                panic!("job {x} dies")
            },
            &SupervisorPolicy { max_failures: Some(3), ..SupervisorPolicy::default() },
        );
        assert!(report.aborted);
        assert!(report.failed > 3, "the budget must have been exceeded");
        assert!(
            report.failed < 64,
            "the sweep must stop well before every job fails: {}",
            report.failed
        );
        let aborted = aborted(&report);
        assert!(aborted > 0, "some jobs must have been aborted before running");
        assert_eq!(report.failed + aborted as u64, 64, "aborted jobs are not failures");
    }

    #[test]
    fn stop_after_is_a_deterministic_kill() {
        let items: Vec<u64> = (0..32).collect();
        let report = supervise_map(
            &items,
            tags(32),
            |&x, _| {
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, String>(x)
            },
            &SupervisorPolicy { stop_after: Some(5), ..SupervisorPolicy::default() },
        );
        assert!(report.aborted);
        let done = report.outcomes.iter().filter(|o| o.err().is_none()).count();
        assert_eq!(done, 5, "exactly stop_after jobs run, however fast the pool");
        assert_eq!(aborted(&report), 27, "the tail of the campaign must be aborted");
    }

    #[test]
    fn empty_input_is_a_noop() {
        let report = supervise_map(
            &Vec::<u64>::new(),
            Vec::new(),
            |&x, _| Ok::<_, String>(x),
            &SupervisorPolicy::default(),
        );
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
