//! The serve core: bounded admission, cross-client coalescing, workers
//! that claim, run and settle jobs, and graceful drain.
//!
//! State machine per job (durable at every arrow — see
//! [`crate::queue`]):
//!
//! ```text
//!   submit ──> Queued ──claim──> Leased ──ok──> Done
//!                 ^                  │
//!                 │                  └──err──> Failed
//!                 └── restart (the claiming process died)
//! ```
//!
//! `Leased` is the on-disk tag for "claimed by a worker"; it is kept so
//! queue directories written by earlier builds still load.
//!
//! Coalescing: submissions are keyed by the executor's content
//! fingerprint (the cell's `SimKey`). A key with a live (queued, leased,
//! or done) job absorbs new submissions — N clients, one simulation,
//! identical results. Failure isolation: a failed job answers its
//! waiters with the structured [`ExecError`] *and leaves the coalescing
//! map* — a fresh submit of the same cell starts a clean job instead of
//! replaying the failure forever.
//!
//! Claim, run, settle: a worker claims the next queued job, runs it on
//! its own thread under `catch_unwind`, and settles it. There is no
//! wall-clock deadline: every run is bounded by its spec's `max_cycles`,
//! and an overrun settles as an ordinary `sim-error`. The only reclaim is
//! the restart one — [`crate::queue::DurableQueue::load`] puts jobs whose
//! claiming process died back on the queue.
//!
//! Nothing polls: workers, [`Server::wait_settled`] and the drain watcher
//! all sleep on one condvar that every state change notifies.
//!
//! Metrics are pulled, not pushed: the job table counts admissions and
//! settlements at the transition, under the lock it already holds, and
//! [`Server::metrics`] reads those counts (plus what the executor reports)
//! when `/metrics` or the snapshot stream asks.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use subcore_engine::RunStats;
use subcore_metrics::names as mx;
use subcore_metrics::MetricsSnapshot;

use crate::proto::{ExecError, JobRecord, JobSpec, JobState, SubmitOutcome};
use crate::queue::{DurableQueue, RecoveryReport};

/// A resolved simulation, ready to run once. Panics are caught by the
/// worker and become structured `panic` errors.
pub type Run = Box<dyn FnOnce() -> Result<RunStats, ExecError> + Send>;

/// A spec resolved once, at admission: everything the daemon needs from
/// the executor for the life of the job.
pub struct Admitted {
    /// Content fingerprint of the cell (`SimKey`), the coalescing key.
    pub key: u64,
    /// Cost-model predicted cycles for the cell (0 if unknown).
    pub predicted_cycles: u64,
    /// The simulation over the already-resolved inputs, so the first
    /// attempt resolves nothing again.
    pub run: Run,
}

/// What the daemon runs for each job. Implementations live above this
/// crate (the `repro` harness injects one over `SimSession`); tests
/// inject mocks.
pub trait Executor: Send + Sync + 'static {
    /// Resolves a spec. Errors reject the request at admission, before
    /// anything queues.
    fn admit(&self, spec: &JobSpec) -> Result<Admitted, ExecError>;

    /// Resolves and runs in one call — what a job goes through when its
    /// admission is gone: recovered from disk after a restart.
    fn execute(&self, spec: &JobSpec) -> Result<RunStats, ExecError> {
        (self.admit(spec)?.run)()
    }

    /// What the executor reports beside the daemon's own `serve.*` counts
    /// in [`Server::metrics`] (the harness's: its session's ledger and
    /// spans). Reports nothing by default.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Durable queue directory.
    pub dir: std::path::PathBuf,
    /// Max admitted-but-unsettled jobs (queued + running); submissions
    /// beyond it are shed with a structured retry-after.
    pub capacity: usize,
    /// Worker threads.
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { dir: std::path::PathBuf::from("results/.serve"), capacity: 64, workers: 2 }
    }
}

/// Simulation rate assumed for the shed reply's advisory `retry_after_ms`
/// (predicted backlog cycles over this rate). A hint to clients, never a
/// bound on a run.
const ADVISORY_CYCLES_PER_SEC: u64 = 25_000;

#[derive(Default)]
struct Core {
    jobs: BTreeMap<u64, JobRecord>,
    /// Queued ids, each with its admission's resolved run until the
    /// first claim takes it (recovered and reclaimed jobs have none).
    ready: VecDeque<(u64, Option<Run>)>,
    by_key: HashMap<u64, u64>,
    /// Claimed ids whose run has not settled yet.
    running: HashSet<u64>,
    next_id: u64,
    draining: bool,
    workers_alive: usize,
    /// Submissions admitted as new jobs, coalesced onto a live one, and
    /// shed; jobs settled done and failed — counted at the transition.
    submitted: u64,
    coalesced: u64,
    shed: u64,
    done: u64,
    failed: u64,
}

impl Core {
    fn depth(&self) -> usize {
        self.ready.len() + self.running.len()
    }

    /// Predicted cycles still outstanding (queued + running jobs).
    fn backlog_cycles(&self) -> u64 {
        self.ready
            .iter()
            .map(|(id, _)| id)
            .chain(&self.running)
            .filter_map(|id| self.jobs.get(id))
            .fold(0u64, |acc, r| acc.saturating_add(r.predicted_cycles))
    }

    /// Moves a job to its terminal state and returns the record to
    /// journal. A failed job leaves the coalescing map (failure isolation).
    fn finish(&mut self, id: u64, result: Result<RunStats, ExecError>) -> JobRecord {
        let rec = self.jobs.get_mut(&id).expect("running ids are live jobs");
        match result {
            Ok(stats) => {
                rec.state = JobState::Done;
                rec.stats = Some(Box::new(stats));
                self.done += 1;
            }
            Err(e) => {
                rec.state = JobState::Failed;
                rec.error = Some(e);
                self.failed += 1;
            }
        }
        let rec = rec.clone();
        if rec.state == JobState::Failed {
            self.by_key.remove(&rec.key);
        }
        rec
    }

    fn drain_complete(&self) -> bool {
        self.draining && (self.depth() == 0 || (self.running.is_empty() && self.workers_alive == 0))
    }
}

struct Inner {
    opts: ServeOptions,
    exec: Arc<dyn Executor>,
    queue: DurableQueue,
    state: Mutex<Core>,
    /// Notified (all waiters) on every change a waiter could be waiting
    /// for: a job queued or settled, drain, a worker gone.
    cv: Condvar,
    persist_failures: AtomicU64,
    recovery: RecoveryReport,
    opened: Instant,
    /// [`Server::metrics`] pulls so far (the snapshot's `seq`).
    pulls: AtomicU64,
}

/// Handle to a running (or runnable) serve core. Cheap to clone; all
/// clones share one queue.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Opens the durable queue at `opts.dir`, reclaims jobs a dead process
    /// had claimed, and rebuilds the in-memory state. Nothing executes
    /// until [`Server::start_workers`] (or [`crate::http::run`] via the HTTP
    /// front) is called.
    pub fn open(opts: ServeOptions, exec: Arc<dyn Executor>) -> Server {
        let queue = DurableQueue::new(&opts.dir);
        let (records, recovery) = queue.load();
        let mut core = Core::default();
        for rec in records {
            core.next_id = core.next_id.max(rec.id + 1);
            if rec.state == JobState::Queued {
                core.ready.push_back((rec.id, None));
            }
            // Failed jobs never coalesce (failure isolation): a fresh
            // submit of the same cell must start a clean job.
            if rec.state != JobState::Failed {
                core.by_key.insert(rec.key, rec.id);
            }
            core.jobs.insert(rec.id, rec);
        }
        Server {
            inner: Arc::new(Inner {
                opts,
                exec,
                queue,
                state: Mutex::new(core),
                cv: Condvar::new(),
                persist_failures: AtomicU64::new(0),
                recovery,
                opened: Instant::now(),
                pulls: AtomicU64::new(0),
            }),
        }
    }

    /// What the durable-queue load found (restart evidence).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// The daemon's tuning knobs.
    pub fn options(&self) -> &ServeOptions {
        &self.inner.opts
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sleeps on the condvar until notified.
    fn wait<'a>(&self, core: MutexGuard<'a, Core>) -> MutexGuard<'a, Core> {
        self.inner.cv.wait(core).unwrap_or_else(|p| p.into_inner())
    }

    /// Sleeps on the condvar until notified or `deadline`.
    fn wait_until<'a>(
        &self,
        core: MutexGuard<'a, Core>,
        deadline: Instant,
    ) -> MutexGuard<'a, Core> {
        let left = deadline.saturating_duration_since(Instant::now());
        self.inner.cv.wait_timeout(core, left).unwrap_or_else(|p| p.into_inner()).0
    }

    /// Journals a state transition that clients can already see (claim,
    /// settle). A record that does not land leaves the directory
    /// one arrow behind memory until the job's next transition: counted,
    /// and reported on `/healthz` and as `serve.persist.drop`.
    fn persist_transition(&self, rec: &JobRecord) {
        if !self.inner.queue.persist(rec) {
            self.inner.persist_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// State transitions since start whose durable record failed to land.
    pub fn persist_failures(&self) -> u64 {
        self.inner.persist_failures.load(Ordering::Relaxed)
    }

    /// The daemon's metrics as of now: its `serve.*` counts and queue
    /// depth, read under the state lock (nothing scans the job table),
    /// merged with what the executor reports. Stamped with the pull's
    /// sequence number and the uptime since [`Server::open`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let own = {
            let core = self.lock();
            MetricsSnapshot::of(
                vec![
                    (mx::SERVE_SUBMITTED, core.submitted),
                    (mx::SERVE_COALESCED, core.coalesced),
                    (mx::SERVE_SHED, core.shed),
                    (mx::SERVE_JOB_DONE, core.done),
                    (mx::SERVE_JOB_FAILED, core.failed),
                    (mx::SERVE_PERSIST_DROP, self.persist_failures()),
                ],
                vec![(mx::SERVE_QUEUE_DEPTH, core.depth() as f64)],
                Vec::new(),
            )
        };
        MetricsSnapshot {
            seq: self.inner.pulls.fetch_add(1, Ordering::Relaxed),
            uptime_us: self.inner.opened.elapsed().as_micros() as u64,
            ..own.merge(self.inner.exec.metrics())
        }
    }

    /// Bounded admission. Invalid specs error before queuing; a full
    /// (or draining) queue sheds with a structured retry-after derived
    /// from the predicted backlog; otherwise the request is admitted —
    /// coalesced onto a live job with the same fingerprint when one
    /// exists, journaled as a fresh job when not.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitOutcome, ExecError> {
        // All executor work (registry, fingerprint, cost model) happens
        // here, before the state lock: polls and health checks never
        // queue behind it.
        let Admitted { key, predicted_cycles, run } = self.inner.exec.admit(&spec)?;
        let mut core = self.lock();
        if let Some(&id) = core.by_key.get(&key) {
            let predicted_cycles = core.jobs[&id].predicted_cycles;
            core.coalesced += 1;
            return Ok(SubmitOutcome::Accepted { id, key, coalesced: true, predicted_cycles });
        }
        if core.draining || core.depth() >= self.inner.opts.capacity {
            let backlog_ms = core.backlog_cycles().saturating_mul(1000) / ADVISORY_CYCLES_PER_SEC;
            core.shed += 1;
            return Ok(SubmitOutcome::Shed {
                retry_after_ms: backlog_ms.clamp(100, 60_000),
                depth: core.depth() as u64,
                capacity: self.inner.opts.capacity as u64,
                reason: if core.draining { "draining".into() } else { "queue-full".into() },
            });
        }
        let id = core.next_id;
        core.next_id += 1;
        let rec = JobRecord {
            id,
            spec,
            key,
            predicted_cycles,
            budget_ms: 0,
            state: JobState::Queued,
            attempts: 0,
            stats: None,
            error: None,
        };
        // Durability before visibility: if the record cannot be
        // journaled, the job is not accepted (an accepted-then-lost job
        // would break the no-loss contract).
        if !self.inner.queue.persist(&rec) {
            return Err(ExecError::new("io", "failed to journal the job record"));
        }
        core.by_key.insert(key, id);
        core.jobs.insert(id, rec);
        core.ready.push_back((id, Some(run)));
        core.submitted += 1;
        self.inner.cv.notify_all();
        Ok(SubmitOutcome::Accepted { id, key, coalesced: false, predicted_cycles })
    }

    /// A snapshot of one job.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshots of every job, in id order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Jobs admitted but not yet settled (queued + running).
    pub fn depth(&self) -> usize {
        self.lock().depth()
    }

    /// Stops admission; workers finish or persist what is in flight.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.inner.cv.notify_all();
    }

    /// Whether [`Server::drain`] was requested.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Whether no job is queued or running.
    pub fn idle(&self) -> bool {
        self.lock().depth() == 0
    }

    /// Whether a requested drain has finished: the queue is empty, or
    /// every worker has exited and nothing is running — any still-queued
    /// jobs are persisted for the next daemon start ("finish *or
    /// persist* in-flight work").
    pub fn drain_complete(&self) -> bool {
        self.lock().drain_complete()
    }

    /// Blocks until [`Server::drain_complete`].
    pub fn wait_drained(&self) {
        let mut core = self.lock();
        while !core.drain_complete() {
            core = self.wait(core);
        }
    }

    /// Test/CLI helper: blocks until `id` settles (or `timeout` passes),
    /// returning the settled record.
    pub fn wait_settled(&self, id: u64, timeout: Duration) -> Option<JobRecord> {
        let deadline = Instant::now() + timeout;
        let mut core = self.lock();
        loop {
            match core.jobs.get(&id) {
                Some(rec) if rec.state.terminal() => return Some(rec.clone()),
                None => return None,
                _ => {}
            }
            if Instant::now() >= deadline {
                return None;
            }
            core = self.wait_until(core, deadline);
        }
    }

    /// Spawns the worker pool. Workers exit after [`Server::drain`] once
    /// the queue is empty; join them via the returned handles (see
    /// [`crate::http::run`] for the full daemon loop).
    pub fn start_workers(&self) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles = Vec::new();
        for w in 0..self.inner.opts.workers.max(1) {
            let server = self.clone();
            // Counted before the thread runs, so a drain never sees a
            // pool that merely has not started yet as one that has left.
            self.lock().workers_alive += 1;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || server.worker_loop())
                    .expect("spawn worker"),
            );
        }
        handles
    }

    /// Claim, run, settle — until a drain empties the queue.
    fn worker_loop(&self) {
        while let Some((id, run)) = self.claim() {
            let result = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                Err(ExecError::new("panic", msg))
            });
            self.settle(id, result);
        }
        self.lock().workers_alive -= 1;
        self.inner.cv.notify_all();
    }

    /// Claims the next queued job, blocking until one is available or the
    /// daemon is draining with an empty queue.
    fn claim(&self) -> Option<(u64, Run)> {
        let mut core = self.lock();
        loop {
            if let Some((id, admitted)) = core.ready.pop_front() {
                let rec = core.jobs.get_mut(&id).expect("ready ids are live jobs");
                rec.state = JobState::Leased;
                rec.attempts += 1;
                let rec = JobRecord::clone(rec);
                core.running.insert(id);
                drop(core);
                self.persist_transition(&rec);
                let run = admitted.unwrap_or_else(|| {
                    let exec = Arc::clone(&self.inner.exec);
                    Box::new(move || exec.execute(&rec.spec))
                });
                return Some((id, run));
            }
            if core.draining {
                return None;
            }
            core = self.wait(core);
        }
    }

    /// Settles a claimed job with its run's result.
    fn settle(&self, id: u64, result: Result<RunStats, ExecError>) {
        let mut core = self.lock();
        core.running.remove(&id);
        let rec = core.finish(id, result);
        drop(core);
        self.persist_transition(&rec);
        self.inner.cv.notify_all();
    }
}
