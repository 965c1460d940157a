//! The serve core: bounded admission, cross-client coalescing,
//! lease-based workers with heartbeats, and graceful drain.
//!
//! State machine per job (durable at every arrow — see
//! [`crate::queue`]):
//!
//! ```text
//!   submit ──> Queued ──claim──> Leased ──ok──> Done
//!                 ^                │ │
//!                 │   lease expiry │ └──err──> Failed
//!                 └────(retry)─────┘ (attempts exhausted ──> Failed)
//! ```
//!
//! Coalescing: submissions are keyed by the executor's content
//! fingerprint (the cell's `SimKey`). A key with a live (queued, leased,
//! or done) job absorbs new submissions — N clients, one simulation,
//! identical results. Failure isolation: a failed job answers its
//! waiters with the structured [`ExecError`] *and leaves the coalescing
//! map* — a fresh submit of the same cell starts a clean job instead of
//! replaying the failure forever.
//!
//! Leases — the daemon's one supervision layer: a worker owns a claimed
//! job only while its heartbeat keeps the lease alive. The worker hands
//! the run to its long-lived executor thread and beats while it waits;
//! past the hard budget (`budget + lease`) it abandons that thread and
//! stops beating, the monitor reclaims the job back onto the queue, and a
//! healthy worker retries it — up to `max_attempts`, after which it fails
//! structurally with kind `lease-expired`. A late result is discarded by
//! the lease's generation check.
//!
//! Nothing polls: workers, [`Server::wait_settled`], the lease monitor
//! and the drain watcher all sleep on one condvar that every state change
//! notifies; the monitor alone also wakes at the earliest lease expiry.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use subcore_engine::RunStats;
use subcore_metrics::names as mx;

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
    /// admission is gone: recovered from disk after a restart, or retried
    /// after its lease expired.
    fn execute(&self, spec: &JobSpec) -> Result<RunStats, ExecError> {
        (self.admit(spec)?.run)()
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Durable queue directory.
    pub dir: std::path::PathBuf,
    /// Max admitted-but-unsettled jobs (queued + leased); submissions
    /// beyond it are shed with a structured retry-after.
    pub capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Lease duration; a lease not heartbeat-extended within this window
    /// is reclaimed.
    pub lease: Duration,
    /// Lease grants per job before it fails as `lease-expired`.
    pub max_attempts: u32,
    /// Watchdog-budget clamp floor.
    pub budget_floor: Duration,
    /// Watchdog-budget clamp ceiling.
    pub budget_ceiling: Duration,
    /// Assumed simulation rate for deriving budgets and retry-after
    /// hints from predicted cycles.
    pub budget_cycles_per_sec: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            dir: std::path::PathBuf::from("results/.serve"),
            capacity: 64,
            workers: 2,
            lease: Duration::from_secs(10),
            max_attempts: 3,
            budget_floor: Duration::from_secs(120),
            budget_ceiling: Duration::from_secs(900),
            budget_cycles_per_sec: 25_000,
        }
    }
}

struct Lease {
    generation: u64,
    expires: Instant,
}

#[derive(Default)]
struct Core {
    jobs: BTreeMap<u64, JobRecord>,
    /// Queued ids, each with its admission's resolved run until the
    /// first claim takes it (recovered and reclaimed jobs have none).
    ready: VecDeque<(u64, Option<Run>)>,
    by_key: HashMap<u64, u64>,
    leases: HashMap<u64, Lease>,
    next_id: u64,
    next_gen: u64,
    draining: bool,
    workers_alive: usize,
}

impl Core {
    fn depth(&self) -> usize {
        self.ready.len() + self.leases.len()
    }

    fn note_depth(&self) {
        subcore_metrics::gauge_set(mx::SERVE_QUEUE_DEPTH, self.depth() as f64);
    }

    /// Predicted cycles still outstanding (queued + leased jobs).
    fn backlog_cycles(&self) -> u64 {
        self.ready
            .iter()
            .map(|(id, _)| id)
            .chain(self.leases.keys())
            .filter_map(|id| self.jobs.get(id))
            .fold(0u64, |acc, r| acc.saturating_add(r.predicted_cycles))
    }

    /// Moves a job to its terminal state and returns the record to
    /// journal. A failed job leaves the coalescing map (failure isolation).
    fn finish(&mut self, id: u64, result: Result<RunStats, ExecError>) -> JobRecord {
        let rec = self.jobs.get_mut(&id).expect("leased ids are live jobs");
        match result {
            Ok(stats) => {
                rec.state = JobState::Done;
                rec.stats = Some(Box::new(stats));
                subcore_metrics::inc(mx::SERVE_JOB_DONE);
            }
            Err(e) => {
                rec.state = JobState::Failed;
                rec.error = Some(e);
                subcore_metrics::inc(mx::SERVE_JOB_FAILED);
            }
        }
        let rec = rec.clone();
        if rec.state == JobState::Failed {
            self.by_key.remove(&rec.key);
        }
        rec
    }

    fn drain_complete(&self) -> bool {
        self.draining && (self.depth() == 0 || (self.leases.is_empty() && self.workers_alive == 0))
    }
}

struct Inner {
    opts: ServeOptions,
    exec: Arc<dyn Executor>,
    queue: DurableQueue,
    state: Mutex<Core>,
    /// Notified (all waiters) on every change a waiter could be waiting
    /// for: a job queued, settled or reclaimed, drain, a worker gone.
    cv: Condvar,
    persist_failures: AtomicU64,
    recovery: RecoveryReport,
}

/// Handle to a running (or runnable) serve core. Cheap to clone; all
/// clones share one queue.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// A claimed job, owned by one worker under a lease.
struct Claim {
    id: u64,
    generation: u64,
    budget: Duration,
    run: Run,
}

type RunResult = std::thread::Result<Result<RunStats, ExecError>>;

/// A worker's long-lived executor thread: runs go in, results come out,
/// and the worker stays free to heartbeat in between.
struct Lane {
    runs: mpsc::Sender<Run>,
    results: mpsc::Receiver<RunResult>,
    thread: std::thread::JoinHandle<()>,
}

impl Lane {
    fn spawn(worker: usize) -> std::io::Result<Lane> {
        let (runs, inbox) = mpsc::channel::<Run>();
        let (outbox, results) = mpsc::channel();
        let thread =
            std::thread::Builder::new().name(format!("serve-exec-{worker}")).spawn(move || {
                for run in inbox {
                    // An abandoned lane has no receiver: stop.
                    if outbox.send(catch_unwind(AssertUnwindSafe(run))).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Lane { runs, results, thread })
    }
}

impl Server {
    /// Opens the durable queue at `opts.dir`, reclaims leases left by a
    /// dead process, and rebuilds the in-memory state. Nothing executes
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
        core.note_depth();
        Server {
            inner: Arc::new(Inner {
                opts,
                exec,
                queue,
                state: Mutex::new(core),
                cv: Condvar::new(),
                persist_failures: AtomicU64::new(0),
                recovery,
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

    /// Journals a state transition that clients can already see (lease,
    /// settle, reclaim). A record that does not land leaves the directory
    /// one arrow behind memory until the job's next transition: counted,
    /// and reported on `/healthz`.
    fn persist_transition(&self, rec: &JobRecord) {
        if !self.inner.queue.persist(rec) {
            self.inner.persist_failures.fetch_add(1, Ordering::Relaxed);
            subcore_metrics::inc(mx::SERVE_PERSIST_DROP);
        }
    }

    /// State transitions since start whose durable record failed to land.
    pub fn persist_failures(&self) -> u64 {
        self.inner.persist_failures.load(Ordering::Relaxed)
    }

    /// The watchdog budget for a prediction, milliseconds.
    fn budget_ms_for(&self, predicted_cycles: u64) -> u64 {
        let opts = &self.inner.opts;
        let rate = opts.budget_cycles_per_sec.max(1);
        let ms = predicted_cycles.saturating_mul(1000) / rate;
        let floor = u64::try_from(opts.budget_floor.as_millis()).unwrap_or(u64::MAX);
        let ceiling = u64::try_from(opts.budget_ceiling.as_millis()).unwrap_or(u64::MAX);
        ms.clamp(floor, ceiling.max(floor))
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
        let budget_ms = self.budget_ms_for(predicted_cycles);
        let mut core = self.lock();
        if let Some(&id) = core.by_key.get(&key) {
            let rec = &core.jobs[&id];
            subcore_metrics::inc(mx::SERVE_COALESCED);
            return Ok(SubmitOutcome::Accepted {
                id,
                key,
                coalesced: true,
                predicted_cycles: rec.predicted_cycles,
                budget_ms: rec.budget_ms,
            });
        }
        if core.draining || core.depth() >= self.inner.opts.capacity {
            let rate = self.inner.opts.budget_cycles_per_sec.max(1);
            let backlog_ms = core.backlog_cycles().saturating_mul(1000) / rate;
            subcore_metrics::inc(mx::SERVE_SHED);
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
            budget_ms,
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
        core.note_depth();
        subcore_metrics::inc(mx::SERVE_SUBMITTED);
        self.inner.cv.notify_all();
        Ok(SubmitOutcome::Accepted { id, key, coalesced: false, predicted_cycles, budget_ms })
    }

    /// A snapshot of one job.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshots of every job, in id order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Jobs admitted but not yet settled (queued + leased).
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

    /// Whether no job is queued or leased.
    pub fn idle(&self) -> bool {
        self.lock().depth() == 0
    }

    /// Whether a requested drain has finished: the queue is empty, or
    /// every worker has exited and nothing is leased — any still-queued
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

    /// Spawns the worker pool and the lease monitor. Threads exit after
    /// [`Server::drain`] once the queue is empty; join them via the
    /// returned handles (see [`crate::http::run`] for the full daemon
    /// loop).
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
                    .spawn(move || server.worker_loop(w))
                    .expect("spawn worker"),
            );
        }
        let server = self.clone();
        handles.push(
            std::thread::Builder::new()
                .name("serve-lease-monitor".into())
                .spawn(move || server.monitor_loop())
                .expect("spawn monitor"),
        );
        handles
    }

    fn worker_loop(&self, worker: usize) {
        let mut lane: Option<Lane> = None;
        while let Some(claim) = self.claim() {
            let (id, generation) = (claim.id, claim.generation);
            // `None` means the run outlived its hard budget and its lane
            // was abandoned: stop heartbeating and let the lease lapse —
            // the monitor reclaims or fails the job.
            if let Some(result) = self.execute_claim(worker, &mut lane, claim) {
                self.settle(id, generation, result);
            }
        }
        if let Some(Lane { runs, thread, .. }) = lane {
            drop(runs);
            let _ = thread.join();
        }
        self.lock().workers_alive -= 1;
        self.inner.cv.notify_all();
    }

    /// Claims the next queued job under a fresh lease, blocking until
    /// one is available or the daemon is draining with an empty queue.
    fn claim(&self) -> Option<Claim> {
        let mut core = self.lock();
        loop {
            if let Some((id, admitted)) = core.ready.pop_front() {
                let generation = core.next_gen;
                core.next_gen += 1;
                let rec = core.jobs.get_mut(&id).expect("ready ids are live jobs");
                rec.state = JobState::Leased;
                rec.attempts += 1;
                let budget = Duration::from_millis(rec.budget_ms);
                let rec = JobRecord::clone(rec);
                let expires = Instant::now() + self.inner.opts.lease;
                core.leases.insert(id, Lease { generation, expires });
                core.note_depth();
                drop(core);
                self.persist_transition(&rec);
                let run = admitted.unwrap_or_else(|| {
                    let exec = Arc::clone(&self.inner.exec);
                    Box::new(move || exec.execute(&rec.spec))
                });
                return Some(Claim { id, generation, budget, run });
            }
            if core.draining {
                return None;
            }
            core = self.wait(core);
        }
    }

    /// Hands the run to the worker's executor lane, heartbeating the
    /// lease while waiting. Returns `None` if the run outlived the hard
    /// budget (budget + one lease of grace): the lane is abandoned — its
    /// thread cannot be joined while wedged, and exits on its own once
    /// the run returns — and the next claim gets a fresh one.
    fn execute_claim(
        &self,
        worker: usize,
        lane: &mut Option<Lane>,
        claim: Claim,
    ) -> Option<Result<RunStats, ExecError>> {
        let Claim { id, generation, budget, run } = claim;
        let running = match lane {
            Some(running) => running,
            None => match Lane::spawn(worker) {
                Ok(fresh) => lane.insert(fresh),
                Err(_) => {
                    return Some(Err(ExecError::new("io", "failed to spawn the executor thread")))
                }
            },
        };
        // A dead lane also hangs up `results`: reported below.
        let _ = running.runs.send(run);
        let heartbeat = (self.inner.opts.lease / 4).max(Duration::from_millis(10));
        let hard_deadline = Instant::now() + budget + self.inner.opts.lease;
        loop {
            match running.results.recv_timeout(heartbeat) {
                Ok(Ok(result)) => return Some(result),
                Ok(Err(payload)) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".into());
                    return Some(Err(ExecError::new("panic", msg)));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= hard_deadline {
                        *lane = None;
                        return None;
                    }
                    self.heartbeat(id, generation);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    *lane = None;
                    return Some(Err(ExecError::new("panic", "executor thread vanished")));
                }
            }
        }
    }

    /// Extends the lease, if this worker still owns it.
    fn heartbeat(&self, id: u64, generation: u64) {
        let mut core = self.lock();
        if let Some(lease) = core.leases.get_mut(&id) {
            if lease.generation == generation {
                lease.expires = Instant::now() + self.inner.opts.lease;
            }
        }
    }

    /// Settles a claimed job — unless the lease was reclaimed while the
    /// worker ran (generation mismatch), in which case the stale result
    /// is discarded and the reclaimed copy's outcome stands.
    fn settle(&self, id: u64, generation: u64, result: Result<RunStats, ExecError>) {
        let mut core = self.lock();
        let owns = core.leases.get(&id).is_some_and(|lease| lease.generation == generation);
        if !owns {
            return;
        }
        core.leases.remove(&id);
        let rec = core.finish(id, result);
        core.note_depth();
        drop(core);
        self.persist_transition(&rec);
        self.inner.cv.notify_all();
    }

    /// Lease monitor: reclaims expired leases back onto the queue (or
    /// fails the job once its attempts are exhausted). Sleeps until the
    /// earliest expiry — a lease granted meanwhile cannot lapse sooner
    /// than one lease duration from now, which bounds the sleep when
    /// nothing is leased — or until a notification (drain, a worker
    /// leaving) gives it a reason to look again.
    fn monitor_loop(&self) {
        let mut core = self.lock();
        // A draining daemon whose workers have all exited has nothing
        // left to reclaim: the monitor dies with them.
        while !(core.draining && core.workers_alive == 0) {
            let now = Instant::now();
            let expired: Vec<u64> = core
                .leases
                .iter()
                .filter(|(_, lease)| lease.expires <= now)
                .map(|(&id, _)| id)
                .collect();
            if expired.is_empty() {
                let idle = now + self.inner.opts.lease;
                let next = core.leases.values().map(|lease| lease.expires).fold(idle, Instant::min);
                core = self.wait_until(core, next);
                continue;
            }
            let mut dirty = Vec::new();
            for id in expired {
                core.leases.remove(&id);
                subcore_metrics::inc(mx::SERVE_LEASE_EXPIRED);
                let rec = core.jobs.get_mut(&id).expect("leased ids are live jobs");
                if rec.attempts >= self.inner.opts.max_attempts {
                    let error = ExecError::new(
                        "lease-expired",
                        format!("lease expired after {} attempt(s); worker wedged", rec.attempts),
                    );
                    dirty.push(core.finish(id, Err(error)));
                } else {
                    rec.state = JobState::Queued;
                    dirty.push(rec.clone());
                    core.ready.push_back((id, None));
                }
            }
            core.note_depth();
            drop(core);
            for rec in &dirty {
                self.persist_transition(rec);
            }
            self.inner.cv.notify_all();
            core = self.lock();
        }
    }
}
