//! Robustness contract of the serve core, driven through a mock
//! executor: cross-client coalescing (one simulation for N clients,
//! failure isolation on panics), bounded admission with structured
//! shedding, and restart recovery with no lost and no duplicated jobs.
//! Nothing here waits on a clock: jobs that must stay in flight block on
//! the mock's gate, and every wait is on the server's own settlement. The
//! process-level SIGKILL drill lives in the `repro` harness
//! (`repro chaos --serve` and the experiments integration tests); this
//! file proves the state machine underneath it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use subcore_engine::RunStats;
use subcore_metrics::names as mx;
use subcore_persist::{Json, JsonCodec};
use subcore_serve::{
    http, http_call, Admitted, DurableQueue, ExecError, Executor, JobRecord, JobSpec, JobState,
    ServeOptions, Server, SubmitOutcome,
};

/// Deterministic mock: fingerprint = hash of (app, design, sms,
/// max_cycles); result cycles = that fingerprint, so bit-exactness is
/// trivially checkable. Panic-once is keyed by app name; a gated mock
/// blocks every run until `release()`. A handle: the admitted run shares
/// the state.
#[derive(Clone)]
struct MockExec(Arc<MockState>);

impl std::ops::Deref for MockExec {
    type Target = MockState;
    fn deref(&self) -> &MockState {
        &self.0
    }
}

struct MockState {
    executions: AtomicUsize,
    /// Apps that panic on their first execution only.
    panic_once: Mutex<HashMap<String, bool>>,
    /// When set, executions block until `release()`.
    gate: Option<(Mutex<bool>, Condvar)>,
}

impl MockExec {
    fn with_gate(gate: Option<(Mutex<bool>, Condvar)>) -> MockExec {
        MockExec(Arc::new(MockState {
            executions: AtomicUsize::new(0),
            panic_once: Mutex::new(HashMap::new()),
            gate,
        }))
    }

    fn new() -> MockExec {
        MockExec::with_gate(None)
    }

    fn gated() -> MockExec {
        MockExec::with_gate(Some((Mutex::new(false), Condvar::new())))
    }

    fn release(&self) {
        if let Some((lock, cv)) = &self.gate {
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }

    fn key_of(spec: &JobSpec) -> u64 {
        subcore_persist::stable_fingerprint(&(
            spec.app.clone(),
            spec.design.clone(),
            spec.sms,
            spec.max_cycles,
        ))
    }
}

impl Executor for MockExec {
    fn admit(&self, spec: &JobSpec) -> Result<Admitted, ExecError> {
        if spec.app == "unknown" {
            return Err(ExecError::invalid("unknown app"));
        }
        let (mock, spec) = (self.clone(), spec.clone());
        Ok(Admitted {
            key: Self::key_of(&spec),
            predicted_cycles: 1_000,
            run: Box::new(move || mock.simulate(&spec)),
        })
    }
}

impl MockExec {
    fn simulate(&self, spec: &JobSpec) -> Result<RunStats, ExecError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        if let Some((lock, cv)) = &self.gate {
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
        let panic_now = {
            let mut panics = self.panic_once.lock().unwrap();
            match panics.get_mut(&spec.app) {
                Some(armed) if *armed => {
                    *armed = false;
                    true
                }
                _ => false,
            }
        };
        if panic_now {
            panic!("injected executor panic for {}", spec.app);
        }
        Ok(RunStats { cycles: Self::key_of(spec), instructions: 1, ..RunStats::default() })
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("subcore-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fast_opts(dir: std::path::PathBuf) -> ServeOptions {
    ServeOptions { dir, capacity: 32, workers: 2 }
}

fn spec(app: &str) -> JobSpec {
    JobSpec { app: app.into(), ..JobSpec::default() }
}

#[test]
fn n_clients_coalesce_to_one_simulation_with_identical_results() {
    let dir = scratch("coalesce");
    let exec = MockExec::new();
    let server = Server::open(fast_opts(dir.clone()), Arc::new(exec.clone()));
    let handles = server.start_workers();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || server.submit(spec("pb-sgemm")).unwrap())
        })
        .collect();
    let outcomes: Vec<SubmitOutcome> = clients.into_iter().map(|h| h.join().unwrap()).collect();

    let ids: Vec<u64> = outcomes
        .iter()
        .map(|o| match o {
            SubmitOutcome::Accepted { id, .. } => *id,
            SubmitOutcome::Shed { .. } => panic!("no client should be shed"),
        })
        .collect();
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "all clients share one job id");
    let fresh = outcomes
        .iter()
        .filter(|o| matches!(o, SubmitOutcome::Accepted { coalesced: false, .. }))
        .count();
    assert_eq!(fresh, 1, "exactly one submission creates the job");

    let rec = server.wait_settled(ids[0], Duration::from_secs(10)).expect("job settles");
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(exec.executions.load(Ordering::SeqCst), 1, "one simulation for 8 clients");
    let expected = MockExec::key_of(&spec("pb-sgemm"));
    assert_eq!(rec.stats.as_ref().unwrap().cycles, expected);

    // Every client polling the shared id reads the identical result.
    for _ in 0..8 {
        assert_eq!(server.job(ids[0]).unwrap().stats.as_ref().unwrap().cycles, expected);
    }

    // A later duplicate submit coalesces onto the done job — the queue
    // doubles as a content-addressed result store.
    match server.submit(spec("pb-sgemm")).unwrap() {
        SubmitOutcome::Accepted { id, coalesced: true, .. } => assert_eq!(id, ids[0]),
        other => panic!("expected coalesced accept, got {other:?}"),
    }
    assert_eq!(exec.executions.load(Ordering::SeqCst), 1);
    // The daemon's pull counts each transition once.
    let m = server.metrics();
    let counts = [mx::SERVE_SUBMITTED, mx::SERVE_COALESCED, mx::SERVE_JOB_DONE];
    assert_eq!(counts.map(|n| m.counter(n)), [Some(1), Some(8), Some(1)]);
    assert_eq!(m.gauge(mx::SERVE_QUEUE_DEPTH), Some(0.0));

    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_fails_waiters_structurally_and_fresh_submit_succeeds() {
    let dir = scratch("panic");
    let exec = MockExec::gated();
    exec.panic_once.lock().unwrap().insert("rod-bp".into(), true);
    let server = Server::open(fast_opts(dir.clone()), Arc::new(exec.clone()));
    let handles = server.start_workers();

    // The gate holds the job in flight until all four have joined it.
    let ids: Vec<u64> = (0..4)
        .map(|_| match server.submit(spec("rod-bp")).unwrap() {
            SubmitOutcome::Accepted { id, .. } => id,
            other => panic!("expected accept, got {other:?}"),
        })
        .collect();
    assert!(ids.iter().all(|&i| i == ids[0]), "four waiters, one job: {ids:?}");
    let id = ids[0];
    exec.release();

    // All four waiters observe the same structured failure.
    let rec = server.wait_settled(id, Duration::from_secs(10)).expect("job settles");
    assert_eq!(rec.state, JobState::Failed);
    let err = rec.error.as_ref().expect("failure carries a structured error");
    assert_eq!(err.kind, "panic");
    assert!(err.message.contains("injected executor panic"), "payload: {}", err.message);

    // Failure isolation: the memo is not poisoned — a fresh submit of
    // the same cell starts a clean job, which now succeeds.
    let retry = server.submit(spec("rod-bp")).unwrap();
    let retry_id = match retry {
        SubmitOutcome::Accepted { id: retry_id, coalesced, .. } => {
            assert!(!coalesced, "failed jobs never absorb new submissions");
            assert_ne!(retry_id, id, "fresh submit gets a fresh job");
            retry_id
        }
        other => panic!("expected accept, got {other:?}"),
    };
    let rec = server.wait_settled(retry_id, Duration::from_secs(10)).expect("retry settles");
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(exec.executions.load(Ordering::SeqCst), 2);

    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_structured_retry_after_and_stays_bounded() {
    let dir = scratch("overload");
    let exec = MockExec::gated();
    let opts = ServeOptions { capacity: 2, workers: 1, ..fast_opts(dir.clone()) };
    let server = Server::open(opts, Arc::new(exec.clone()));
    let handles = server.start_workers();

    let mut accepted = Vec::new();
    let mut shed = 0;
    for i in 0..6 {
        match server.submit(spec(&format!("app-{i}"))).unwrap() {
            SubmitOutcome::Accepted { id, .. } => accepted.push(id),
            SubmitOutcome::Shed { retry_after_ms, depth, capacity, reason } => {
                shed += 1;
                assert!(retry_after_ms >= 100, "retry-after has a floor");
                assert_eq!(capacity, 2);
                assert!(depth >= capacity, "shed only at/above the cap");
                assert_eq!(reason, "queue-full");
            }
        }
    }
    assert_eq!(accepted.len(), 2, "the queue admits exactly its capacity");
    assert_eq!(shed, 4);
    assert!(server.depth() <= 2, "bounded: depth never exceeds the cap");
    let m = server.metrics();
    assert_eq!((m.counter(mx::SERVE_SHED), m.counter(mx::SERVE_SUBMITTED)), (Some(4), Some(2)));
    assert_eq!(m.gauge(mx::SERVE_QUEUE_DEPTH), Some(2.0), "queued + running, read at the pull");

    // Backpressure clears once the backlog drains: the shed cells
    // resubmit successfully.
    exec.release();
    for id in &accepted {
        let rec = server.wait_settled(*id, Duration::from_secs(10)).expect("job settles");
        assert_eq!(rec.state, JobState::Done);
    }
    match server.submit(spec("app-5")).unwrap() {
        SubmitOutcome::Accepted { coalesced: false, .. } => {}
        other => panic!("expected fresh accept after drain, got {other:?}"),
    }

    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_replays_the_queue_with_no_loss_and_no_duplication() {
    let dir = scratch("restart");
    let queue = DurableQueue::new(&dir);
    let done_stats = RunStats { cycles: 777, instructions: 7, ..RunStats::default() };
    // The on-disk state a SIGKILL leaves behind: one job settled, one
    // claimed mid-run (its process is gone), one still queued.
    let killed = [
        JobRecord {
            id: 1,
            spec: spec("done-app"),
            key: MockExec::key_of(&spec("done-app")),
            predicted_cycles: 1_000,
            budget_ms: 200,
            state: JobState::Done,
            attempts: 1,
            stats: Some(Box::new(done_stats.clone())),
            error: None,
        },
        JobRecord {
            id: 2,
            spec: spec("leased-app"),
            key: MockExec::key_of(&spec("leased-app")),
            predicted_cycles: 1_000,
            budget_ms: 200,
            state: JobState::Leased,
            attempts: 1,
            stats: None,
            error: None,
        },
        JobRecord {
            id: 3,
            spec: spec("queued-app"),
            key: MockExec::key_of(&spec("queued-app")),
            predicted_cycles: 1_000,
            budget_ms: 200,
            state: JobState::Queued,
            attempts: 0,
            stats: None,
            error: None,
        },
    ];
    for rec in &killed {
        assert!(queue.persist(rec));
    }

    let exec = MockExec::new();
    let server = Server::open(fast_opts(dir.clone()), Arc::new(exec.clone()));
    assert_eq!(server.recovery().restored, 3, "no job was lost");
    assert_eq!(server.recovery().reclaimed, 1, "the mid-run job was reclaimed");
    assert_eq!(server.recovery().replayed, 1, "the settled job replays without re-execution");

    let handles = server.start_workers();
    for id in [2, 3] {
        let rec = server.wait_settled(id, Duration::from_secs(10)).expect("job settles");
        assert_eq!(rec.state, JobState::Done);
    }
    // No duplication: the done job kept its original result and only
    // the two unsettled jobs executed.
    assert_eq!(server.job(1).unwrap().stats.as_deref(), Some(&done_stats));
    assert_eq!(exec.executions.load(Ordering::SeqCst), 2);
    assert_eq!(server.jobs().len(), 3);
    // The reclaimed job's consumed attempt survived the restart.
    assert_eq!(server.job(2).unwrap().attempts, 2);

    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn http_front_roundtrips_submit_jobs_healthz_metrics_and_drain() {
    let dir = scratch("http");
    let exec = MockExec::new();
    let server = Server::open(fast_opts(dir.clone()), Arc::new(exec));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = {
        let server = server.clone();
        std::thread::spawn(move || http::run(&server, listener).unwrap())
    };

    // Invalid specs are rejected at admission with a structured error.
    let (status, body) =
        http_call(&addr, "POST", "/submit", Some(&spec("unknown").to_json().render())).unwrap();
    assert_eq!(status, 400);
    let err = ExecError::from_json(&Json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.kind, "invalid");

    let (status, body) =
        http_call(&addr, "POST", "/submit", Some(&spec("pb-sgemm").to_json().render())).unwrap();
    assert_eq!(status, 200);
    let outcome = SubmitOutcome::from_json(&Json::parse(&body).unwrap()).unwrap();
    let id = match outcome {
        SubmitOutcome::Accepted { id, coalesced: false, .. } => id,
        other => panic!("expected fresh accept, got {other:?}"),
    };

    // Wait on the server's own settlement, then read the job over HTTP.
    server.wait_settled(id, Duration::from_secs(10)).expect("job settles");
    let (status, body) = http_call(&addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200);
    let rec = JobRecord::from_json(&Json::parse(&body).unwrap()).unwrap();
    assert_eq!(rec.state, JobState::Done);
    assert_eq!(rec.stats.unwrap().cycles, MockExec::key_of(&spec("pb-sgemm")));

    let (status, body) = http_call(&addr, "GET", "/jobs", None).unwrap();
    assert_eq!(status, 200);
    let jobs = Json::parse(&body).unwrap();
    assert_eq!(jobs.field("jobs").unwrap().as_arr().unwrap().len(), 1);

    let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert!(health.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(health.field("durability").unwrap().as_str().unwrap(), "process-crash-safe");

    let (status, body) = http_call(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    subcore_metrics::validate_prometheus(&body).expect("valid Prometheus text");

    let (status, _) = http_call(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    let (status, body) = http_call(&addr, "POST", "/drain", None).unwrap();
    assert_eq!(status, 200);
    assert!(Json::parse(&body).unwrap().field("draining").unwrap().as_bool().unwrap());
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `http::run` over `opts` on port 0; returns the address and the
/// daemon thread.
fn spawn_daemon(opts: ServeOptions) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::open(opts, Arc::new(MockExec::new()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || http::run(&server, listener).unwrap()))
}

#[test]
fn drain_ends_an_idle_daemon_promptly_with_no_further_connection() {
    // Default options: nothing in the exit path may wait on a tick, and
    // the accept loop must wake without a client.
    let dir = scratch("idle-drain");
    let (addr, daemon) = spawn_daemon(ServeOptions { dir: dir.clone(), ..ServeOptions::default() });
    let (status, body) =
        http_call(&addr, "POST", "/submit", Some(&spec("pb-sgemm").to_json().render())).unwrap();
    assert_eq!(status, 200, "{body}");

    let t0 = std::time::Instant::now();
    assert_eq!(http_call(&addr, "POST", "/drain", None).unwrap().0, 200);
    daemon.join().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(1), "drain → exit took {:?}", t0.elapsed());

    // "Finish or persist": the admitted job settled before the exit.
    let (records, _) = DurableQueue::new(&dir).load();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].state, JobState::Done);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn front_door_answers_without_a_polling_tick() {
    let dir = scratch("rtt");
    let (addr, daemon) = spawn_daemon(fast_opts(dir.clone()));
    let t0 = std::time::Instant::now();
    for _ in 0..200 {
        let (status, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.field("persist_failures").unwrap().as_u64().unwrap(), 0);
    }
    // 200 sequential round trips; one 25 ms accept-loop tick each would
    // be 5 s.
    assert!(t0.elapsed() < Duration::from_secs(1), "200 requests took {:?}", t0.elapsed());
    http_call(&addr, "POST", "/drain", None).unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_settlement_that_misses_the_disk_is_counted_not_hidden() {
    let dir = scratch("persist-drop");
    let exec = MockExec::gated();
    let server = Server::open(fast_opts(dir.clone()), Arc::new(exec.clone()));
    let handles = server.start_workers();
    let id = match server.submit(spec("pb-sgemm")).unwrap() {
        SubmitOutcome::Accepted { id, .. } => id,
        other => panic!("expected accept, got {other:?}"),
    };
    // The run starts only after the claim record landed; from here the
    // next write is the settlement.
    while exec.executions.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    assert_eq!(server.persist_failures(), 0);
    // A plain file where the queue directory was: every write now fails.
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();
    exec.release();

    let rec = server.wait_settled(id, Duration::from_secs(10)).expect("job settles");
    assert_eq!(rec.state, JobState::Done, "clients still get the result");
    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.persist_failures(), 1, "the lost settlement record is on the books");
    assert_eq!(server.metrics().counter(mx::SERVE_PERSIST_DROP), Some(1), "and exported once");
    std::fs::remove_file(&dir).ok();
}
