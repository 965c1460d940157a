//! Process-level serve recovery: a real `repro serve` daemon child is
//! SIGKILL'd mid-campaign and restarted over the same durable queue; the
//! campaign must settle with no lost jobs, no duplicated jobs, reclaimed
//! leases re-executed, and results bit-exact vs an uninterrupted
//! in-process reference. This is the acceptance drill behind
//! `repro chaos --serve`, pinned here so `cargo test` enforces it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use subcore_experiments::{
    run_serve_drill, ServeDrillOptions, SessionOptions, SimExecutor, SimSession,
};
use subcore_serve::{JobSpec, JobState, ServeOptions, Server, SubmitOutcome};

#[test]
fn sigkill_and_restart_settle_bit_exact_with_no_loss_or_duplication() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_repro"));
    let dir = std::env::temp_dir().join(format!("subcore-serve-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeDrillOptions::headline(exe, dir.clone());
    let report = run_serve_drill(&opts);
    let rendered = report.render();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.ok(), "drill failed:\n{rendered}");
    assert_eq!(report.submitted, opts.specs.len(), "{rendered}");
    assert_eq!(report.restored, report.submitted, "no job may be lost:\n{rendered}");
    assert_eq!(report.done_after, report.submitted, "every job settles done:\n{rendered}");
    assert!(report.clean_exit, "drain must exit 0:\n{rendered}");
    // Lease reclamation: the drill kills the daemon only once a job is
    // leased mid-flight (or, in the unlikely case the campaign finished
    // between two 10ms polls, everything was already done — in which case
    // replay covered the whole queue instead).
    assert!(
        report.reclaimed >= 1 || report.done_before_kill == report.submitted,
        "the kill should land on a leased job:\n{rendered}"
    );
    assert!(report.replayed >= report.done_before_kill, "done work never re-runs:\n{rendered}");
}

/// Flat per-job memory: the daemon's job record is the one copy of a
/// result. N unique jobs served through `SimExecutor` leave its session
/// holding no memo cell, prediction or run record — where the same N runs
/// through `SimSession::try_run` retain one of each kind.
#[test]
fn settled_jobs_leave_nothing_in_the_executor_session() {
    const JOBS: u64 = 6;
    let dir = std::env::temp_dir().join(format!("subcore-serve-retention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = Arc::new(SimExecutor::new(SessionOptions::default()));
    let server =
        Server::open(ServeOptions { dir: dir.clone(), ..ServeOptions::default() }, exec.clone());
    let handles = server.start_workers();

    let spec =
        |i: u64| JobSpec { app: "fma".into(), max_cycles: 20_000_000 + i, ..JobSpec::default() };
    let ids: Vec<u64> = (0..JOBS)
        .map(|i| match server.submit(spec(i)).expect("fma resolves") {
            SubmitOutcome::Accepted { id, coalesced: false, .. } => id,
            other => panic!("expected a fresh accept, got {other:?}"),
        })
        .collect();
    let mut cycles = Vec::new();
    for id in ids {
        let rec = server.wait_settled(id, Duration::from_secs(60)).expect("job settles");
        assert_eq!(rec.state, JobState::Done);
        cycles.push(rec.stats.expect("done jobs carry their result").cycles);
    }
    assert!(cycles.iter().all(|&c| c > 0 && c == cycles[0]), "same app, same cycles: {cycles:?}");

    let sess = exec.session();
    assert_eq!(sess.retained_entries(), 0, "the session kept per-job state");
    let t = sess.telemetry().snapshot();
    assert_eq!((t.runs, t.sims, t.memo_hits), (JOBS, JOBS, 0), "counted, just not kept");
    // A resubmit is answered from the job map, not by the session.
    assert!(matches!(server.submit(spec(0)), Ok(SubmitOutcome::Accepted { coalesced: true, .. })));
    assert_eq!(sess.telemetry().snapshot().runs, JOBS);

    // The contrast: the memoizing path keeps a cell and a record per key.
    let memo = SimSession::in_memory();
    let app = subcore_experiments::trace::resolve_target("fma").expect("alias resolves");
    for i in 0..JOBS {
        let base =
            subcore_engine::GpuConfig::volta_v100().with_sms(2).with_max_cycles(20_000_000 + i);
        memo.try_run(&base, subcore_sched::Design::Baseline, &app).expect("fma simulates");
    }
    assert_eq!(memo.retained_entries() as u64, 2 * JOBS);

    server.drain();
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
