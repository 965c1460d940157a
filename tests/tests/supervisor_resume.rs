//! Kill-and-resume integration: a faulted campaign killed mid-flight,
//! resumed from its journal, must merge into exactly the results an
//! uninterrupted fault-free campaign produces.
//!
//! This drives the full supervised stack — a named injected panic, per-cell
//! recovery, the journal, and `--resume` — across crate boundaries, the
//! way `repro chaos` does, but asserting the *merged* outcome cell by
//! cell against an independent uninterrupted run.

use std::sync::Arc;

use subcore_engine::{GpuConfig, RunStats};
use subcore_experiments::journal::Journal;
use subcore_experiments::supervisor::JobErrorKind;
use subcore_experiments::sweep::{run_cell_sweep_on, SweepEnv, SweepOutcome};
use subcore_experiments::{SimSession, SupervisorPolicy};
use subcore_isa::{fma_kernel, App, Suite};
use subcore_metrics::names as mx;
use subcore_sched::Design;

fn apps() -> Vec<App> {
    (0..4)
        .map(|i| App::new(format!("resume-{i}"), Suite::Micro, vec![fma_kernel("k", 2, 4 + i, 32)]))
        .collect()
}

fn base() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000)
}

fn flat(out: &SweepOutcome) -> Vec<Option<Arc<RunStats>>> {
    out.cells.iter().flatten().cloned().collect()
}

/// Value of counter `name` in the metrics pulled from `sess`.
fn counter(sess: &SimSession, name: &str) -> u64 {
    sess.metrics().counter(name).expect("the session reports every name it owns")
}

#[test]
fn killed_faulted_campaign_resumes_to_the_uninterrupted_result() {
    let apps = apps();
    let base = base();
    let designs = [Design::Rba];
    let root =
        std::env::temp_dir().join(format!("subcore-resume-integration-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    // Each phase runs on its own session, so the counters pulled from it
    // are that phase's exact ground truth.

    // Reference: uninterrupted, fault-free, fully in-memory.
    let sweep = |env: SweepEnv| run_cell_sweep_on(&env, &base, &apps, &designs);
    let reference = sweep(SweepEnv::on(&SimSession::in_memory()));
    assert!(reference.failures.is_empty(), "reference campaign is clean");

    // Phase 1: faulted campaign, killed after half the cells settle. The
    // first cell to start panics; the kill starts every position below it,
    // so the panic always fires.
    let journal = Journal::open(&root, "resume-drill");
    let kill_policy = SupervisorPolicy { stop_after: Some(4), ..SupervisorPolicy::default() };
    let killed_session = SimSession::in_memory();
    let killed = sweep(SweepEnv {
        journal: Some(&journal),
        policy: kill_policy,
        panic_at: Some(0),
        ..SweepEnv::on(&killed_session)
    });
    assert!(killed.aborted, "stop_after kills the campaign mid-flight");
    let journaled = journal.progress().done;
    assert_eq!(journaled, 3, "of the four cells started, all but the panicked one complete");

    // The supervisor counters must match the killed phase's JobOutcome
    // ground truth exactly.
    let real_failures =
        killed.failures.iter().filter(|e| e.kind != JobErrorKind::Aborted).count() as u64;
    let aborted_jobs =
        killed.failures.iter().filter(|e| e.kind == JobErrorKind::Aborted).count() as u64;
    let panics: Vec<_> = killed.failures.iter().filter(|e| e.kind == JobErrorKind::Panic).collect();
    assert_eq!(panics.len(), 1, "exactly the named cell panics: {:?}", killed.failures);
    assert!(panics[0].payload.contains("injected fault"), "{}", panics[0]);
    assert_eq!((real_failures, aborted_jobs), (1, 4), "one panic, and the kill aborts the rest");
    assert_eq!(
        counter(&killed_session, mx::SUPERVISOR_JOB_FAILED),
        real_failures,
        "failed-job counter tracks non-aborted failures"
    );
    assert_eq!(
        counter(&killed_session, mx::SUPERVISOR_JOB_ABORTED),
        aborted_jobs,
        "aborted-job counter tracks the killed tail"
    );
    assert_eq!(
        counter(&killed_session, mx::JOURNAL_RECORD_DONE),
        journaled,
        "every journaled-done cell was counted as a record write"
    );

    // Phase 2: a fresh process-equivalent (new session, no shared memo)
    // resumes fault-free from the journal.
    let resumed_session = SimSession::in_memory();
    let resumed =
        sweep(SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&resumed_session) });
    assert!(resumed.failures.is_empty(), "resume completes every cell: {:?}", resumed.failures);
    assert!(!resumed.aborted);
    assert_eq!(
        resumed.journal_skips, journaled,
        "every journaled-complete cell is served from the journal, not recomputed"
    );
    assert_eq!(
        counter(&resumed_session, mx::JOURNAL_SKIP),
        resumed.journal_skips,
        "journal-skip counter matches the sweep's own skip count"
    );
    assert_eq!(
        counter(&resumed_session, mx::SUPERVISOR_JOB_DONE),
        (apps.len() * 2) as u64,
        "the resume settles every cell as done"
    );
    assert_eq!(counter(&resumed_session, mx::SUPERVISOR_JOB_FAILED), 0);

    // The merged campaign equals the uninterrupted one, bit for bit.
    for (i, (a, b)) in flat(&reference).iter().zip(flat(&resumed)).enumerate() {
        let a = a.as_deref().expect("reference cell complete");
        let b = b.expect("resumed cell complete");
        assert_eq!(a, &*b, "cell {i} diverges from the uninterrupted run");
    }

    std::fs::remove_dir_all(&root).ok();
}
