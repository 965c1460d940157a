//! Kill-and-resume integration: a faulted campaign killed mid-flight,
//! resumed from its journal, must merge into exactly the results an
//! uninterrupted fault-free campaign produces.
//!
//! This drives the full supervised stack — fault injection, per-cell
//! recovery, the journal, and `--resume` — across crate boundaries, the
//! way `repro chaos` does, but asserting the *merged* outcome cell by
//! cell against an independent uninterrupted run.

use std::sync::Arc;
use std::time::Duration;

use subcore_engine::{GpuConfig, RunStats};
use subcore_experiments::faultgen::FaultPlan;
use subcore_experiments::journal::Journal;
use subcore_experiments::supervisor::JobErrorKind;
use subcore_experiments::sweep::{run_cell_sweep_on, SweepEnv, SweepOutcome};
use subcore_experiments::{SimSession, SupervisorPolicy};
use subcore_isa::{fma_kernel, App, Suite};
use subcore_metrics::names as mx;
use subcore_metrics::MetricsSnapshot;
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

/// Value of counter `name` in `snap`, 0 when not yet registered.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Counter delta between two global-registry snapshots.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    counter(after, name) - counter(before, name)
}

#[test]
fn killed_faulted_campaign_resumes_to_the_uninterrupted_result() {
    let apps = apps();
    let base = base();
    let designs = [Design::Rba];
    let root =
        std::env::temp_dir().join(format!("subcore-resume-integration-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    // This file is its own test binary with a single test, so the global
    // metrics gate races with nothing; deltas between snapshots taken
    // around each phase are exact ground truth for the counters.
    subcore_metrics::set_enabled(true);

    // Reference: uninterrupted, fault-free, fully in-memory.
    let sweep = |env: SweepEnv| run_cell_sweep_on(&env, &base, &apps, &designs);
    let reference = sweep(SweepEnv::on(&SimSession::in_memory()));
    assert!(reference.failures.is_empty(), "reference campaign is clean");

    // Phase 1: faulted campaign, killed after half the cells settle.
    let before_kill = subcore_metrics::snapshot();
    let journal = Journal::open(&root, "resume-drill");
    let faults = FaultPlan::new(7, 0.35);
    let kill_policy = SupervisorPolicy {
        retries: 0, // injected panics stay failed, so resume has real work
        backoff: Duration::ZERO,
        stop_after: Some(4),
        ..SupervisorPolicy::default()
    };
    let killed = sweep(SweepEnv {
        journal: Some(&journal),
        policy: kill_policy,
        faults: Some(faults),
        ..SweepEnv::on(&SimSession::in_memory())
    });
    assert!(killed.aborted, "stop_after kills the campaign mid-flight");
    let journaled = journal.progress().done;
    assert!(journaled < (apps.len() * 2) as u64, "the kill leaves unfinished cells");

    // The supervisor counters must match the killed phase's JobOutcome
    // ground truth exactly.
    let after_kill = subcore_metrics::snapshot();
    let real_failures =
        killed.failures.iter().filter(|e| e.kind != JobErrorKind::Aborted).count() as u64;
    let aborted_jobs =
        killed.failures.iter().filter(|e| e.kind == JobErrorKind::Aborted).count() as u64;
    assert_eq!(
        delta(&before_kill, &after_kill, mx::SUPERVISOR_JOB_FAILED),
        real_failures,
        "failed-job counter tracks non-aborted failures"
    );
    assert_eq!(
        delta(&before_kill, &after_kill, mx::SUPERVISOR_JOB_ABORTED),
        aborted_jobs,
        "aborted-job counter tracks the killed tail"
    );
    assert_eq!(
        delta(&before_kill, &after_kill, mx::SUPERVISOR_JOB_TIMEOUT),
        0,
        "no watchdog deadline fired in this drill"
    );
    assert_eq!(
        delta(&before_kill, &after_kill, mx::SUPERVISOR_JOB_RETRY),
        0,
        "retries are disabled in the kill phase"
    );
    assert_eq!(
        delta(&before_kill, &after_kill, mx::JOURNAL_RECORD_DONE),
        journaled,
        "every journaled-done cell was counted as a record write"
    );

    // Phase 2: a fresh process-equivalent (new session, no shared memo)
    // resumes fault-free from the journal.
    let before_resume = subcore_metrics::snapshot();
    let resumed_session = SimSession::in_memory();
    let resumed =
        sweep(SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&resumed_session) });
    assert!(resumed.failures.is_empty(), "resume completes every cell: {:?}", resumed.failures);
    assert!(!resumed.aborted);
    assert_eq!(
        resumed.journal_skips, journaled,
        "every journaled-complete cell is served from the journal, not recomputed"
    );
    let after_resume = subcore_metrics::snapshot();
    assert_eq!(
        delta(&before_resume, &after_resume, mx::JOURNAL_SKIP),
        resumed.journal_skips,
        "journal-skip counter matches the sweep's own skip count"
    );
    assert_eq!(
        delta(&before_resume, &after_resume, mx::SUPERVISOR_JOB_DONE),
        (apps.len() * 2) as u64,
        "the resume settles every cell as done"
    );
    assert_eq!(delta(&before_resume, &after_resume, mx::SUPERVISOR_JOB_FAILED), 0);

    // The merged campaign equals the uninterrupted one, bit for bit.
    for (i, (a, b)) in flat(&reference).iter().zip(flat(&resumed)).enumerate() {
        let a = a.as_deref().expect("reference cell complete");
        let b = b.expect("resumed cell complete");
        assert_eq!(a, &*b, "cell {i} diverges from the uninterrupted run");
    }

    std::fs::remove_dir_all(&root).ok();
}
