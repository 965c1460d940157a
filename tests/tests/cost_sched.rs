//! Cost-aware scheduling integration: sweeps start their
//! longest-predicted cells first (LPT list scheduling), predictions land
//! in every run record, and the journal/resume machinery is oblivious to
//! the reordering.
//!
//! This file is its own test binary with a single test so it can install
//! the process-wide run context with a jobs cap of one: with exactly one
//! worker the supervisor runs cells strictly in submission order, which
//! turns telemetry record order into ground truth for the scheduler's
//! chosen order.

use std::sync::Arc;
use subcore_engine::{GpuConfig, RunStats};
use subcore_experiments::journal::Journal;
use subcore_experiments::sweep::{run_cell_sweep_on, SweepEnv, SweepOutcome};
use subcore_experiments::{RunContext, SimSession};
use subcore_isa::{fma_kernel, App, Suite};

/// Apps in strictly *ascending* size, so longest-predicted-first must
/// reverse the submission order.
fn apps() -> Vec<App> {
    (0u32..5)
        .map(|i| {
            let k = fma_kernel("k", 2 + 4 * i, 8, 32 + 32 * i);
            App::new(format!("sched-{i}"), Suite::Micro, vec![k])
        })
        .collect()
}

fn base() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000)
}

fn sweep(env: SweepEnv, apps: &[App]) -> SweepOutcome {
    run_cell_sweep_on(&env, &base(), apps, &[])
}

fn flat(out: &SweepOutcome) -> Vec<Option<Arc<RunStats>>> {
    out.cells.iter().flatten().cloned().collect()
}

#[test]
fn sweeps_run_longest_predicted_first_and_journals_are_oblivious() {
    subcore_experiments::init_global(RunContext { jobs: Some(1), ..RunContext::default() });
    assert_eq!(subcore_experiments::jobs_cap(), Some(1), "this binary owns the run context");
    assert!(subcore_experiments::reorder_enabled(), "cost-aware ordering defaults on");
    let apps = apps();

    // Reordered sweep: completion order must follow descending predictions,
    // not submission order.
    let sess = SimSession::in_memory();
    let out = sweep(SweepEnv::on(&sess), &apps);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    let records = sess.telemetry().records();
    assert_eq!(records.len(), apps.len());
    let predicted: Vec<u64> = records
        .iter()
        .map(|r| r.predicted_cycles.unwrap_or_else(|| panic!("{} lost its prediction", r.app)))
        .collect();
    assert!(
        predicted.windows(2).all(|w| w[0] >= w[1]),
        "completion order does not follow predictions: {predicted:?}"
    );
    assert_eq!(records[0].app, "sched-4", "largest app starts first");
    assert_eq!(records.last().unwrap().app, "sched-0", "smallest app finishes last");
    for r in &records {
        assert!(r.estimate_error().is_some(), "{} has a prediction and cycles", r.app);
    }

    // Control: with the knob off, the same sweep runs in submission order.
    let control = SimSession::in_memory();
    let _ = sweep(SweepEnv { reorder: false, ..SweepEnv::on(&control) }, &apps);
    let names: Vec<String> = control.telemetry().records().iter().map(|r| r.app.clone()).collect();
    assert_eq!(names, vec!["sched-0", "sched-1", "sched-2", "sched-3", "sched-4"]);

    // Journal + resume are order-independent: a journaled reordered run
    // resumes to the identical grid without recomputing a single cell.
    let root = std::env::temp_dir().join(format!("subcore-cost-sched-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let journal = Journal::open(&root, "cost-sched");
    let journaled_sess = SimSession::in_memory();
    let journaled =
        sweep(SweepEnv { journal: Some(&journal), ..SweepEnv::on(&journaled_sess) }, &apps);
    assert!(journaled.failures.is_empty());
    let resumed_sess = SimSession::in_memory();
    let resumed = sweep(
        SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&resumed_sess) },
        &apps,
    );
    assert_eq!(resumed.journal_skips, apps.len() as u64, "every cell resumes from the journal");
    for (i, (a, b)) in flat(&journaled).iter().zip(flat(&resumed)).enumerate() {
        let a = a.as_deref().expect("journaled cell complete");
        let b = b.expect("resumed cell complete");
        assert_eq!(a, &*b, "cell {i} changed across resume");
    }
    // And the journaled grid equals the unjournaled one, bit for bit.
    for (i, (a, b)) in flat(&out).iter().zip(flat(&journaled)).enumerate() {
        let a = a.as_deref().expect("cell complete");
        let b = b.expect("cell complete");
        assert_eq!(a, &*b, "cell {i} depends on journaling");
    }
    std::fs::remove_dir_all(&root).ok();
}
