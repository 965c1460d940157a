//! End-to-end metrics pipeline: a supervised sweep instrumented through
//! the global registry, exported as a snapshot stream, loaded back, and
//! rendered as both the `repro top` dashboard and Prometheus text.
//!
//! This file is its own test binary with a single test, so enabling the
//! process-wide metrics gate races with nothing.

use std::time::Duration;

use subcore_experiments::journal::Journal;
use subcore_experiments::sweep::{run_cell_sweep_on, SweepEnv};
use subcore_experiments::{render_frame, render_metrics_summary, SimSession, SupervisorPolicy};
use subcore_isa::{fma_kernel, App, Suite};
use subcore_metrics::names as mx;
use subcore_metrics::{load_snapshots, render_prometheus, validate_prometheus, SnapshotWriter};
use subcore_sched::Design;

#[test]
fn sweep_metrics_export_load_and_render_round_trip() {
    let root =
        std::env::temp_dir().join(format!("subcore-metrics-pipeline-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    subcore_metrics::set_enabled(true);

    let apps: Vec<App> = (0..2)
        .map(|i| App::new(format!("mx-{i}"), Suite::Micro, vec![fma_kernel("k", 2, 4 + i, 32)]))
        .collect();
    let base = subcore_engine::GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000);
    let journal = Journal::open(root.join(".journal"), "metrics-drill");
    let sess = SimSession::in_memory();
    let env = SweepEnv {
        journal: Some(&journal),
        policy: SupervisorPolicy { backoff: Duration::ZERO, ..SupervisorPolicy::default() },
        ..SweepEnv::on(&sess)
    };
    let out = run_cell_sweep_on(&env, &base, &apps, &[Design::Rba]);
    assert!(out.failures.is_empty(), "clean sweep: {:?}", out.failures);

    // Export the global registry the way the runner's periodic flusher
    // does, then load it back from disk.
    let mut writer = SnapshotWriter::new(root.join(".metrics"), "metrics-drill");
    let path = writer.tick(subcore_metrics::global()).expect("snapshot write lands");
    let snaps = load_snapshots(&path);
    assert!(!snaps.is_empty(), "the stream holds the tick");
    let last = snaps.last().unwrap();

    // The sweep's instrumentation is all visible in the loaded snapshot.
    let cells = (apps.len() * 2) as u64;
    assert!(last.counter(mx::SESSION_SIM).unwrap_or(0) >= cells, "every cell simulated");
    assert!(last.counter(mx::SUPERVISOR_JOB_DONE).unwrap_or(0) >= cells);
    assert_eq!(
        last.counter(mx::JOURNAL_RECORD_DONE).unwrap_or(0),
        cells,
        "journal writes counted once per cell"
    );
    assert!(last.counter(mx::ENGINE_CYCLES).unwrap_or(0) > 0, "cycles attributed");
    let wall = last.histogram(mx::SESSION_SIM_WALL_US).expect("sim wall histogram registered");
    assert!(wall.count >= cells);
    assert!(
        last.span_aggs.iter().any(|a| a.kind == "campaign"),
        "campaign span closed: {:?}",
        last.span_aggs
    );
    assert!(
        last.span_aggs.iter().any(|a| a.kind == "campaign/job"),
        "job spans closed under the campaign"
    );
    assert!(
        last.span_aggs.iter().any(|a| a.kind == "campaign/job/simulate"),
        "simulate phase spans closed under jobs"
    );

    // Both renderers work from the loaded stream.
    let frame = render_frame(&snaps);
    assert!(frame.contains("jobs"), "frame renders job totals:\n{frame}");
    assert!(frame.contains("metrics-drill"), "campaign appears in spans:\n{frame}");
    let summary = render_metrics_summary(last);
    assert!(summary.contains(mx::SESSION_SIM), "summary lists counters:\n{summary}");

    // Prometheus text parses and carries the instrumented families.
    let prom = render_prometheus(last);
    let samples = validate_prometheus(&prom).expect("rendered text validates");
    assert!(samples > 10, "a real campaign yields many samples, got {samples}");
    assert!(prom.contains("subcore_session_sim"), "sanitized names present:\n{prom}");

    std::fs::remove_dir_all(&root).ok();
}
