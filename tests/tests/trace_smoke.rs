//! Smoke test of the tracing subsystem end-to-end: enabling the probes
//! yields a non-empty windowed series that agrees with the run's own
//! counters, and tracing is observation-only — the traced run's `RunStats`
//! are bit-identical to the untraced run's.

use subcore_engine::{
    simulate, simulate_app, simulate_tenants, EngineMode, SmSet, TenantRun, TraceEvent, TraceSink,
    Workload,
};
use subcore_integration::test_gpu;
use subcore_isa::{fma_kernel, App, Suite};
use subcore_sched::Design;
use subcore_workloads::tenant_mix_by_name;

fn tiny_app() -> App {
    App::new("smoke", Suite::Micro, vec![fma_kernel("k", 6, 8, 128)])
}

/// Counts the events it sees, and the issues among them.
#[derive(Default)]
struct Counter {
    events: u64,
    issues: u64,
}

impl TraceSink for Counter {
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        if matches!(ev, TraceEvent::Issue { .. }) {
            self.issues += 1;
        }
    }
}

#[test]
fn tracing_is_observation_only() {
    let app = tiny_app();
    let design = Design::Baseline;
    let cfg = design.config(&test_gpu());
    let untraced = simulate_app(&cfg, &design.policies(), &app).expect("untraced run");
    assert!(untraced.windowed.is_none(), "windowed series only appears when requested");

    let mut traced_cfg = cfg.clone();
    traced_cfg.stats.trace_window = 256;
    let mut traced = simulate_app(&traced_cfg, &design.policies(), &app).expect("traced run");
    let series = traced.windowed.take().expect("trace_window attaches a windowed series");
    assert!(!series.windows.is_empty(), "the traced run covers at least one window");
    assert!(series.total_issued() > 0, "the FMA kernel issues instructions");
    // The aggregator watches SM 0 only; its issue total must agree with the
    // engine's own per-scheduler counters for that SM.
    assert_eq!(
        series.total_issued(),
        untraced.issued_per_scheduler[0].iter().sum::<u64>(),
        "windowed series disagrees with the engine's issue counters"
    );
    assert_eq!(series.total_cycles, untraced.cycles);
    assert!(series.windows.iter().any(|w| w.mean_depth().is_some()), "depth samples were taken");

    // With the series stripped, the traced run must be bit-identical: the
    // probes observe the simulation without perturbing it. (The traced
    // config differs only in `stats.trace_window`, which the engine must
    // treat as observation config, not simulation config.)
    assert_eq!(traced, untraced, "tracing perturbed the simulation");
}

#[test]
fn external_sinks_observe_without_perturbing() {
    let app = tiny_app();
    let design = Design::Baseline;
    let cfg = design.config(&test_gpu());
    let untraced = simulate_app(&cfg, &design.policies(), &app).expect("untraced run");
    // No trace_window: the sink alone turns the probes on.
    let mut sink = Counter::default();
    let with_sink = simulate(&cfg, &design.policies(), Workload::App(&app), vec![&mut sink])
        .expect("sink-only run");
    assert!(sink.events > 0, "an attached sink receives the event stream");
    assert_eq!(sink.issues, untraced.instructions, "every issue is announced exactly once");
    assert_eq!(with_sink, untraced, "an external sink perturbed the simulation");
}

/// The same holds for a tenant run, per-tenant breakdown included. A sink
/// pins the loop to polling, so in the adaptive mode this also compares
/// the polled multi-tenant loop with the skipping one.
#[test]
fn external_sinks_leave_tenant_runs_unchanged() {
    let mix = tenant_mix_by_name("micro-skewed").expect("registered mix");
    let sets = [SmSet::contiguous(0, 1), SmSet::contiguous(1, 1)];
    let runs: Vec<TenantRun> = mix
        .tenants
        .into_iter()
        .zip(sets)
        .map(|(spec, sm_set)| TenantRun { spec, sm_set })
        .collect();
    let design = Design::Baseline;
    for mode in [EngineMode::Reference, EngineMode::Adaptive] {
        let cfg = design.config(&test_gpu()).with_engine_mode(mode);
        let untraced = simulate_tenants(&cfg, &design.policies(), &runs).expect("untraced run");
        assert_eq!(untraced.tenants.len(), 2, "{mode:?}: one breakdown per tenant");
        let mut sink = Counter::default();
        let traced = simulate(&cfg, &design.policies(), Workload::Tenants(&runs), vec![&mut sink])
            .expect("traced run");
        assert!(sink.events > 0, "{mode:?}: the sink receives the tenant run's events");
        assert_eq!(sink.issues, untraced.instructions, "{mode:?}: every issue announced once");
        assert_eq!(traced, untraced, "{mode:?}: a sink perturbed the tenant run");
    }
}

#[test]
fn rba_relieves_bank_queues_in_the_windowed_series() {
    // A register-file-limited app (Fig. 11/12/14 subset) — bank queues are
    // the bottleneck, so RBA's effect on their depth is large and robust.
    let app = subcore_workloads::app_by_name("pb-sgemm").expect("registry app");
    let mut depths = Vec::new();
    for design in [Design::Baseline, Design::Rba] {
        let mut cfg = design.config(&test_gpu());
        cfg.stats.trace_window = 256;
        let stats = simulate_app(&cfg, &design.policies(), &app).expect("traced run");
        depths.push(stats.windowed.expect("windowed series").mean_bank_depth());
    }
    assert!(
        depths[1] < depths[0] * 0.99,
        "RBA mean bank-queue depth {:.3} should clearly undercut baseline {:.3}",
        depths[1],
        depths[0]
    );
}
