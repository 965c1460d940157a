//! Engine-mode comparison: the event-driven fast path (ready-set
//! scheduling + idle-cycle skip-ahead) and the adaptive density-driven
//! selector head-to-head against the polled reference on the same
//! workloads. All modes produce bit-identical stats (see
//! `tests/tests/engine_modes.rs`); this measures what each path buys in
//! wall time, per behavior class.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use subcore_bench::bench_gpu;
use subcore_engine::{simulate_app, EngineMode};
use subcore_sched::Design;
use subcore_workloads::{app_by_name, fma_microbenchmark, FmaLayout};

fn engine_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_modes");
    let cases = [
        // Idle-heavy imbalance: the largest skip spans, the headline win.
        ("unbalanced-fma", fma_microbenchmark(FmaLayout::Unbalanced, 4, 512)),
        // Dense compute: near-zero idle, measures fast-path overhead.
        ("compute-sgemm", app_by_name("pb-sgemm").unwrap()),
        // Irregular memory: mixed stall/skip behavior.
        ("irregular-spmv", app_by_name("pb-spmv").unwrap()),
        // TPC-H scan/join: the longest-running figure workload class.
        ("tpch-q9", app_by_name("tpcC-q9").unwrap()),
    ];
    for (name, app) in cases {
        let policies = Design::Baseline.policies();
        let base = Design::Baseline.config(&bench_gpu());
        let cycles = simulate_app(&base, &policies, &app).unwrap().cycles;
        g.throughput(Throughput::Elements(cycles));
        for mode in [EngineMode::Adaptive, EngineMode::Reference] {
            let cfg = base.clone().with_engine_mode(mode);
            g.bench_function(format!("{name}/{}", mode.tag()), |b| {
                b.iter(|| black_box(simulate_app(&cfg, &policies, &app).unwrap().cycles))
            });
        }
    }
    g.finish();
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = engine;
    config = criterion_config();
    targets = engine_modes
}
criterion_main!(engine);
