//! Differential tests of the fast engine core against the polled
//! reference: for any workload, design, connectivity, and engine option
//! set, `EngineMode::Adaptive` (event-maintained readiness masks +
//! idle-cycle skip-ahead) must produce **bit-identical** `RunStats` —
//! cycles, stall breakdowns, per-scheduler issue counts, and the windowed
//! probe series. (Debug builds of the engine additionally re-run the
//! reference scan inside the fast path every domain-cycle, so these runs
//! also check the candidate lists themselves, not just their outcome.)

use proptest::prelude::*;
use subcore_engine::{
    simulate_app, simulate_tenants, EngineMode, GpuConfig, Policies, RunStats, SimError, SmSet,
    TenantRun,
};
use subcore_integration::test_gpu;
use subcore_isa::{App, Suite, TenantSpec};
use subcore_sched::{Design, PARTITION_POLICIES};
use subcore_workloads::{
    fma_microbenchmark, AppParams, FmaLayout, Imbalance, KernelParams, MemShape, Mix,
};

/// Runs `app` under the polled reference and the fast engine of the same
/// configuration; returns `(reference, fast)`.
fn mode_variants(
    cfg: &GpuConfig,
    policies: &Policies,
    app: &App,
) -> (Result<RunStats, SimError>, Result<RunStats, SimError>) {
    let run = |mode| simulate_app(&cfg.clone().with_engine_mode(mode), policies, app);
    (run(EngineMode::Reference), run(EngineMode::Adaptive))
}

fn assert_bit_exact(cfg: &GpuConfig, policies: &Policies, app: &App, label: &str) {
    let (reference, fast) = mode_variants(cfg, policies, app);
    assert_eq!(fast, reference, "{label}: fast engine diverged from polled reference");
}

/// Strategy: a small but diverse random kernel (mirrors the invariants
/// suite, plus idle-heavy imbalance shapes that maximize skip spans).
fn arb_kernel() -> impl Strategy<Value = KernelParams> {
    (
        1u32..6,  // blocks
        1u32..17, // warps per block
        4u8..20,  // reg span
        1u32..5,  // body_len / 4
        1u32..17, // iters
        0u8..3,   // mix selector
        prop_oneof![
            Just(Imbalance::None),
            (2u32..5, 2u32..9).prop_map(|(p, f)| Imbalance::EveryNth { period: p, factor: f }),
            (2u32..9).prop_map(|m| Imbalance::Ramp { max_factor: m }),
        ],
        any::<bool>(), // structured banks
        any::<u64>(),  // seed
    )
        .prop_map(
            |(blocks, warps, span, body4, iters, mix_sel, imbalance, structured, seed)| {
                let mut p = KernelParams::base("prop");
                p.blocks = blocks;
                p.warps_per_block = warps;
                p.regs_per_thread = 32;
                p.reg_span = span;
                p.body_len = body4 * 4;
                p.iters = iters;
                p.mix = match mix_sel {
                    0 => Mix::compute(),
                    1 => Mix::register_bound(),
                    _ => Mix::streaming(),
                };
                p.mem = MemShape { irregular_span: 512, ..MemShape::default() };
                p.imbalance = imbalance;
                p.structured_banks = structured;
                p.seed = seed;
                p
            },
        )
}

fn arb_design() -> impl Strategy<Value = Design> {
    prop_oneof![
        Just(Design::Baseline),
        Just(Design::Rba),
        Just(Design::Srr),
        Just(Design::Shuffle),
        Just(Design::ShuffleRba),
        Just(Design::FullyConnected),
        Just(Design::CuScaling(4)),
        Just(Design::BankStealing),
        Just(Design::RbaLatency(7)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random kernels × designs: the full `RunStats` (every counter, both
    /// connectivities via the design set) must match bit-for-bit.
    #[test]
    fn fast_engines_match_reference(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let cfg = design.config(&test_gpu());
        let (reference, fast) = mode_variants(&cfg, &design.policies(), &app);
        prop_assert_eq!(fast, reference);
    }

    /// Windowed tracing (the internal aggregator sink) stays exact across
    /// skip-ahead: synthesized cycles land in the same windows with the
    /// same stall/depth samples.
    #[test]
    fn windowed_series_match_across_modes(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let mut cfg = design.config(&test_gpu());
        cfg.stats.trace_window = 256;
        cfg.stats.trace_sm = 0;
        let (reference, fast) = mode_variants(&cfg, &design.policies(), &app);
        let reference = reference.expect("simulates");
        prop_assert!(reference.windowed.is_some(), "trace_window > 0 attaches a series");
        prop_assert_eq!(fast.expect("simulates"), reference);
    }

    /// The cycle limit fires at the identical cycle in every mode: a skip
    /// can never jump past the limit that the polled loop would hit.
    #[test]
    fn cycle_limit_parity(kernel in arb_kernel(), limit in 1u64..2000) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let mut cfg = test_gpu();
        cfg.max_cycles = limit;
        let (reference, fast) = mode_variants(&cfg, &Policies::hardware_baseline(), &app);
        prop_assert_eq!(fast, reference);
    }
}

/// The optional engine features each touch the hot loop (work stealing,
/// warp-level dealloc, dual issue, write-port contention, bank stealing,
/// RF tracing); each must stay exact on an idle-heavy unbalanced kernel,
/// where skip spans are longest.
#[test]
fn engine_options_stay_exact_on_unbalanced_fma() {
    let app = fma_microbenchmark(FmaLayout::Unbalanced, 4, 1024);
    type OptionToggle = fn(&mut GpuConfig);
    let options: [(&str, OptionToggle); 7] = [
        ("bank_stealing", |c| c.bank_stealing = true),
        ("work_stealing", |c| c.work_stealing = true),
        ("warp_level_dealloc", |c| c.warp_level_dealloc = true),
        ("dual_issue", |c| c.issue_width = 2),
        ("write_port_contention", |c| c.rf_write_port_contention = true),
        ("mshr_merging", |c| c.mshr_merging = true),
        ("rf_trace", |c| c.stats.record_rf_trace = true),
    ];
    for (label, mutate) in options {
        let mut cfg = test_gpu();
        mutate(&mut cfg);
        assert_bit_exact(&cfg, &Policies::hardware_baseline(), &app, label);
    }
}

/// Registry workloads under the headline designs: the figures must be
/// reproducible from either engine.
#[test]
fn registry_apps_match_across_modes() {
    for name in ["pb-sgemm", "rod-bp", "pb-spmv", "tpcU-q8", "tpcC-q9"] {
        let app = subcore_workloads::app_by_name(name).expect("registry app");
        for design in [Design::Baseline, Design::Rba, Design::FullyConnected, Design::BankStealing]
        {
            let cfg = design.config(&test_gpu());
            assert_bit_exact(&cfg, &design.policies(), &app, &format!("{name}/{}", design.label()));
        }
    }
}

/// The full acceptance sweep: every registry app (all 112, including both
/// TPC-H suites) under every headline design, both modes, whole-`RunStats`
/// equality. Too slow for the default suite — run it explicitly:
///
/// ```text
/// cargo test --release -p subcore-integration --test engine_modes -- --ignored
/// ```
#[test]
#[ignore = "exhaustive 112-app x 6-design sweep; run with --release and -- --ignored"]
fn exhaustive_registry_bit_exactness() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let apps = subcore_workloads::all_apps();
    let designs = [
        Design::Baseline,
        Design::Rba,
        Design::Srr,
        Design::Shuffle,
        Design::ShuffleRba,
        Design::FullyConnected,
    ];
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get());
    std::thread::scope(|s| {
        for _ in 0..workers.min(apps.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(app) = apps.get(i) else { break };
                for design in designs {
                    let cfg = design.config(&test_gpu());
                    let label = format!("{}/{}", app.name(), design.label());
                    assert_bit_exact(&cfg, &design.policies(), app, &label);
                }
            });
        }
    });
}

/// How the engine ran surfaces through the `EngineReport` side-channel —
/// never through `RunStats`, which stays bit-identical. The fast path has
/// no full-scan fallback left, so both window counters read 0 in either
/// mode.
#[test]
fn engine_report_names_the_mode_without_touching_stats() {
    use subcore_engine::simulate_app_reported;
    let app = fma_microbenchmark(FmaLayout::Unbalanced, 4, 1024);
    let policies = Policies::hardware_baseline();
    let run = |mode| {
        simulate_app_reported(&test_gpu().with_engine_mode(mode), &policies, &app)
            .expect("simulates")
    };
    let (stats, report) = run(EngineMode::Adaptive);
    let (ref_stats, ref_report) = run(EngineMode::Reference);
    assert_eq!((report.mode, ref_report.mode), (EngineMode::Adaptive, EngineMode::Reference));
    for r in [report, ref_report] {
        assert_eq!((r.adaptive_windows, r.adaptive_fallbacks), (0, 0), "no controller left");
    }
    assert_eq!(stats, ref_stats, "the report is a side-channel; stats stay bit-exact");
}

/// The multi-tenant dispatcher degenerates to the single-app path: one
/// tenant owning every SM produces **bit-identical** aggregate `RunStats`
/// (after dropping the tenant breakdown, which `simulate_app` never
/// emits) in every engine mode. This is the differential gate for the
/// engine's per-tenant main-loop refactor.
#[test]
fn single_tenant_full_set_is_bit_exact_across_modes() {
    let app = fma_microbenchmark(FmaLayout::Unbalanced, 4, 1024);
    for design in [Design::Baseline, Design::Rba, Design::Shuffle] {
        let base = design.config(&test_gpu());
        let policies = design.policies();
        for mode in [EngineMode::Reference, EngineMode::Adaptive] {
            let cfg = base.clone().with_engine_mode(mode);
            let solo = simulate_app(&cfg, &policies, &app).expect("solo simulates");
            let runs =
                [TenantRun { spec: TenantSpec::new(app.clone()), sm_set: SmSet::all(cfg.num_sms) }];
            let mut tenant = simulate_tenants(&cfg, &policies, &runs).expect("tenant simulates");
            assert_eq!(tenant.tenants.len(), 1, "one tenant breakdown");
            tenant.tenants.clear();
            assert_eq!(
                tenant,
                solo,
                "{}/{:?}: tenant path diverged from simulate_app",
                design.label(),
                mode
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Rigid partition allocation is a pure function of its inputs and
    /// covers every SM exactly once (no gaps, no overlaps) whenever there
    /// are at least as many SMs as tenants.
    #[test]
    fn rigid_allocation_is_deterministic_and_covers_every_sm(
        num_sms in 1u32..33,
        tenants in 1usize..9,
        raw_demands in proptest::prop::collection::vec(0u64..1_000_000_000, 1..9),
    ) {
        let demands: Vec<f64> = raw_demands.iter().map(|&d| d as f64).collect();
        for policy in PARTITION_POLICIES {
            let demands = &demands[..tenants.min(demands.len())];
            let a = policy.allocate(num_sms, demands);
            let b = policy.allocate(num_sms, demands);
            prop_assert_eq!(&a, &b, "{} allocation must be deterministic", policy.label());
            prop_assert_eq!(a.len(), demands.len(), "one set per tenant");
            if demands.len() <= num_sms as usize {
                let mut seen = vec![false; num_sms as usize];
                for set in &a {
                    prop_assert!(!set.is_empty(), "{}: no empty partitions", policy.label());
                    for &sm in set.ids() {
                        prop_assert!(
                            !std::mem::replace(&mut seen[sm as usize], true),
                            "{}: SM {} assigned twice", policy.label(), sm
                        );
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "{}: every SM covered", policy.label());
            }
        }
    }
}

/// Multi-kernel apps cross kernel boundaries (and the inter-kernel drain,
/// a guaranteed quiescent span) without divergence.
#[test]
fn multi_kernel_apps_match_across_modes() {
    let mut a = KernelParams::base("a");
    a.blocks = 3;
    a.imbalance = Imbalance::Ramp { max_factor: 6 };
    let mut b = KernelParams::base("b");
    b.blocks = 2;
    b.mix = Mix::streaming();
    let app = AppParams { name: "multi".into(), suite: Suite::Micro, kernels: vec![a, b] }.build();
    assert_bit_exact(&test_gpu(), &Policies::hardware_baseline(), &app, "multi-kernel");
}
