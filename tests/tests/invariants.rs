//! Property-based tests of simulator invariants: for randomly generated
//! workloads and any scheduling design, the engine must conserve work, stay
//! deterministic, and respect structural bounds.

use proptest::prelude::*;
use subcore_engine::{simulate_app, Connectivity, EngineMode};
use subcore_integration::test_gpu;
use subcore_isa::Suite;
use subcore_sched::Design;
use subcore_workloads::{AppParams, Imbalance, KernelParams, MemShape, Mix};

/// Strategy: a small but diverse random kernel.
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

    /// Every dynamic instruction of the grid is issued exactly once, under
    /// every design.
    #[test]
    fn work_is_conserved(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let expected = app.total_dynamic_instructions();
        let cfg = design.config(&test_gpu());
        let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        prop_assert_eq!(stats.instructions, expected);
        prop_assert!(stats.cycles > 0);
    }

    /// Simulation is bit-deterministic: identical runs give identical
    /// cycles and per-scheduler issue counts.
    #[test]
    fn simulation_is_deterministic(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let cfg = design.config(&test_gpu());
        let a = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        let b = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.issued_per_scheduler, b.issued_per_scheduler);
        prop_assert_eq!(a.rf_reads, b.rf_reads);
    }

    /// Structural throughput bounds hold: per cycle, each scheduler issues
    /// at most its width, and each register bank grants at most one read.
    #[test]
    fn throughput_bounds_hold(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let cfg = design.config(&test_gpu());
        let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        let issue_slots = u64::from(cfg.subcores_per_sm)
            * u64::from(cfg.num_sms)
            * stats.cycles;
        prop_assert!(stats.instructions <= issue_slots, "issue width bound");
        let bank_slots = u64::from(cfg.total_banks()) * u64::from(cfg.num_sms) * stats.cycles;
        prop_assert!(stats.rf_reads <= bank_slots, "bank bandwidth bound");
        // Reads are bounded by operands: at most 3 per instruction.
        prop_assert!(stats.rf_reads <= 3 * stats.instructions);
    }

    /// The per-scheduler issue counts sum to the total, and the layout
    /// matches the connectivity (4 schedulers partitioned, 1 fully
    /// connected).
    #[test]
    fn scheduler_accounting_consistent(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let cfg = design.config(&test_gpu());
        let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        let per_sched: u64 = stats.issued_per_scheduler.iter().flatten().sum();
        prop_assert_eq!(per_sched, stats.instructions);
        let domains = stats.issued_per_scheduler[0].len();
        match cfg.connectivity {
            Connectivity::Partitioned => prop_assert_eq!(domains, 4),
            Connectivity::FullyConnected => prop_assert_eq!(domains, 1),
        }
    }

    /// Every active scheduler-cycle is attributed exactly once: it either
    /// issued or was charged to one stall bucket, so
    /// `issue_cycles + stalls.total() == active_cycles × domains` under
    /// every design and workload.
    #[test]
    fn stall_accounting_covers_active_cycles(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let cfg = design.config(&test_gpu());
        let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
        let domains = stats.issued_per_scheduler[0].len() as u64;
        prop_assert_eq!(
            stats.issue_cycles + stats.stalls.total(),
            stats.active_cycles * domains,
            "active cycles must be exactly partitioned into issue and stall cycles"
        );
        // A cycle issuing n instructions counts once, so issue cycles never
        // exceed instructions (bank-steal issues bypass the scheduler and
        // are not issue cycles).
        prop_assert!(stats.issue_cycles <= stats.instructions);
        prop_assert!(stats.active_cycles <= stats.cycles * u64::from(cfg.num_sms));
    }

    /// The accounting invariants hold under *both* engine modes — in
    /// particular across idle-cycle skip-ahead boundaries, where the
    /// fast engine synthesizes whole stall spans at once: every
    /// synthesized cycle must still land in exactly one stall bucket per
    /// domain.
    #[test]
    fn stall_accounting_survives_skip_ahead(kernel in arb_kernel(), design in arb_design()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        for mode in [EngineMode::Adaptive, EngineMode::Reference] {
            let cfg = design.config(&test_gpu()).with_engine_mode(mode);
            let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
            let domains = stats.issued_per_scheduler[0].len() as u64;
            prop_assert_eq!(
                stats.issue_cycles + stats.stalls.total(),
                stats.active_cycles * domains,
                "mode {:?}: active cycles must partition into issue and stalls", mode
            );
            prop_assert_eq!(stats.instructions, app.total_dynamic_instructions());
        }
    }

    /// Balanced assignment policies never differ from the baseline in
    /// total work, only in time.
    #[test]
    fn assignment_changes_time_not_work(kernel in arb_kernel()) {
        let app = AppParams::single("prop", Suite::Micro, kernel).build();
        let base = simulate_app(
            &Design::Baseline.config(&test_gpu()),
            &Design::Baseline.policies(),
            &app,
        )
        .expect("simulates");
        for design in [Design::Srr, Design::Shuffle] {
            let s = simulate_app(&design.config(&test_gpu()), &design.policies(), &app)
                .expect("simulates");
            prop_assert_eq!(s.instructions, base.instructions);
        }
    }
}

/// The issue/stall accounting invariant on real registry workloads (the
/// property test above covers random kernels; this pins it on the suite
/// apps each scheduler actually runs in the figures).
#[test]
fn stall_accounting_holds_on_registry_apps() {
    for name in ["pb-sgemm", "rod-bp"] {
        let app = subcore_workloads::app_by_name(name).expect("registry app");
        for design in [Design::Baseline, Design::Rba, Design::FullyConnected, Design::BankStealing]
        {
            let cfg = design.config(&test_gpu());
            let stats = simulate_app(&cfg, &design.policies(), &app).expect("simulates");
            let domains = stats.issued_per_scheduler[0].len() as u64;
            assert_eq!(
                stats.issue_cycles + stats.stalls.total(),
                stats.active_cycles * domains,
                "{name} under {}: scheduler accounting drift",
                design.label()
            );
        }
    }
}
