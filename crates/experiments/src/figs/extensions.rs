//! Beyond-the-paper extension studies, quantifying the design alternatives
//! §VII argues about qualitatively:
//!
//! * **idealized work stealing** — §VII dismisses inter-sub-core warp
//!   migration as prohibitively expensive (the register file must move).
//!   We model it with an optimistic register-copy penalty and show hashed
//!   assignment captures most of its benefit at none of its cost;
//! * **warp-level deallocation** (Xiang et al. \[58\]) — frees a warp's slot
//!   and registers at exit. The paper argues it cannot fix sub-core
//!   imbalance because assignment is still static; the numbers agree;
//! * **Kepler-style dual issue** — widening each scheduler's issue slot
//!   attacks the same single-scheduler bottleneck from the issue side;
//! * **memory-system options** — MSHR merging and register-file write-port
//!   contention, to show the headline results are robust to both.

use crate::report::Table;
use crate::runner::{run_design, speedup, suite_base, tpch_base};
use crate::sweep::{append_summaries, fill_table};
use subcore_engine::simulate_app;
use subcore_isa::App;
use subcore_sched::Design;
use subcore_workloads::{fma_unbalanced_scaled, tpch_query, Imbalance, KernelParams, Mix};

/// An imbalanced kernel *without* a trailing block barrier and with a
/// warp-length ramp (every sub-core gets a mix of short and long warps):
/// short warps exit early, so warp-level deallocation has real registers
/// and slots to reclaim. The registry workloads all barrier before
/// exiting, which is why warp-dealloc shows exactly 1.0 on them — the
/// paper's argument in its sharpest form; this app is its best case.
fn barrier_free_imbalanced() -> App {
    let mut p = KernelParams::base("nobar-ramp");
    p.blocks = 96;
    // Two-warp blocks: a freed pair of sub-core slots admits a whole new
    // block, so early exits translate into occupancy instead of waiting on
    // the block's slowest sub-core.
    p.warps_per_block = 4;
    p.regs_per_thread = 64; // register-limited occupancy: slots matter
    p.reg_span = 12;
    p.mix = Mix { iadd: 3, load_irregular: 3, fadd: 2, ..Mix::irregular() };
    p.mem.irregular_span = 1 << 15;
    p.body_len = 8;
    p.iters = 8;
    p.imbalance = Imbalance::Ramp { max_factor: 12 };
    p.end_barrier = false;
    subcore_workloads::AppParams::single("nobar-ramp", subcore_isa::Suite::Micro, p).build()
}

/// Imbalance-recovery comparison: hashed assignment vs. idealized work
/// stealing vs. warp-level deallocation.
pub fn imbalance_mechanisms() -> Table {
    let mut table = Table::new(
        "ext_imbalance_mechanisms",
        "Imbalance recovery: hashed assignment vs. stealing vs. warp-dealloc",
        vec![
            "srr".into(),
            "shuffle".into(),
            "work-stealing".into(),
            "warp-dealloc".into(),
            "steal+dealloc".into(),
        ],
    );
    let mut apps: Vec<App> =
        [2u32, 8, 32].iter().map(|&s| fma_unbalanced_scaled(8, 96, s)).collect();
    apps.push(tpch_query(8, false));
    apps.push(tpch_query(9, true));
    apps.push(barrier_free_imbalanced());
    fill_table(
        &mut table,
        apps,
        |app| app.name().to_owned(),
        |app| {
            let base_cfg = if app.name().starts_with("tpc") { tpch_base() } else { suite_base() };
            let base = run_design(&base_cfg, Design::Baseline, app);
            let mut steal_cfg = base_cfg.clone();
            steal_cfg.work_stealing = true;
            let mut dealloc_cfg = base_cfg.clone();
            dealloc_cfg.warp_level_dealloc = true;
            let mut both_cfg = base_cfg.clone();
            both_cfg.work_stealing = true;
            both_cfg.warp_level_dealloc = true;
            vec![
                speedup(&base, &run_design(&base_cfg, Design::Srr, app)),
                speedup(&base, &run_design(&base_cfg, Design::Shuffle, app)),
                speedup(&base, &run_design(&steal_cfg, Design::Baseline, app)),
                speedup(&base, &run_design(&dealloc_cfg, Design::Baseline, app)),
                speedup(&base, &run_design(&both_cfg, Design::Baseline, app)),
            ]
        },
    );
    append_summaries(&mut table);
    table
}

/// Kepler-style dual issue vs. (and combined with) SRR on imbalanced
/// workloads.
pub fn dual_issue() -> Table {
    let mut table = Table::new(
        "ext_dual_issue",
        "Dual-issue schedulers vs. hashed assignment on imbalanced apps",
        vec!["dual-issue".into(), "srr".into(), "srr+dual".into()],
    );
    let mut apps: Vec<App> = [4u32, 16].iter().map(|&s| fma_unbalanced_scaled(8, 96, s)).collect();
    apps.push(tpch_query(8, false));
    fill_table(
        &mut table,
        apps,
        |app| app.name().to_owned(),
        |app| {
            let base_cfg = if app.name().starts_with("tpc") { tpch_base() } else { suite_base() };
            let base = run_design(&base_cfg, Design::Baseline, app);
            let mut dual_cfg = base_cfg.clone();
            dual_cfg.issue_width = 2;
            vec![
                speedup(&base, &run_design(&dual_cfg, Design::Baseline, app)),
                speedup(&base, &run_design(&base_cfg, Design::Srr, app)),
                speedup(&base, &run_design(&dual_cfg, Design::Srr, app)),
            ]
        },
    );
    append_summaries(&mut table);
    table
}

/// Robustness of the headline RBA result to memory-system modeling
/// choices: MSHR merging on, write-port contention on, both.
pub fn memory_model_robustness() -> Table {
    let mut table = Table::new(
        "ext_memory_robustness",
        "RBA speedup under alternative memory/RF modeling choices",
        vec!["default".into(), "mshr".into(), "write-ports".into(), "both".into()],
    );
    let apps: Vec<App> = ["pb-mriq", "rod-srad", "cg-pgrnk", "ply-2Dcon"]
        .iter()
        .map(|n| subcore_workloads::app_by_name(n).expect("registry app"))
        .collect();
    fill_table(
        &mut table,
        apps,
        |app| app.name().to_owned(),
        |app| {
            let mut values = Vec::new();
            for (mshr, wp) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut cfg = suite_base();
                cfg.mshr_merging = mshr;
                cfg.rf_write_port_contention = wp;
                let base = run_design(&cfg, Design::Baseline, app);
                let rba = run_design(&cfg, Design::Rba, app);
                values.push(speedup(&base, &rba));
            }
            values
        },
    );
    append_summaries(&mut table);
    table
}

/// Warp-scheduler design space: where RBA sits relative to classic
/// policies (GTO, oldest-first, two-level, lagging-warp-first).
pub fn scheduler_comparison() -> Table {
    use subcore_engine::Policies;
    use subcore_sched::{LaggingWarpSelector, OldestFirstSelector, RbaSelector, TwoLevelSelector};

    let mut table = Table::new(
        "ext_scheduler_comparison",
        "Warp-scheduler policies on RF-sensitive apps (speedup over GTO)",
        vec!["oldest-first".into(), "two-level".into(), "lagging-first".into(), "rba".into()],
    );
    let apps: Vec<App> = ["pb-mriq", "rod-srad", "cg-pgrnk", "ply-3Dcon", "rod-bp"]
        .iter()
        .map(|n| subcore_workloads::app_by_name(n).expect("registry app"))
        .collect();
    fill_table(
        &mut table,
        apps,
        |app| app.name().to_owned(),
        |app| {
            let base = run_design(&suite_base(), Design::Baseline, app);
            let mut values = Vec::new();
            let selectors: Vec<Box<subcore_engine::SelectorFactory>> = vec![
                Box::new(|| Box::new(OldestFirstSelector::new())),
                Box::new(|| Box::new(TwoLevelSelector::new(4))),
                Box::new(|| Box::new(LaggingWarpSelector::new())),
                Box::new(|| Box::new(RbaSelector::new())),
            ];
            for selector in selectors {
                let policies = Policies::new(
                    selector,
                    Box::new(|_| Box::new(subcore_engine::RoundRobinAssigner::new())),
                );
                let stats = simulate_app(&suite_base(), &policies, app)
                    .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
                values.push(speedup(&base, &stats));
            }
            values
        },
    );
    append_summaries(&mut table);
    table
}
