//! Top-level GPU: thread-block scheduler, kernel sequencing, and the main
//! simulation loop.

use crate::config::{Connectivity, EngineMode, GpuConfig};
use crate::policy::Policies;
use crate::stats::{RunStats, SimError};
use crate::tenant::TenantCase;
use subcore_isa::{App, Kernel};
use subcore_trace::TraceSink;

/// How the engine actually ran a simulation. Kept deliberately outside
/// [`RunStats`] — results must stay bit-identical across modes, and this
/// report is exactly the part that is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineReport {
    /// The configured engine mode.
    pub mode: EngineMode,
    /// Always 0: the density controller these two counted for is gone (the
    /// readiness masks need no full-scan fallback). The harness no longer
    /// carries them; the fields stay because `benchmark/` constructs and
    /// sums them.
    pub adaptive_windows: u64,
    /// Always 0; see `adaptive_windows`.
    pub adaptive_fallbacks: u64,
}

/// Simulates a whole application (its kernels run back-to-back) and returns
/// aggregate statistics.
///
/// # Errors
///
/// Returns [`SimError::KernelUnschedulable`] if any kernel's per-block
/// resource demand cannot fit on one SM under a balanced warp assignment,
/// and [`SimError::CycleLimitExceeded`] if the workload fails to drain
/// within [`GpuConfig::max_cycles`].
///
/// # Example
///
/// ```
/// use subcore_engine::{simulate_app, GpuConfig, Policies};
/// use subcore_isa::{fma_kernel, App, Suite};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = App::new("demo", Suite::Micro, vec![fma_kernel("fma", 4, 8, 64)]);
/// let cfg = GpuConfig::volta_v100().with_sms(2);
/// let stats = simulate_app(&cfg, &Policies::hardware_baseline(), &app)?;
/// assert!(stats.cycles > 0 && stats.instructions > 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate_app(cfg: &GpuConfig, policies: &Policies, app: &App) -> Result<RunStats, SimError> {
    run_app(cfg, policies, app, Vec::new())
}

/// [`simulate_app`] that also returns the [`EngineReport`] describing how
/// the engine ran. The statistics are bit-identical to [`simulate_app`]'s.
///
/// # Errors
///
/// Same as [`simulate_app`].
pub fn simulate_app_reported(
    cfg: &GpuConfig,
    policies: &Policies,
    app: &App,
) -> Result<(RunStats, EngineReport), SimError> {
    let stats = run_app(cfg, policies, app, Vec::new())?;
    Ok((stats, EngineReport { mode: cfg.engine_mode, adaptive_windows: 0, adaptive_fallbacks: 0 }))
}

/// [`simulate_app`] with caller-supplied probe-event sinks.
///
/// Every sink observes the full event stream of [`StatsConfig::trace_sm`]
/// (plus [`TraceEvent::Occupancy`] transitions of every SM). When
/// [`StatsConfig::trace_window`] is non-zero an internal
/// [`WindowAggregator`] also listens and its series is attached to
/// [`RunStats::windowed`]; with `trace_window == 0` and no external sinks
/// the probe points are disabled and this is exactly [`simulate_app`].
///
/// [`StatsConfig::trace_sm`]: crate::config::StatsConfig::trace_sm
/// [`StatsConfig::trace_window`]: crate::config::StatsConfig::trace_window
/// [`TraceEvent::Occupancy`]: subcore_trace::TraceEvent::Occupancy
/// [`WindowAggregator`]: subcore_trace::WindowAggregator
///
/// # Errors
///
/// Same as [`simulate_app`].
pub fn simulate_app_traced(
    cfg: &GpuConfig,
    policies: &Policies,
    app: &App,
    sinks: Vec<&mut dyn TraceSink>,
) -> Result<RunStats, SimError> {
    run_app(cfg, policies, app, sinks)
}

/// The single-app entry point: validates, then runs the app as the
/// degenerate one-tenant case of the multi-tenant dispatcher — one tenant
/// arriving at cycle 0 that owns every SM. `crate::tenant::run_cases` is
/// the engine's only main loop; results are bit-identical to the
/// pre-refactor single-app engine (the per-tenant breakdown is suppressed
/// so `RunStats` equality holds for cached and archived results).
fn run_app(
    cfg: &GpuConfig,
    policies: &Policies,
    app: &App,
    sinks: Vec<&mut dyn TraceSink>,
) -> Result<RunStats, SimError> {
    cfg.validate();
    for kernel in app.kernels() {
        check_schedulable(cfg, kernel)?;
    }
    let case = TenantCase {
        name: app.name(),
        app,
        arrival: 0,
        deadline: None,
        sms: (0..cfg.num_sms as usize).collect(),
    };
    crate::tenant::run_cases(cfg, policies, std::slice::from_ref(&case), sinks, false)
}

/// Simulates a single kernel (wrapped in a one-kernel app).
///
/// # Errors
///
/// Same as [`simulate_app`].
pub fn simulate_kernel(
    cfg: &GpuConfig,
    policies: &Policies,
    kernel: Kernel,
) -> Result<RunStats, SimError> {
    let name = kernel.name().to_owned();
    let app = App::new(name, subcore_isa::Suite::Micro, vec![kernel]);
    simulate_app(cfg, policies, &app)
}

pub(crate) fn check_schedulable(cfg: &GpuConfig, kernel: &Kernel) -> Result<(), SimError> {
    let err =
        |reason: String| SimError::KernelUnschedulable { kernel: kernel.name().to_owned(), reason };
    if kernel.warps_per_block() > cfg.max_warps_per_sm {
        return Err(err(format!(
            "block has {} warps but the SM holds {}",
            kernel.warps_per_block(),
            cfg.max_warps_per_sm
        )));
    }
    if kernel.shared_mem_bytes() > cfg.shared_mem_per_sm {
        return Err(err(format!(
            "block needs {} B of shared memory but the SM has {} B",
            kernel.shared_mem_bytes(),
            cfg.shared_mem_per_sm
        )));
    }
    let domains = match cfg.connectivity {
        Connectivity::Partitioned => cfg.subcores_per_sm,
        Connectivity::FullyConnected => 1,
    };
    let regs_capacity = match cfg.connectivity {
        Connectivity::Partitioned => cfg.rf_regs_per_subcore,
        Connectivity::FullyConnected => cfg.rf_regs_per_subcore * cfg.subcores_per_sm,
    };
    // Balanced assigners place at most ceil(warps / domains) per sub-core.
    let per_domain = kernel.warps_per_block().div_ceil(domains);
    if per_domain * u32::from(kernel.regs_per_thread()) > regs_capacity {
        return Err(err(format!(
            "{} warps × {} regs/thread exceeds the {}-register sub-core file",
            per_domain,
            kernel.regs_per_thread(),
            regs_capacity
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Connectivity;
    use subcore_isa::{fma_kernel, App, KernelBuilder, ProgramBuilder, Reg, Suite};

    fn small_cfg() -> GpuConfig {
        GpuConfig::volta_v100().with_sms(1)
    }

    fn run(cfg: &GpuConfig, kernel: subcore_isa::Kernel) -> RunStats {
        simulate_kernel(cfg, &Policies::hardware_baseline(), kernel).expect("simulation runs")
    }

    #[test]
    fn single_warp_fma_executes_all_instructions() {
        let k = fma_kernel("one", 1, 1, 100);
        let stats = run(&small_cfg(), k);
        assert_eq!(stats.instructions, 102); // 100 fma + barrier + exit
        assert!(stats.cycles > 200, "dependent FMA chain serializes: {}", stats.cycles);
    }

    #[test]
    fn more_warps_improve_throughput() {
        let one = run(&small_cfg(), fma_kernel("w1", 1, 1, 200));
        let eight = run(&small_cfg(), fma_kernel("w8", 1, 8, 200));
        // 8 warps do 8x the work in far less than 8x the time.
        assert!(eight.instructions > one.instructions * 7);
        assert!(
            eight.cycles < one.cycles * 3,
            "8 warps ({}) should overlap, 1 warp took {}",
            eight.cycles,
            one.cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&small_cfg(), fma_kernel("d", 7, 8, 64));
        let b = run(&small_cfg(), fma_kernel("d", 7, 8, 64));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.issued_per_scheduler, b.issued_per_scheduler);
    }

    #[test]
    fn round_robin_balances_uniform_warps() {
        let stats = run(&small_cfg(), fma_kernel("bal", 8, 8, 64));
        let cv = stats.issue_cv().expect("partitioned run has CV");
        assert!(cv < 0.05, "uniform warps should balance, cv = {cv}");
    }

    #[test]
    fn fully_connected_runs_and_is_not_slower() {
        let k = fma_kernel("fc", 8, 8, 128);
        let part = run(&small_cfg(), k.clone());
        let fc = run(&small_cfg().fully_connected(), k);
        assert_eq!(part.instructions, fc.instructions);
        assert!(fc.cycles <= part.cycles + part.cycles / 10);
    }

    #[test]
    fn barrier_synchronizes_block() {
        // One warp computes, others wait at the barrier; all must finish.
        let long = ProgramBuilder::new()
            .repeat(500, |b| {
                b.fma(Reg(0), Reg(0), Reg(1), Reg(2));
            })
            .barrier()
            .build();
        let short = ProgramBuilder::new().barrier().build();
        let k = KernelBuilder::new("bar")
            .blocks(1)
            .regs_per_thread(8)
            .per_warp_programs(vec![long, short.clone(), short.clone(), short])
            .build();
        let stats = run(&small_cfg(), k);
        assert_eq!(stats.instructions, 500 + 4 + 4); // fmas + barriers + exits
    }

    #[test]
    fn multi_kernel_apps_run_sequentially() {
        let app = App::new(
            "two",
            Suite::Micro,
            vec![fma_kernel("a", 2, 4, 32), fma_kernel("b", 2, 4, 32)],
        );
        let stats = simulate_app(&small_cfg(), &Policies::hardware_baseline(), &app).unwrap();
        assert_eq!(stats.kernel_end_cycles.len(), 2);
        assert!(stats.kernel_end_cycles[0] < stats.kernel_end_cycles[1]);
        assert_eq!(stats.cycles, *stats.kernel_end_cycles.last().unwrap());
    }

    #[test]
    fn memory_kernel_touches_the_hierarchy() {
        let p = ProgramBuilder::new()
            .repeat(32, |b| {
                b.load_global(Reg(3), Reg(4), 0, 128);
                b.fma(Reg(0), Reg(0), Reg(3), Reg(2));
            })
            .barrier()
            .build();
        let k = KernelBuilder::new("mem")
            .blocks(4)
            .warps_per_block(8)
            .regs_per_thread(16)
            .uniform_program(p)
            .build();
        let stats = run(&small_cfg(), k);
        assert!(stats.mem.l1_misses > 0, "streaming loads must miss");
        assert!(stats.cycles > 0);
    }

    #[test]
    fn shared_memory_conflicts_slow_execution() {
        let mk = |degree: u8| {
            let p = ProgramBuilder::new()
                .repeat(64, |b| {
                    b.load_shared(Reg(3), Reg(4), degree);
                    b.fma(Reg(0), Reg(0), Reg(3), Reg(2));
                })
                .barrier()
                .build();
            KernelBuilder::new("sh")
                .blocks(2)
                .warps_per_block(8)
                .regs_per_thread(16)
                .shared_mem_bytes(4096)
                .uniform_program(p)
                .build()
        };
        let free = run(&small_cfg(), mk(1));
        let conflicted = run(&small_cfg(), mk(32));
        assert!(
            conflicted.cycles > free.cycles,
            "32-way conflicts ({}) must be slower than conflict-free ({})",
            conflicted.cycles,
            free.cycles
        );
    }

    #[test]
    fn oversized_block_is_rejected() {
        let k = fma_kernel("fat", 1, 8, 4);
        let mut cfg = small_cfg();
        cfg.max_warps_per_sm = 4;
        let err = simulate_kernel(&cfg, &Policies::hardware_baseline(), k).unwrap_err();
        assert!(matches!(err, SimError::KernelUnschedulable { .. }));
    }

    #[test]
    fn register_pressure_is_rejected_when_impossible() {
        let p = ProgramBuilder::new().barrier().build();
        let k = KernelBuilder::new("regs")
            .blocks(1)
            .warps_per_block(16)
            .regs_per_thread(200)
            .uniform_program(p)
            .build();
        // 4 warps/sub-core × 200 regs = 800 > 512.
        let err = simulate_kernel(&small_cfg(), &Policies::hardware_baseline(), k).unwrap_err();
        assert!(matches!(err, SimError::KernelUnschedulable { .. }));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let mut cfg = small_cfg();
        cfg.max_cycles = 10;
        let err =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), fma_kernel("long", 4, 8, 4096))
                .unwrap_err();
        assert_eq!(err, SimError::CycleLimitExceeded { limit: 10 });
    }

    #[test]
    fn many_blocks_on_many_sms_scale() {
        let k = fma_kernel("scale", 64, 8, 64);
        let one = run(&small_cfg(), k.clone());
        let four = run(&GpuConfig::volta_v100().with_sms(4), k);
        assert!(
            four.cycles * 3 < one.cycles * 2,
            "4 SMs ({}) should be well under 2/3 the single-SM time ({})",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn rf_trace_recorded_when_enabled() {
        let mut cfg = small_cfg();
        cfg.stats.record_rf_trace = true;
        let stats =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), fma_kernel("trace", 2, 8, 64))
                .unwrap();
        assert_eq!(stats.rf_read_trace.len() as u64, stats.cycles);
        assert!(stats.rf_read_trace.iter().any(|&g| g > 0));
    }

    #[test]
    fn fully_connected_single_domain_stats() {
        let stats = run(&small_cfg().fully_connected(), fma_kernel("fc1", 4, 8, 32));
        assert_eq!(stats.issued_per_scheduler[0].len(), 1);
        assert_eq!(stats.issue_cv(), None);
    }

    #[test]
    fn bank_stealing_runs_and_preserves_work() {
        let mut cfg = small_cfg();
        cfg.bank_stealing = true;
        let base = run(&small_cfg(), fma_kernel("bs", 4, 8, 128));
        let steal = run(&cfg, fma_kernel("bs", 4, 8, 128));
        assert_eq!(base.instructions, steal.instructions);
    }

    #[test]
    fn connectivity_affects_domain_count() {
        let cfg = small_cfg();
        assert_eq!(cfg.connectivity, Connectivity::Partitioned);
        let stats = run(&cfg, fma_kernel("dc", 1, 4, 16));
        assert_eq!(stats.issued_per_scheduler[0].len(), 4);
    }
}

#[cfg(test)]
mod paper_behavior_tests {
    use super::*;
    use subcore_isa::{KernelBuilder, ProgramBuilder};

    /// Builds the paper's Fig. 4 microbenchmark: `compute` maps warp-in-block
    /// index → does it run the FMA loop (true) or exit immediately (false).
    fn fma_layout(name: &str, blocks: u32, layout: &[bool], fmas: u32) -> subcore_isa::Kernel {
        let long = ProgramBuilder::new()
            .repeat(fmas, |b| {
                b.fma(
                    subcore_isa::Reg(0),
                    subcore_isa::Reg(0),
                    subcore_isa::Reg(1),
                    subcore_isa::Reg(2),
                );
            })
            .barrier()
            .build();
        let empty = ProgramBuilder::new().barrier().build();
        let programs =
            layout.iter().map(|&c| if c { long.clone() } else { empty.clone() }).collect();
        KernelBuilder::new(name)
            .blocks(blocks)
            .regs_per_thread(8)
            .per_warp_programs(programs)
            .build()
    }

    #[test]
    fn unbalanced_fma_is_nearly_4x_slower_on_partitioned_sm() {
        // Fig. 3/4: baseline = 8 compute warps; unbalanced = the same 8
        // compute warps at warp ids ≡ 0 (mod 4) among 32 warps, so
        // round-robin pins them all to sub-core 0.
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let baseline = fma_layout("base", 4, &[true; 8], 1024);
        let mut unbal_layout = [false; 32];
        for i in 0..8 {
            unbal_layout[i * 4] = true;
        }
        let unbalanced = fma_layout("unbal", 4, &unbal_layout, 1024);
        let mut bal_layout = [false; 32];
        bal_layout[..8].fill(true);
        let balanced = fma_layout("bal", 4, &bal_layout, 1024);

        let p = Policies::hardware_baseline();
        let tb = simulate_kernel(&cfg, &p, baseline).unwrap().cycles as f64;
        let tu = simulate_kernel(&cfg, &p, unbalanced).unwrap().cycles as f64;
        let tl = simulate_kernel(&cfg, &p, balanced).unwrap().cycles as f64;
        let slowdown = tu / tb;
        assert!(
            slowdown > 3.0 && slowdown < 4.5,
            "A100 measures 3.9x; got {slowdown:.2}x (base {tb}, unbal {tu})"
        );
        assert!(
            (tl / tb) < 1.15,
            "balanced layout matches baseline on partitioned SM, got {:.2}x",
            tl / tb
        );
    }

    #[test]
    fn unbalanced_fma_is_smoothed_by_fully_connected_sm() {
        let cfg = GpuConfig::volta_v100().with_sms(1).fully_connected();
        let baseline = fma_layout("base", 4, &[true; 8], 1024);
        let mut unbal_layout = [false; 32];
        for i in 0..8 {
            unbal_layout[i * 4] = true;
        }
        let unbalanced = fma_layout("unbal", 4, &unbal_layout, 1024);
        let p = Policies::hardware_baseline();
        let tb = simulate_kernel(&cfg, &p, baseline).unwrap().cycles as f64;
        let tu = simulate_kernel(&cfg, &p, unbalanced).unwrap().cycles as f64;
        assert!(
            (tu / tb) < 1.2,
            "Kepler-like monolithic SM shows no imbalance penalty, got {:.2}x",
            tu / tb
        );
    }
}

#[cfg(test)]
mod effect_tests {
    //! The paper's §I taxonomy lists four orthogonal sub-core effects. The
    //! headline two (bank conflicts, issue imbalance) are covered above and
    //! in `paper_behavior_tests`; these tests exercise the remaining two.

    use super::*;
    use subcore_isa::{KernelBuilder, ProgramBuilder, Reg};

    /// Effect #3: warps with diverse execution-unit demands. All
    /// tensor-core-heavy warps land on sub-core 0 under round robin, so its
    /// tensor unit serializes while the other three sub-cores' tensor units
    /// idle; the fully-connected SM pools all four.
    #[test]
    fn execution_unit_diversity_is_smoothed_by_fully_connected() {
        let tensor = ProgramBuilder::new()
            .repeat(256, |b| {
                b.hmma(Reg(8), Reg(0), Reg(1), Reg(2));
            })
            .barrier()
            .build();
        let alu = ProgramBuilder::new()
            .repeat(64, |b| {
                b.iadd(Reg(9), Reg(3), Reg(4));
            })
            .barrier()
            .build();
        let programs =
            (0..16u32).map(|w| if w % 4 == 0 { tensor.clone() } else { alu.clone() }).collect();
        let kernel = KernelBuilder::new("diverse")
            .blocks(4)
            .regs_per_thread(16)
            .per_warp_programs(programs)
            .build();
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let p = Policies::hardware_baseline();
        let part = simulate_kernel(&cfg, &p, kernel.clone()).unwrap();
        let fc = simulate_kernel(&cfg.fully_connected(), &p, kernel).unwrap();
        assert!(
            (part.cycles as f64) > 1.5 * fc.cycles as f64,
            "pooled tensor units should smooth diverse demand: partitioned {} vs fc {}",
            part.cycles,
            fc.cycles
        );
    }

    /// Effect #4 (occupancy flavor): register capacity bounds resident
    /// blocks per sub-core, which costs latency hiding on memory-bound
    /// kernels.
    #[test]
    fn register_capacity_limits_occupancy() {
        let mk = |regs: u16| {
            let p = ProgramBuilder::new()
                .repeat(24, |b| {
                    b.load_global_pattern(
                        Reg(8),
                        Reg(0),
                        subcore_isa::MemPattern::Irregular { region: 0, span_lines: 1 << 16 },
                    );
                    b.fma(Reg(9), Reg(1), Reg(2), Reg(3));
                })
                .barrier()
                .build();
            KernelBuilder::new("occ")
                .blocks(16)
                .warps_per_block(8)
                .regs_per_thread(regs)
                .uniform_program(p)
                .build()
        };
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let p = Policies::hardware_baseline();
        // 32 regs/thread: 8 blocks resident; 224 regs/thread: 1 block.
        let light = simulate_kernel(&cfg, &p, mk(32)).unwrap();
        let heavy = simulate_kernel(&cfg, &p, mk(224)).unwrap();
        assert!(
            heavy.cycles as f64 > 1.3 * light.cycles as f64,
            "register pressure should cost occupancy: {} vs {}",
            heavy.cycles,
            light.cycles
        );
    }

    /// A warp exiting while its siblings wait at a barrier must still
    /// release the barrier (CUDA semantics: exited threads don't count).
    #[test]
    fn barrier_released_when_nonparticipants_exit() {
        let waits = ProgramBuilder::new().barrier().build();
        let computes_then_exits = ProgramBuilder::new()
            .repeat(64, |b| {
                b.fma(Reg(0), Reg(0), Reg(1), Reg(2));
            })
            .build(); // no barrier: exits directly
        let kernel = KernelBuilder::new("bar-exit")
            .blocks(1)
            .regs_per_thread(8)
            .per_warp_programs(vec![waits.clone(), computes_then_exits, waits.clone(), waits])
            .build();
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let stats =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), kernel).expect("no deadlock");
        assert_eq!(stats.instructions, 3 + 64 + 4); // 3 barriers + 64 fma + 4 exits
    }

    /// Shared-memory capacity bounds resident blocks.
    #[test]
    fn shared_memory_limits_residency() {
        let p = ProgramBuilder::new()
            .repeat(128, |b| {
                b.load_shared(Reg(8), Reg(0), 1);
            })
            .barrier()
            .build();
        let mk = |bytes: u32| {
            KernelBuilder::new("smem")
                .blocks(8)
                .warps_per_block(4)
                .regs_per_thread(16)
                .shared_mem_bytes(bytes)
                .uniform_program(p.clone())
                .build()
        };
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let pol = Policies::hardware_baseline();
        let small = simulate_kernel(&cfg, &pol, mk(4 * 1024)).unwrap();
        let huge = simulate_kernel(&cfg, &pol, mk(96 * 1024)).unwrap(); // 1 block at a time
        assert!(
            huge.cycles > small.cycles,
            "serialized blocks must be slower: {} vs {}",
            huge.cycles,
            small.cycles
        );
    }
}

#[cfg(test)]
mod option_tests {
    //! Tests of the optional engine features: dual-issue, warp-level
    //! deallocation, idealized work stealing, RF write-port contention, and
    //! MSHR merging.

    use super::*;
    use subcore_isa::{fma_kernel, KernelBuilder, ProgramBuilder, Reg};

    fn unbalanced_kernel(blocks: u32, fmas: u32) -> subcore_isa::Kernel {
        let long = ProgramBuilder::new()
            .repeat(fmas, |b| {
                b.fma(Reg(0), Reg(0), Reg(1), Reg(2));
                b.fma(Reg(3), Reg(3), Reg(1), Reg(2));
                b.fma(Reg(4), Reg(4), Reg(1), Reg(2));
                b.fma(Reg(5), Reg(5), Reg(1), Reg(2));
            })
            .barrier()
            .build();
        let empty = ProgramBuilder::new().barrier().build();
        let programs =
            (0..32u32).map(|w| if w % 4 == 0 { long.clone() } else { empty.clone() }).collect();
        KernelBuilder::new("unbal")
            .blocks(blocks)
            .regs_per_thread(8)
            .per_warp_programs(programs)
            .build()
    }

    #[test]
    fn dual_issue_helps_single_scheduler_hotspots() {
        // All compute pinned to sub-core 0: its 1-wide issue is the
        // bottleneck; Kepler-style dual issue relieves it.
        let mut cfg = GpuConfig::volta_v100().with_sms(1);
        let single =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), unbalanced_kernel(2, 256))
                .unwrap();
        cfg.issue_width = 2;
        let dual = simulate_kernel(&cfg, &Policies::hardware_baseline(), unbalanced_kernel(2, 256))
            .unwrap();
        assert!(
            dual.cycles < single.cycles,
            "dual issue should relieve the hot scheduler: {} vs {}",
            dual.cycles,
            single.cycles
        );
    }

    #[test]
    fn work_stealing_recovers_imbalance() {
        let mut cfg = GpuConfig::volta_v100().with_sms(1);
        let base = simulate_kernel(&cfg, &Policies::hardware_baseline(), unbalanced_kernel(2, 256))
            .unwrap();
        cfg.work_stealing = true;
        let steal =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), unbalanced_kernel(2, 256))
                .unwrap();
        assert_eq!(base.instructions, steal.instructions, "work conserved");
        assert!(
            (steal.cycles as f64) < 0.6 * base.cycles as f64,
            "idle sub-cores should steal the pinned work: {} vs {}",
            steal.cycles,
            base.cycles
        );
    }

    #[test]
    fn warp_level_dealloc_improves_occupancy_turnover() {
        // Long and short warps in one block: block-granularity release
        // strands the short warps' slots; warp-level release reuses them.
        let mut cfg = GpuConfig::volta_v100().with_sms(1);
        let k = unbalanced_kernel(8, 128);
        let block_level = simulate_kernel(&cfg, &Policies::hardware_baseline(), k.clone()).unwrap();
        cfg.warp_level_dealloc = true;
        let warp_level = simulate_kernel(&cfg, &Policies::hardware_baseline(), k).unwrap();
        assert_eq!(block_level.instructions, warp_level.instructions);
        // Freed slots admit more blocks: occupancy turnover must not hurt,
        // and the paper's point stands — it does NOT fix the sub-core
        // imbalance (the long warps still all sit on sub-core 0).
        assert!(warp_level.cycles <= block_level.cycles);
        let cv = warp_level.issue_cv().expect("partitioned");
        assert!(cv > 0.5, "imbalance persists under warp-level dealloc: cv {cv:.2}");
    }

    #[test]
    fn write_port_contention_is_bounded() {
        // A mixed body avoids the pure-FMA dependence-chain resonance in
        // which delaying a grant by one cycle happens to *align* with the
        // FMA unit's initiation interval; even so, contention effects on
        // periodic code can cut either way, so this asserts a sane band
        // plus exact work conservation rather than strict monotonicity.
        let p = ProgramBuilder::new()
            .repeat(128, |b| {
                b.fma(Reg(8), Reg(0), Reg(2), Reg(4));
                b.iadd(Reg(9), Reg(1), Reg(3));
                b.fma(Reg(10), Reg(2), Reg(4), Reg(0));
                b.iadd(Reg(11), Reg(3), Reg(5));
                b.mufu(Reg(12), Reg(0));
            })
            .barrier()
            .build();
        let k = KernelBuilder::new("wp")
            .blocks(8)
            .warps_per_block(8)
            .regs_per_thread(16)
            .uniform_program(p)
            .build();
        let mut cfg = GpuConfig::volta_v100().with_sms(1);
        let free = simulate_kernel(&cfg, &Policies::hardware_baseline(), k.clone()).unwrap();
        cfg.rf_write_port_contention = true;
        let contended = simulate_kernel(&cfg, &Policies::hardware_baseline(), k).unwrap();
        assert_eq!(free.instructions, contended.instructions);
        let ratio = contended.cycles as f64 / free.cycles as f64;
        assert!(
            (0.9..2.0).contains(&ratio),
            "write contention out of band: {} vs {} ({ratio:.2})",
            contended.cycles,
            free.cycles
        );
    }

    #[test]
    fn mshr_merging_reduces_memory_time() {
        // All warps of a block read the same streaming lines: without
        // MSHRs every warp pays the full miss; with merging they share it.
        let p = ProgramBuilder::new()
            .repeat(64, |b| {
                b.load_global(Reg(8), Reg(0), 0, 128);
                b.fma(Reg(9), Reg(1), Reg(2), Reg(3));
            })
            .barrier()
            .build();
        let mk = || {
            KernelBuilder::new("mshr")
                .blocks(4)
                .warps_per_block(8)
                .regs_per_thread(16)
                .uniform_program(p.clone())
                .build()
        };
        let mut cfg = GpuConfig::volta_v100().with_sms(1);
        let without = simulate_kernel(&cfg, &Policies::hardware_baseline(), mk()).unwrap();
        cfg.mshr_merging = true;
        let with = simulate_kernel(&cfg, &Policies::hardware_baseline(), mk()).unwrap();
        assert_eq!(without.mem.mshr_merges, 0);
        // Distinct warps stream distinct lanes, so merges come from a
        // warp's own re-references; the run must never be slower.
        assert!(with.cycles <= without.cycles);
    }

    #[test]
    fn occupancy_and_pipeline_stats_populated() {
        let cfg = GpuConfig::volta_v100().with_sms(1);
        let stats =
            simulate_kernel(&cfg, &Policies::hardware_baseline(), fma_kernel("st", 4, 8, 64))
                .unwrap();
        let occ = stats.avg_occupancy();
        assert!(occ > 0.0 && occ <= 64.0, "occupancy {occ}");
        let fma_idx = subcore_isa::Pipeline::Fma.index();
        assert!(stats.pipe_dispatched[fma_idx] > 0, "FMA pipeline used");
        assert_eq!(
            stats.pipe_dispatched.iter().sum::<u64>() as u64
                + stats.issued_per_scheduler.iter().flatten().sum::<u64>()
                - stats.instructions,
            stats.pipe_dispatched.iter().sum::<u64>(),
            "dispatch accounting is self-consistent"
        );
    }
}
