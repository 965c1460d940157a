//! Abstract-interpretation cost model: static per-design cycle estimates.
//!
//! The model walks each kernel symbolically — reusing lint's dataflow pass
//! for register read counts and the engine's exact
//! [`subcore_engine::bank_of_register`] swizzle for bank placement — and
//! bounds the run's cycles by the slowest of three structural terms, then
//! multiplies by the occupancy-limited wave count:
//!
//! * **issue-bound** — the fullest scheduler domain must issue its warps'
//!   dynamic instructions one per cycle per issue port, and each execution
//!   pipeline is occupied for its initiation interval per instruction
//!   (strided/irregular memory ops occupy the LSU once per coalesced
//!   transaction).
//! * **bank-serialization-bound** — each register bank grants one operand
//!   read per cycle, so the hottest bank's static read load lower-bounds
//!   the domain's cycles; this is the term the remapper flattens and the
//!   fully-connected/RBA designs relieve.
//! * **divergence-bound** — the longest single warp's serial occupancy:
//!   one warp cannot issue faster than its own instruction stream, so a
//!   warp-specialized kernel's tail is visible no matter how idle the
//!   other schedulers are.
//!
//! The estimates are *rank-calibrated*, not cycle-accurate: the contract
//! (asserted by `repro estimate --calibrate` and gated in verify.sh) is
//! Spearman rank correlation ≥ 0.8 against simulated cycles across the
//! registry, which is what cost-aware job ordering and placement need.

use subcore_engine::{bank_of_register, GpuConfig};
use subcore_isa::{App, Kernel, MemPattern, Pipeline};
use subcore_lint::dataflow::ProgramDataflow;
use subcore_lint::{operand_excess, program_groups};
use subcore_sched::Design;

/// Static cycle estimate for one kernel, decomposed into its bound terms.
#[derive(Debug, Clone)]
pub struct KernelEstimate {
    /// Kernel name.
    pub kernel: String,
    /// Simultaneously resident blocks per SM (occupancy).
    pub resident_blocks: u32,
    /// Occupancy-limited waves the fullest SM executes.
    pub waves: u64,
    /// Per-wave issue/pipeline throughput bound, cycles.
    pub issue_bound: u64,
    /// Per-wave hottest-bank serialization bound, cycles.
    pub bank_bound: u64,
    /// Longest single warp's serial occupancy, cycles (per wave).
    pub divergence_bound: u64,
    /// Combined estimate: `waves × max(terms)`.
    pub cycles: u64,
}

/// Static cycle estimate for a whole app under one design.
#[derive(Debug, Clone)]
pub struct AppEstimate {
    /// App name.
    pub app: String,
    /// Design label the estimate was computed for.
    pub design: String,
    /// Per-kernel decompositions, in launch order.
    pub kernels: Vec<KernelEstimate>,
    /// Total estimated cycles (kernels run back-to-back).
    pub cycles: u64,
}

impl AppEstimate {
    /// The slowest bound term across kernels, weighted by each kernel's
    /// share of the estimate — a one-word diagnosis of what the app is
    /// bound by.
    pub fn dominant_term(&self) -> &'static str {
        let (mut issue, mut bank, mut div) = (0u64, 0u64, 0u64);
        for k in &self.kernels {
            issue += k.waves * k.issue_bound;
            bank += k.waves * k.bank_bound;
            div += k.waves * k.divergence_bound;
        }
        if bank >= issue && bank >= div {
            "bank"
        } else if div >= issue {
            "divergence"
        } else {
            "issue"
        }
    }
}

/// LSU occupancy weight of one memory access: how many coalesced
/// transactions the pattern expands to (each occupies the L1 port).
fn transactions(pattern: MemPattern) -> u64 {
    match pattern {
        MemPattern::Coalesced { .. } => 1,
        MemPattern::Strided { stride, .. } => u64::from(stride.clamp(1, 32)),
        MemPattern::Irregular { span_lines, .. } => u64::from(span_lines.clamp(1, 32)),
        MemPattern::SharedConflict { degree } => u64::from(degree.clamp(1, 32)),
    }
}

/// Estimates one kernel under the *final* (design-transformed) `cfg`.
/// `rba` discounts the bank term for register-bank-aware scheduling,
/// which routes reads around the hottest bank.
fn estimate_kernel(kernel: &Kernel, cfg: &GpuConfig, rba: bool) -> KernelEstimate {
    let shape = cfg.domain();
    let (domains, banks) = (shape.domains.max(1), shape.banks.max(1));
    let (issue_width, exec_scale) = (shape.issue_width.max(1), shape.exec_scale.max(1));
    let declared = u32::from(kernel.regs_per_thread());

    // Per-domain accumulators over one block's warps.
    let mut instrs = vec![0u64; domains as usize];
    let mut pipe = vec![[0u64; 6]; domains as usize];
    let mut bank_load = vec![vec![0u64; banks as usize]; domains as usize];
    let mut excess = vec![0u64; domains as usize];
    let mut longest_warp = 0u64;

    for (first, last, program) in program_groups(kernel) {
        let flow = ProgramDataflow::of(first, last, &program, declared);
        let reads = flow.read_counts(u32::try_from(flow.facts.len()).unwrap_or(declared));
        // Per-warp pipeline occupancy, instruction counts, and in-bank
        // operand clustering are identical across the group (bank equality
        // of two registers is rotation-invariant); compute once.
        let mut warp_instrs = 0u64;
        let mut warp_pipe = [0u64; 6];
        let warp_excess = operand_excess(&program, banks, |r| r);
        let mut chain = 0u64;
        for seg in program.segments() {
            let times = u64::from(seg.repeat);
            if times == 0 {
                continue;
            }
            for instr in seg.body.iter() {
                warp_instrs += times;
                let p = instr.op.pipeline();
                if p == Pipeline::Control {
                    chain += times;
                    continue;
                }
                let timing = cfg.exec.get(p);
                let occupancy = match instr.mem {
                    Some(pattern) => u64::from(timing.interval).max(transactions(pattern)),
                    None => u64::from(timing.interval),
                };
                warp_pipe[p.index()] += occupancy * times;
                chain += occupancy * times;
            }
        }
        longest_warp = longest_warp.max(chain);
        for w in first..=last {
            let d = (w % domains) as usize;
            let local = w / domains;
            instrs[d] += warp_instrs;
            excess[d] += warp_excess;
            for (acc, c) in pipe[d].iter_mut().zip(warp_pipe) {
                *acc += c;
            }
            for (r, &count) in reads.iter().enumerate() {
                if count > 0 {
                    let b = bank_of_register(subcore_isa::Reg(r as u8), local, banks);
                    bank_load[d][b as usize] += count;
                }
            }
        }
    }

    let mut issue_bound = 0u64;
    let mut bank_bound = 0u64;
    for d in 0..domains as usize {
        let port = instrs[d].div_ceil(u64::from(issue_width));
        let pipes = Pipeline::EXEC
            .iter()
            .map(|&p| {
                let t = cfg.exec.get(p);
                pipe[d][p.index()] / u64::from((t.units_per_subcore * exec_scale).max(1))
            })
            .max()
            .unwrap_or(0);
        issue_bound = issue_bound.max(port.max(pipes));
        // The hottest bank's aggregate load bounds throughput; each
        // same-bank operand pairing beyond the `ceil(srcs/banks)` floor
        // holds a collector unit (and the hot bank's port) one extra
        // cycle. RBA scheduling routes issue around the hot bank and
        // closes roughly half that excess.
        let hot = bank_load[d].iter().copied().max().unwrap_or(0);
        let serialization = if rba { excess[d] / 2 } else { excess[d] };
        bank_bound = bank_bound.max(hot + serialization);
    }

    let resident = cfg
        .max_resident_blocks(
            kernel.warps_per_block(),
            u32::from(kernel.regs_per_thread()),
            kernel.shared_mem_bytes(),
        )
        .max(1);
    let blocks_on_fullest_sm = u64::from(kernel.blocks()).div_ceil(u64::from(cfg.num_sms.max(1)));
    let waves = blocks_on_fullest_sm.div_ceil(u64::from(resident));
    let concurrent = u64::from(resident).min(blocks_on_fullest_sm).max(1);

    // All `concurrent` resident blocks of a wave contend for the same
    // issue ports and banks; the divergence tail is a single warp's and
    // does not scale with residency.
    let issue_bound = issue_bound * concurrent;
    let bank_bound = bank_bound * concurrent;
    let per_wave = issue_bound.max(bank_bound).max(longest_warp);
    KernelEstimate {
        kernel: kernel.name().to_owned(),
        resident_blocks: resident,
        waves,
        issue_bound,
        bank_bound,
        divergence_bound: longest_warp,
        cycles: waves.saturating_mul(per_wave),
    }
}

/// Estimates every kernel of `app` under `design` applied to `base`.
pub fn estimate_app(app: &App, base: &GpuConfig, design: Design) -> AppEstimate {
    let cfg = design.config(base);
    let rba = design.policy_class().selector == "rba";
    let kernels: Vec<KernelEstimate> =
        app.kernels().iter().map(|k| estimate_kernel(k, &cfg, rba)).collect();
    let cycles = kernels.iter().map(|k| k.cycles).sum();
    AppEstimate { app: app.name().to_owned(), design: design.label(), kernels, cycles }
}
