//! Bank-pressure pass: static operand-read histograms under the engine's
//! register→bank mapping — the static analog of the dynamic RBA score.
//!
//! The pass replays each warp's program *statically* (weighting segment
//! bodies by their repeat counts) and assigns every source operand to the
//! bank [`subcore_engine::bank_of_register`] would read it from, using the
//! same warp→sub-core placement the round-robin assigner produces for a
//! single block. Two hazards are flagged:
//!
//! * **L010** (warning) — some warp's hottest bank receives at least
//!   `bank_skew_threshold`× the mean per-bank operand load. With the
//!   2-bank sub-core file, all-reads-on-one-bank is exactly 2.0×.
//! * **L011** (warning) — multi-operand instructions systematically read
//!   several operands from the *same* bank (excess serialization above the
//!   unavoidable `ceil(sources/banks)` floor). This is the pattern the
//!   collector units serialize on and the RBA scheduler routes around.
//! * **L036** (warning) — the L010 skew is *layout-induced*: a register
//!   permutation provably flattens the hottest bank below the skew
//!   threshold. The message names the fix (`repro opt`), closing the loop
//!   between the diagnosis and the `subcore-opt` remapper.

use crate::dataflow::ProgramDataflow;
use crate::diag::{codes, Diagnostic, Location, Severity};
use crate::LintOptions;
use subcore_engine::{bank_of_register, GpuConfig};
use subcore_isa::{Kernel, Reg, WarpProgram};

/// Same-instruction same-bank operand excess of `program` with every
/// register `r` renamed to `rename(r)`, over `banks` banks: per execution
/// of an instruction with ≥ 2 register sources, each operand on its
/// fullest bank beyond the unavoidable `ceil(sources / banks)` floor costs
/// one extra collection cycle. Bank equality is rotation-invariant under
/// the engine swizzle, so every warp running `program` pays the same
/// excess. The one statement of the term lint's L011 clustering, the cost
/// model's bank bound and the remapper's objective all charge.
pub fn operand_excess(program: &WarpProgram, banks: u32, rename: impl Fn(Reg) -> Reg) -> u64 {
    let banks = banks.max(1);
    let mut per_bank = vec![0u64; banks as usize];
    let mut excess = 0u64;
    for seg in program.segments() {
        let times = u64::from(seg.repeat);
        for instr in seg.body.iter() {
            per_bank.iter_mut().for_each(|c| *c = 0);
            let mut sources = 0u64;
            for src in instr.sources() {
                per_bank[bank_of_register(rename(src), 0, banks) as usize] += 1;
                sources += 1;
            }
            if sources >= 2 {
                let fullest = per_bank.iter().copied().max().unwrap_or(0);
                excess += fullest.saturating_sub(sources.div_ceil(u64::from(banks))) * times;
            }
        }
    }
    excess
}

/// The smallest achievable hottest-bank load when register read counts
/// `reads[r]` may be permuted freely across the register slots `0..len`,
/// each slot `x` feeding bank `x % banks` (warp 0's view of the engine
/// swizzle; other warps see a pure rotation, so the bound is warp-
/// independent).
///
/// Greedy: each bank has capacity `#{x : x % banks == b}` slots; registers
/// are placed heaviest-first onto the least-loaded bank with free slots.
/// The result is exact when counts are near-uniform and otherwise an upper
/// bound on the optimum — still a *certificate* that some permutation
/// achieves this max load, which is all L036 and the remapper need.
pub fn flattened_max_load(reads: &[u64], banks: u32) -> u64 {
    let banks = banks.max(1) as usize;
    if reads.is_empty() {
        return 0;
    }
    let mut capacity = vec![0u64; banks];
    for slot in 0..reads.len() {
        capacity[slot % banks] += 1;
    }
    let mut load = vec![0u64; banks];
    let mut counts: Vec<u64> = reads.to_vec();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    for c in counts {
        let b = (0..banks)
            .filter(|&b| capacity[b] > 0)
            .min_by_key(|&b| load[b])
            .expect("total slot capacity equals reads.len()");
        capacity[b] -= 1;
        load[b] += c;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Static bank-pressure summary for one kernel under one configuration.
///
/// Also the input to `repro lint --calibrate`, which rank-correlates
/// [`BankPressure::score`] against traced mean bank-queue depths.
#[derive(Debug, Clone)]
pub struct BankPressure {
    /// Banks visible to one scheduler domain.
    pub banks: u32,
    /// Operand reads per bank, aggregated over all warps of one block.
    pub per_bank: Vec<u64>,
    /// Warp slot with the most skewed private histogram.
    pub worst_warp: u32,
    /// That warp's hottest-bank / mean-bank load ratio.
    pub worst_warp_skew: f64,
    /// Dynamic instructions (per block) with ≥ 2 register sources.
    pub multi_src_instrs: u64,
    /// Same-bank operand pairings beyond the unavoidable floor.
    pub excess_serialization: u64,
    /// Total dynamic instructions per block.
    pub dynamic_instrs: u64,
    /// Total dynamic source-operand reads per block.
    pub source_reads: u64,
    /// Dynamic memory instructions per block.
    pub memory_instrs: u64,
}

impl BankPressure {
    /// Computes the static histogram for `kernel` under `cfg`.
    ///
    /// Warp placement mirrors the engine's round-robin assigner for a
    /// single block: warp `w` lands on sub-core `w % S` as local warp
    /// `w / S`. In fully-connected mode one domain owns every bank and
    /// local indices are the block-local warp ids.
    pub fn of(kernel: &Kernel, cfg: &GpuConfig) -> Self {
        let domain = cfg.domain();
        let (subcores, banks) = (domain.domains.max(1), domain.banks.max(1));
        let mut agg = vec![0u64; banks as usize];
        let mut worst_warp = 0u32;
        let mut worst_warp_skew = 0.0f64;
        let mut multi_src_instrs = 0u64;
        let mut excess = 0u64;
        let mut dynamic_instrs = 0u64;
        let mut source_reads = 0u64;
        let mut memory_instrs = 0u64;

        for w in 0..kernel.warps_per_block() {
            let local = w / subcores;
            let mut hist = vec![0u64; banks as usize];
            excess += operand_excess(kernel.program(w), banks, |r| r);
            for seg in kernel.program(w).segments() {
                let times = u64::from(seg.repeat);
                if times == 0 {
                    continue;
                }
                for instr in seg.body.iter() {
                    dynamic_instrs += times;
                    if instr.mem.is_some() {
                        memory_instrs += times;
                    }
                    let mut n_srcs = 0u64;
                    for src in instr.sources() {
                        hist[bank_of_register(src, local, banks) as usize] += times;
                        source_reads += times;
                        n_srcs += 1;
                    }
                    if n_srcs >= 2 {
                        multi_src_instrs += times;
                    }
                }
            }
            let total: u64 = hist.iter().sum();
            if total > 0 {
                let mean = total as f64 / banks as f64;
                let skew = *hist.iter().max().unwrap() as f64 / mean;
                if skew > worst_warp_skew {
                    worst_warp_skew = skew;
                    worst_warp = w;
                }
            }
            for (a, h) in agg.iter_mut().zip(&hist) {
                *a += h;
            }
        }

        BankPressure {
            banks,
            per_bank: agg,
            worst_warp,
            worst_warp_skew,
            multi_src_instrs,
            excess_serialization: excess,
            dynamic_instrs,
            source_reads,
            memory_instrs,
        }
    }

    /// Fraction of multi-operand instructions' same-bank pairings above the
    /// unavoidable floor: 0.0 = perfectly spread, 1.0 = every multi-operand
    /// instruction fully serialized on one bank.
    pub fn clustering(&self) -> f64 {
        if self.multi_src_instrs == 0 {
            0.0
        } else {
            self.excess_serialization as f64 / self.multi_src_instrs as f64
        }
    }

    /// Scalar used by `lint --calibrate` to rank kernels: operand reads per
    /// dynamic instruction, inflated by in-bank clustering and discounted
    /// by the memory fraction (memory-bound kernels issue operand reads
    /// more slowly, so their banks queue less).
    pub fn score(&self) -> f64 {
        if self.dynamic_instrs == 0 {
            return 0.0;
        }
        let reads_per_instr = self.source_reads as f64 / self.dynamic_instrs as f64;
        let mem_fraction = self.memory_instrs as f64 / self.dynamic_instrs as f64;
        reads_per_instr * (1.0 + self.clustering()) * (1.0 - mem_fraction)
    }
}

/// Runs the bank-pressure pass over `kernel`, appending diagnostics.
pub fn check(kernel: &Kernel, cfg: &GpuConfig, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let p = BankPressure::of(kernel, cfg);
    if p.worst_warp_skew >= opts.bank_skew_threshold {
        out.push(Diagnostic::new(
            codes::BANK_SKEW,
            Severity::Warning,
            Location::kernel(kernel.name()).warps(p.worst_warp, p.worst_warp),
            format!(
                "hottest register bank receives {:.2}x the mean operand load across {} banks \
                 (threshold {:.2}); reads will serialize on that bank's port",
                p.worst_warp_skew, p.banks, opts.bank_skew_threshold
            ),
        ));
        // L036: is that skew layout-induced, i.e. provably removable by a
        // register permutation? Compute the best achievable hottest-bank
        // load for the worst warp's read counts; rotation invariance of the
        // swizzle makes the bound hold for every warp sharing the program.
        let declared = u32::from(kernel.regs_per_thread());
        let flow =
            ProgramDataflow::of(p.worst_warp, p.worst_warp, kernel.program(p.worst_warp), declared);
        if flow.out_of_range.is_empty() {
            let reads = flow.read_counts(declared);
            let total: u64 = reads.iter().sum();
            if total > 0 {
                let mean = total as f64 / f64::from(p.banks);
                let flattened = flattened_max_load(&reads, p.banks) as f64 / mean;
                if flattened < opts.bank_skew_threshold {
                    out.push(Diagnostic::new(
                        codes::BANK_REMAPPABLE,
                        Severity::Warning,
                        Location::kernel(kernel.name()).warps(p.worst_warp, p.worst_warp),
                        format!(
                            "bank skew is layout-induced: a register permutation flattens the \
                             hottest bank from {:.2}x to {:.2}x the mean load; run `repro opt` \
                             to apply the conflict-free remap",
                            p.worst_warp_skew, flattened
                        ),
                    ));
                }
            }
        }
    }
    if p.multi_src_instrs > 0 && p.clustering() >= opts.clustering_threshold {
        out.push(Diagnostic::new(
            codes::BANK_CLUSTERING,
            Severity::Warning,
            Location::kernel(kernel.name()),
            format!(
                "operands cluster in-bank: {:.0}% of multi-operand instructions read extra \
                 operands from one bank beyond the unavoidable minimum (threshold {:.0}%); \
                 the static analog of a high RBA score",
                p.clustering() * 100.0,
                opts.clustering_threshold * 100.0
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintOptions;
    use subcore_isa::{KernelBuilder, ProgramBuilder, Reg};

    fn volta() -> GpuConfig {
        GpuConfig::volta_v100()
    }

    /// All operands even → every read lands on bank 0 for warp 0 (local
    /// index 0 under round-robin placement).
    fn one_bank_kernel() -> Kernel {
        let p = ProgramBuilder::new()
            .repeat(32, |b| {
                b.fma(Reg(1), Reg(0), Reg(2), Reg(4));
                b.iadd(Reg(3), Reg(6), Reg(8));
            })
            .build();
        KernelBuilder::new("onebank").regs_per_thread(16).uniform_program(p).build()
    }

    /// Operands alternate parity → reads spread across both banks and
    /// multi-operand instructions split their sources.
    fn spread_kernel() -> Kernel {
        let p = ProgramBuilder::new()
            .repeat(32, |b| {
                b.fma(Reg(8), Reg(0), Reg(1), Reg(2));
                b.iadd(Reg(9), Reg(3), Reg(4));
            })
            .build();
        KernelBuilder::new("spread").regs_per_thread(16).uniform_program(p).build()
    }

    #[test]
    fn same_bank_operands_fire_skew_and_clustering() {
        let mut out = Vec::new();
        check(&one_bank_kernel(), &volta(), &LintOptions::default(), &mut out);
        let codes_found: Vec<_> = out.iter().map(|d| d.code).collect();
        assert!(codes_found.contains(&codes::BANK_SKEW), "{codes_found:?}");
        assert!(codes_found.contains(&codes::BANK_CLUSTERING), "{codes_found:?}");
    }

    #[test]
    fn spread_operands_stay_quiet() {
        let mut out = Vec::new();
        check(&spread_kernel(), &volta(), &LintOptions::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn histogram_matches_hand_count() {
        // One fma per iteration, warp 0 (local 0): sources r0, r2, r4 all
        // land on bank 0 of the 2-bank file.
        let p = BankPressure::of(&one_bank_kernel(), &volta());
        assert_eq!(p.banks, 2);
        // The single warp puts all 5 reads/iter × 32 iters on bank 0.
        assert_eq!(p.per_bank, vec![5 * 32, 0]);
        assert_eq!(p.per_bank.iter().sum::<u64>(), p.source_reads);
        assert!((p.clustering() - 1.0).abs() < 1e-9, "fully clustered: {}", p.clustering());
        assert!((p.worst_warp_skew - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fully_connected_pools_every_bank() {
        let cfg = volta().fully_connected();
        let p = BankPressure::of(&one_bank_kernel(), &cfg);
        assert_eq!(p.banks, cfg.total_banks());
        // 8 pooled banks: r0, r2, r4 now hit banks 0, 2, 4 — no excess.
        assert_eq!(p.excess_serialization, 0);
    }

    #[test]
    fn flattened_load_respects_slot_capacities() {
        // 4 slots, 2 banks → 2 slots per bank. Heaviest-first placement
        // puts 10 and 8 on different banks; zeros fill the rest.
        assert_eq!(flattened_max_load(&[10, 0, 8, 0], 2), 10);
        // Uniform counts flatten perfectly: 4×6 over 2 banks → 12 each.
        assert_eq!(flattened_max_load(&[6, 6, 6, 6], 2), 12);
        // One register dominating is irreducible; slot capacity (2 per
        // bank) forces one light register to share its bank.
        assert_eq!(flattened_max_load(&[100, 1, 1, 1], 2), 101);
        assert_eq!(flattened_max_load(&[], 2), 0);
    }

    #[test]
    fn layout_induced_skew_names_the_remap_fix() {
        let mut out = Vec::new();
        check(&one_bank_kernel(), &volta(), &LintOptions::default(), &mut out);
        let hit = out.iter().find(|d| d.code == codes::BANK_REMAPPABLE).expect("L036 fires");
        assert_eq!(hit.severity, Severity::Warning);
        assert!(hit.message.contains("repro opt"), "{}", hit.message);
        // Five equally-hot registers over two banks: best split is 3/2 →
        // 96/160-per-bank-mean = 1.20x, well under the 2.0 threshold.
        assert!(hit.message.contains("1.20x"), "{}", hit.message);
    }

    #[test]
    fn score_ranks_clustered_above_spread() {
        let clustered = BankPressure::of(&one_bank_kernel(), &volta());
        let spread = BankPressure::of(&spread_kernel(), &volta());
        assert!(clustered.score() > spread.score());
    }
}
