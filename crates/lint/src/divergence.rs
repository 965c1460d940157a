//! Divergence pass: per-warp dynamic-length dispersion within a block.
//!
//! Block-granularity resource management means a block's slots are held
//! until its *longest* warp exits, so inter-warp divergence turns directly
//! into sub-core idle time (the paper's §III-B effect). Two findings:
//!
//! * **L020** (warning) — the block's longest warp runs at least
//!   `divergence_threshold`× the mean dynamic length. Cross-checked
//!   against [`subcore_isa::KernelProfile::imbalance_ratio`] — the pass
//!   computes the ratio itself from `dynamic_len` and asserts agreement
//!   in tests.
//! * **L021** (warning) — under the hardware round-robin assigner the
//!   long warps additionally land on the *same* sub-core (periodic
//!   specialization patterns hit this), so one scheduler absorbs the whole
//!   tail. Only emitted for designs that actually use round-robin
//!   assignment; hashed (SRR/Shuffle) assignment is the fix.

use crate::diag::{codes, Diagnostic, Location, Severity};
use crate::LintOptions;
use subcore_engine::GpuConfig;
use subcore_isa::Kernel;
use subcore_sched::Design;

/// The per-warp dynamic lengths and the dispersion statistics the pass is
/// built on. Exposed for tests and the CLI.
#[derive(Debug, Clone)]
pub struct DivergenceSummary {
    /// Dynamic instructions per warp slot of one block.
    pub lens: Vec<u64>,
    /// Longest / mean dynamic length (1.0 when uniform or empty).
    pub imbalance_ratio: f64,
    /// Warp slot of the longest warp.
    pub longest_warp: u32,
}

impl DivergenceSummary {
    /// Measures `kernel`'s per-warp dispersion.
    pub fn of(kernel: &Kernel) -> Self {
        let lens: Vec<u64> =
            (0..kernel.warps_per_block()).map(|w| kernel.program(w).dynamic_len()).collect();
        let total: u64 = lens.iter().sum();
        let (mut ratio, mut longest) = (1.0, 0);
        if total > 0 {
            let mean = total as f64 / lens.len() as f64;
            let (idx, &max) =
                lens.iter().enumerate().max_by_key(|&(_, &len)| len).expect("non-empty");
            ratio = max as f64 / mean;
            longest = idx as u32;
        }
        DivergenceSummary { lens, imbalance_ratio: ratio, longest_warp: longest }
    }

    /// Per-sub-core dynamic-length shares under round-robin placement
    /// (warp `w` → sub-core `w % subcores`): max share / mean share.
    pub fn rr_subcore_skew(&self, subcores: u32) -> f64 {
        if subcores == 0 || self.lens.is_empty() {
            return 1.0;
        }
        let mut loads = vec![0u64; subcores as usize];
        for (w, &len) in self.lens.iter().enumerate() {
            loads[w % subcores as usize] += len;
        }
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / subcores as f64;
        *loads.iter().max().expect("non-empty") as f64 / mean
    }
}

/// Runs the divergence pass over `kernel`, appending diagnostics.
pub fn check(
    kernel: &Kernel,
    cfg: &GpuConfig,
    design: Design,
    opts: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    let summary = DivergenceSummary::of(kernel);
    if summary.imbalance_ratio < opts.divergence_threshold {
        return;
    }
    out.push(Diagnostic::new(
        codes::WARP_DIVERGENCE,
        Severity::Warning,
        Location::kernel(kernel.name()).warps(summary.longest_warp, summary.longest_warp),
        format!(
            "warp-specialized kernel: the longest warp runs {:.2}x the block mean \
             (threshold {:.2}x); block resources idle until it exits",
            summary.imbalance_ratio, opts.divergence_threshold
        ),
    ));

    // The RR pathology only exists when warps are actually pinned
    // round-robin onto partitioned sub-cores; SRR/Shuffle designs and the
    // fully-connected SM are immune by construction.
    let rr = design.policy_class().assigner == "rr";
    let subcores = cfg.domain().domains;
    if rr && subcores > 1 {
        let skew = summary.rr_subcore_skew(subcores);
        if skew >= opts.rr_skew_threshold {
            out.push(Diagnostic::new(
                codes::RR_PATHOLOGY,
                Severity::Warning,
                Location::kernel(kernel.name()),
                format!(
                    "round-robin assignment concentrates the long warps: one sub-core \
                     carries {skew:.2}x the mean dynamic load (threshold {:.2}x); \
                     hashed assignment (SRR/Shuffle) spreads the tail",
                    opts.rr_skew_threshold
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{KernelBuilder, KernelProfile, ProgramBuilder, Reg};

    /// Period-4 specialization: warps 0 and 4 run 8× the work — the TPC-H
    /// join shape that makes round-robin pathological.
    fn specialized_kernel() -> Kernel {
        let long = ProgramBuilder::new()
            .repeat(64, |b| {
                b.fma(Reg(4), Reg(0), Reg(1), Reg(2));
            })
            .build();
        let short = ProgramBuilder::new()
            .repeat(8, |b| {
                b.fma(Reg(4), Reg(0), Reg(1), Reg(2));
            })
            .build();
        let programs = (0..8).map(|w| if w % 4 == 0 { long.clone() } else { short.clone() });
        KernelBuilder::new("spec").regs_per_thread(8).per_warp_programs(programs.collect()).build()
    }

    fn uniform_kernel() -> Kernel {
        let p = ProgramBuilder::new()
            .repeat(16, |b| {
                b.fma(Reg(4), Reg(0), Reg(1), Reg(2));
            })
            .build();
        KernelBuilder::new("uni").warps_per_block(8).regs_per_thread(8).uniform_program(p).build()
    }

    fn run(kernel: &Kernel, design: Design) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(kernel, &GpuConfig::volta_v100(), design, &LintOptions::default(), &mut out);
        out
    }

    #[test]
    fn summary_agrees_with_kernel_profile() {
        for kernel in [specialized_kernel(), uniform_kernel()] {
            let summary = DivergenceSummary::of(&kernel);
            let profile = KernelProfile::of(&kernel);
            assert!(
                (summary.imbalance_ratio - profile.imbalance_ratio()).abs() < 1e-12,
                "{}: {} vs {}",
                kernel.name(),
                summary.imbalance_ratio,
                profile.imbalance_ratio()
            );
        }
    }

    #[test]
    fn specialized_kernel_fires_both_codes_under_rr() {
        let diags = run(&specialized_kernel(), Design::Baseline);
        let codes_found: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes_found.contains(&codes::WARP_DIVERGENCE), "{codes_found:?}");
        assert!(codes_found.contains(&codes::RR_PATHOLOGY), "{codes_found:?}");
    }

    #[test]
    fn hashed_assignment_suppresses_the_rr_pathology() {
        for design in [Design::Srr, Design::Shuffle] {
            let codes_found: Vec<_> =
                run(&specialized_kernel(), design).iter().map(|d| d.code).collect();
            assert!(codes_found.contains(&codes::WARP_DIVERGENCE), "{design:?}");
            assert!(!codes_found.contains(&codes::RR_PATHOLOGY), "{design:?}");
        }
    }

    #[test]
    fn uniform_kernel_is_quiet() {
        assert!(run(&uniform_kernel(), Design::Baseline).is_empty());
    }

    #[test]
    fn rr_skew_matches_hand_count() {
        let summary = DivergenceSummary::of(&specialized_kernel());
        // Sub-core 0 gets both long warps (65 dynamic instrs each incl.
        // exit); sub-cores 1-3 get two short warps (9 each).
        let expected = (2.0 * 65.0) / ((2.0 * 65.0 + 6.0 * 9.0) / 4.0);
        assert!((summary.rr_subcore_skew(4) - expected).abs() < 1e-12);
    }
}
