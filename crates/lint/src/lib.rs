//! `subcore-lint`: static analysis for subcore kernels and configurations.
//!
//! The paper's two dominant partitioning effects — register-bank conflicts
//! and sub-core issue imbalance from inter-warp divergence — are largely
//! *statically predictable* from a kernel's operand layout and per-warp
//! program shapes. This crate analyzes [`subcore_isa::Kernel`]s against a
//! concrete [`subcore_engine::GpuConfig`]/[`subcore_sched::Design`] pair
//! *before* simulation and reports structured [`Diagnostic`]s with stable
//! codes, so bad inputs are rejected cheaply instead of discovered mid-run.
//!
//! Four passes (see [`codes`] for the full code list):
//!
//! 1. **dataflow** (`L001`–`L005`) — register def/use accounting and
//!    register-file capacity.
//! 2. **bank pressure** (`L010`–`L011`) — static operand-read histograms
//!    under the engine's exact register→bank mapping
//!    ([`subcore_engine::bank_of_register`]); the static analog of the
//!    dynamic RBA score.
//! 3. **divergence** (`L020`–`L021`) — per-warp `dynamic_len` dispersion
//!    and the round-robin placement pathology.
//! 4. **config validation** (`L030`–`L035`, `L037`) — impossible configurations
//!    diagnosed instead of panicking.
//!
//! # Example
//!
//! ```
//! use subcore_engine::GpuConfig;
//! use subcore_isa::{KernelBuilder, ProgramBuilder, Reg};
//! use subcore_lint::{Linter};
//! use subcore_sched::Design;
//!
//! // A kernel whose every operand lands on bank 0 of the 2-bank file.
//! let p = ProgramBuilder::new()
//!     .repeat(64, |b| { b.fma(Reg(1), Reg(0), Reg(2), Reg(4)); })
//!     .build();
//! let k = KernelBuilder::new("conflicted").regs_per_thread(8).uniform_program(p).build();
//! let app = subcore_isa::App::new("demo", subcore_isa::Suite::Micro, vec![k]);
//! let report = Linter::new(GpuConfig::volta_v100(), Design::Baseline).lint_app(&app);
//! assert!(report.diagnostics.iter().any(|d| d.code == subcore_lint::codes::BANK_SKEW));
//! ```

#![forbid(unsafe_code)]

mod bankpressure;
mod configcheck;
pub mod dataflow;
mod diag;
mod divergence;

pub use bankpressure::{flattened_max_load, operand_excess, BankPressure};
pub use configcheck::check_tenants;
pub use dataflow::KernelDataflow;
pub use diag::{codes, Diagnostic, LintReport, Location, Severity};
pub use divergence::DivergenceSummary;

use std::sync::Arc;
use subcore_engine::GpuConfig;
use subcore_isa::{App, Kernel, WarpProgram};
use subcore_sched::Design;

/// Tunable thresholds for the warning-level checks.
///
/// Defaults are calibrated against the workload registry: intentionally
/// adversarial kernels (bank-conflict and warp-specialization stressors)
/// fire, randomly laid-out kernels stay quiet.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// L010: per-warp hottest-bank / mean-bank ratio at or above which the
    /// skew warning fires. 2.0 = "everything on one of two banks".
    pub bank_skew_threshold: f64,
    /// L011: fraction of multi-operand instructions with avoidable
    /// same-bank operand pairs at or above which clustering fires. Random
    /// layouts sit near 0.45 on a 2-bank file; structured same-bank
    /// layouts reach 1.0.
    pub clustering_threshold: f64,
    /// L020: longest-warp / mean dynamic-length ratio at or above which a
    /// kernel counts as warp-specialized.
    pub divergence_threshold: f64,
    /// L021: per-sub-core load ratio under round-robin placement at or
    /// above which the placement itself is pathological.
    pub rr_skew_threshold: f64,
    /// L004: declared/used register ratio at or above which a kernel is
    /// over-allocated…
    pub over_alloc_ratio: u32,
    /// …provided at least this many registers are wasted.
    pub over_alloc_slack: u32,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            bank_skew_threshold: 2.0,
            clustering_threshold: 0.7,
            divergence_threshold: 1.5,
            rr_skew_threshold: 1.25,
            over_alloc_ratio: 4,
            over_alloc_slack: 24,
        }
    }
}

/// The analyzer: a configuration/design pair plus thresholds.
#[derive(Debug, Clone)]
pub struct Linter {
    base: GpuConfig,
    design: Design,
    options: LintOptions,
}

impl Linter {
    /// A linter for `design` applied to the `base` configuration, with
    /// default thresholds.
    pub fn new(base: GpuConfig, design: Design) -> Self {
        Linter { base, design, options: LintOptions::default() }
    }

    /// Overrides the thresholds.
    pub fn with_options(mut self, options: LintOptions) -> Self {
        self.options = options;
        self
    }

    /// The design-transformed configuration the passes analyze against.
    pub fn config(&self) -> GpuConfig {
        self.design.config(&self.base)
    }

    /// Runs only the configuration pass (no kernels).
    pub fn lint_config(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        configcheck::check_config(&self.config(), self.design, &mut out);
        out
    }

    /// Runs every pass over every kernel of `app`.
    pub fn lint_app(&self, app: &App) -> LintReport {
        let cfg = self.config();
        let mut diags = Vec::new();
        configcheck::check_config(&cfg, self.design, &mut diags);
        for kernel in app.kernels() {
            self.lint_kernel_into(kernel, &cfg, &mut diags);
        }
        for diag in &mut diags {
            diag.location.app = Some(app.name().to_owned());
        }
        LintReport { app: app.name().to_owned(), design: self.design.label(), diagnostics: diags }
    }

    /// Runs the kernel-level passes over one kernel.
    pub fn lint_kernel(&self, kernel: &Kernel) -> Vec<Diagnostic> {
        let cfg = self.config();
        let mut out = Vec::new();
        self.lint_kernel_into(kernel, &cfg, &mut out);
        out
    }

    fn lint_kernel_into(&self, kernel: &Kernel, cfg: &GpuConfig, out: &mut Vec<Diagnostic>) {
        for misfit in cfg.block_misfits(kernel) {
            let at = Location::kernel(kernel.name());
            out.push(Diagnostic::new(codes::CFG_UNSCHEDULABLE, Severity::Error, at, misfit));
        }
        dataflow::check(kernel, cfg, &self.options, out);
        bankpressure::check(kernel, cfg, &self.options, out);
        divergence::check(kernel, cfg, self.design, &self.options, out);
    }
}

/// Groups a kernel's warp slots by identical (pointer-equal) programs:
/// `(first_slot, last_slot, program)` runs, mirroring
/// [`subcore_isa::disassemble_kernel`]. Program-level passes analyze each
/// distinct program once and report the whole slot range; `subcore-opt`
/// remaps each distinct program once and reuses the result per slot.
pub fn program_groups(kernel: &Kernel) -> Vec<(u32, u32, Arc<WarpProgram>)> {
    let mut groups = Vec::new();
    let mut w = 0;
    while w < kernel.warps_per_block() {
        let program = kernel.program(w);
        let mut end = w + 1;
        while end < kernel.warps_per_block() && Arc::ptr_eq(kernel.program(end), program) {
            end += 1;
        }
        groups.push((w, end - 1, program.clone()));
        w = end;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{KernelBuilder, ProgramBuilder, Reg};

    #[test]
    fn program_groups_mirror_disassembly_runs() {
        let a = ProgramBuilder::new().barrier().build();
        let b = ProgramBuilder::new()
            .repeat(4, |x| {
                x.fma(Reg(0), Reg(0), Reg(1), Reg(2));
            })
            .build();
        let k = KernelBuilder::new("g")
            .regs_per_thread(8)
            .per_warp_programs(vec![b.clone(), a.clone(), a.clone(), b])
            .build();
        let groups = program_groups(&k);
        let spans: Vec<(u32, u32)> = groups.iter().map(|&(s, e, _)| (s, e)).collect();
        assert_eq!(spans, vec![(0, 0), (1, 2), (3, 3)]);
    }

    #[test]
    fn lint_app_stamps_the_app_name() {
        let p = ProgramBuilder::new()
            .repeat(8, |b| {
                b.fma(Reg(1), Reg(0), Reg(2), Reg(4));
            })
            .build();
        let k = KernelBuilder::new("k0").regs_per_thread(8).uniform_program(p).build();
        let app = App::new("demo", subcore_isa::Suite::Micro, vec![k]);
        let report = Linter::new(GpuConfig::volta_v100(), Design::Baseline).lint_app(&app);
        assert_eq!(report.app, "demo");
        assert!(!report.diagnostics.is_empty());
        assert!(report.diagnostics.iter().all(|d| d.location.app.as_deref() == Some("demo")));
    }

    #[test]
    fn lint_config_reports_without_panicking() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_warps_per_sm = 63;
        cfg.cus_per_subcore = 0;
        let diags = Linter::new(cfg, Design::Baseline).lint_config();
        assert!(diags.iter().any(|d| d.code == codes::CFG_RAGGED_SLOTS));
        assert!(diags.iter().any(|d| d.code == codes::CFG_ZERO_RESOURCE));
    }
}
