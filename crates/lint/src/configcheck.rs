//! Configuration-validation pass: impossible `Design`/`GpuConfig`
//! combinations rejected with diagnostics instead of panics.
//!
//! [`subcore_engine::GpuConfig::validate`] asserts; this pass mirrors
//! every one of its invariants (plus tracing- and design-parameter checks
//! the engine only discovers mid-run) as structured diagnostics, so a bad
//! configuration is reported *before* anything simulates:
//!
//! * **L030** (error) — a resource count is zero.
//! * **L031** (error) — warp slots don't divide evenly among sub-core
//!   schedulers.
//! * **L032** (warning) — the trace window is longer than `max_cycles`,
//!   so a windowed trace would never complete a single window.
//! * **L033** (error) — the traced SM index is out of range.
//! * **L034** (error) — a parameterized design point carries a zero
//!   parameter (e.g. a 0-entry shuffle hash table or 0-bank file).
//! * **L035** (error) — a kernel's blocks can never be scheduled (shared
//!   memory or warp demand exceeds what one SM owns).
//! * **L037** (error) — more warp slots per SM or register banks per
//!   scheduler domain than the engine's one-word bitmasks hold.
//!
//! The multi-tenant pass ([`check_tenants`]) validates spatial partitions
//! the same way — diagnostics, never panics:
//!
//! * **L040** (error) — a tenant's SM set is empty or out of range.
//! * **L041** (error) — two tenants' SM sets overlap under a rigid
//!   (exclusive) partition policy.
//! * **L042** (error) — a tenant's kernel can never be scheduled on any
//!   SM of its partition (warps, shared memory, or per-sub-core register
//!   demand exceed one SM, so partition size cannot save it).

use crate::diag::{codes, Diagnostic, Location, Severity};
use subcore_engine::{Connectivity, GpuConfig, TenantRun};
use subcore_isa::Kernel;
use subcore_sched::Design;

fn error(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, Location::default(), message)
}

/// Checks the SM/design combination itself (no kernel involved).
pub fn check_config(cfg: &GpuConfig, design: Design, out: &mut Vec<Diagnostic>) {
    let zero_checks: [(&str, u32); 9] = [
        ("num_sms", cfg.num_sms),
        ("subcores_per_sm", cfg.subcores_per_sm),
        ("rf_banks_per_subcore", cfg.rf_banks_per_subcore),
        ("cus_per_subcore", cfg.cus_per_subcore),
        ("rf_regs_per_subcore", cfg.rf_regs_per_subcore),
        ("ibuffer_depth", cfg.ibuffer_depth),
        ("issue_width", cfg.issue_width),
        ("max_blocks_per_sm", cfg.max_blocks_per_sm),
        ("max_warps_per_sm", cfg.max_warps_per_sm),
    ];
    for (name, value) in zero_checks {
        if value == 0 {
            out.push(error(codes::CFG_ZERO_RESOURCE, format!("`{name}` must be nonzero")));
        }
    }
    if cfg.subcores_per_sm > 0 && !cfg.max_warps_per_sm.is_multiple_of(cfg.subcores_per_sm) {
        out.push(error(
            codes::CFG_RAGGED_SLOTS,
            format!(
                "{} warp slots do not divide evenly among {} sub-core schedulers",
                cfg.max_warps_per_sm, cfg.subcores_per_sm
            ),
        ));
    }
    // The engine keeps one readiness bit per scheduler-table entry and one
    // write-port bit per bank in single machine words.
    let width_checks = [
        ("warp slots per SM", cfg.max_warps_per_sm, GpuConfig::MAX_WARPS_PER_SM),
        (
            "register banks per scheduler domain",
            cfg.banks_per_domain(),
            GpuConfig::MAX_BANKS_PER_DOMAIN,
        ),
    ];
    for (what, value, limit) in width_checks {
        if value > limit {
            out.push(error(
                codes::CFG_TOO_WIDE,
                format!("{value} {what} exceed the engine's limit of {limit}"),
            ));
        }
    }
    if cfg.stats.trace_window > 0 {
        if u64::from(cfg.stats.trace_window) > cfg.max_cycles {
            out.push(Diagnostic::new(
                codes::CFG_TRACE_WINDOW,
                Severity::Warning,
                Location::default(),
                format!(
                    "trace window of {} cycles exceeds the {}-cycle simulation limit; \
                     no window would ever complete",
                    cfg.stats.trace_window, cfg.max_cycles
                ),
            ));
        }
        if cfg.stats.trace_sm >= cfg.num_sms as usize {
            out.push(error(
                codes::CFG_TRACE_SM,
                format!(
                    "traced SM {} does not exist (the GPU has {} SMs)",
                    cfg.stats.trace_sm, cfg.num_sms
                ),
            ));
        }
    }
    let bad_param = match design {
        Design::ShuffleTable(0) => Some("shuffle hash table needs at least one entry"),
        Design::CuScaling(0) => Some("collector-unit scaling needs at least one unit"),
        Design::RbaBanks(0) | Design::Banks(0) => Some("bank sweep needs at least one bank"),
        _ => None,
    };
    if let Some(why) = bad_param {
        out.push(error(
            codes::CFG_DESIGN_PARAM,
            format!("design `{}` has an invalid parameter: {why}", design.label()),
        ));
    }
}

/// Checks that `kernel`'s blocks can be scheduled at all under `cfg`.
pub fn check_kernel_fit(kernel: &Kernel, cfg: &GpuConfig, out: &mut Vec<Diagnostic>) {
    let mut unschedulable = |message: String| {
        out.push(Diagnostic::new(
            codes::CFG_UNSCHEDULABLE,
            Severity::Error,
            Location::kernel(kernel.name()),
            message,
        ));
    };
    if kernel.warps_per_block() > cfg.max_warps_per_sm {
        unschedulable(format!(
            "a block needs {} warp slots but an SM has {}",
            kernel.warps_per_block(),
            cfg.max_warps_per_sm
        ));
    }
    if kernel.shared_mem_bytes() > cfg.shared_mem_per_sm {
        unschedulable(format!(
            "a block claims {} B of shared memory but an SM has {} B",
            kernel.shared_mem_bytes(),
            cfg.shared_mem_per_sm
        ));
    }
}

/// Validates a multi-tenant partition layout: per-tenant SM sets, rigid
/// exclusivity, and whether each tenant's kernels can schedule at all
/// within its partition. `rigid` says the partition policy promises
/// exclusive SM ownership, making overlaps an error.
pub fn check_tenants(
    cfg: &GpuConfig,
    tenants: &[TenantRun],
    rigid: bool,
    out: &mut Vec<Diagnostic>,
) {
    for t in tenants {
        let name = t.spec.name();
        if t.sm_set.is_empty() {
            out.push(error(
                codes::TENANT_SMSET,
                format!("tenant `{name}` has an empty SM set and can never run"),
            ));
        } else if let Some(max) = t.sm_set.max_id() {
            if max >= cfg.num_sms {
                out.push(error(
                    codes::TENANT_SMSET,
                    format!("tenant `{name}` claims SM {max} but the GPU has {} SMs", cfg.num_sms),
                ));
            }
        }
        for kernel in t.spec.app().kernels() {
            check_tenant_kernel(cfg, name, kernel, out);
        }
    }
    if rigid {
        for (i, a) in tenants.iter().enumerate() {
            for b in &tenants[i + 1..] {
                if a.sm_set.overlaps(&b.sm_set) {
                    out.push(error(
                        codes::TENANT_OVERLAP,
                        format!(
                            "tenants `{}` and `{}` share SMs under a rigid partition \
                             (sets {} and {})",
                            a.spec.name(),
                            b.spec.name(),
                            a.sm_set.label(),
                            b.sm_set.label()
                        ),
                    ));
                }
            }
        }
    }
}

/// Mirror of the engine's schedulability check, scoped to one tenant:
/// partition size never changes per-SM capacity, so a block that cannot
/// fit on one SM is unschedulable for the tenant no matter how many SMs
/// its partition holds.
fn check_tenant_kernel(cfg: &GpuConfig, tenant: &str, kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    let mut unschedulable = |why: String| {
        out.push(Diagnostic::new(
            codes::TENANT_UNSCHEDULABLE,
            Severity::Error,
            Location::kernel(kernel.name()),
            format!("tenant `{tenant}` can never schedule this kernel: {why}"),
        ));
    };
    if kernel.warps_per_block() > cfg.max_warps_per_sm {
        unschedulable(format!(
            "a block needs {} warp slots but an SM of its partition has {}",
            kernel.warps_per_block(),
            cfg.max_warps_per_sm
        ));
    }
    if kernel.shared_mem_bytes() > cfg.shared_mem_per_sm {
        unschedulable(format!(
            "a block claims {} B of shared memory but an SM of its partition has {} B",
            kernel.shared_mem_bytes(),
            cfg.shared_mem_per_sm
        ));
    }
    let (domains, regs_capacity) = match cfg.connectivity {
        Connectivity::Partitioned => (cfg.subcores_per_sm, cfg.rf_regs_per_subcore),
        Connectivity::FullyConnected => (1, cfg.rf_regs_per_subcore * cfg.subcores_per_sm),
    };
    if domains > 0 {
        let per_domain = kernel.warps_per_block().div_ceil(domains);
        if per_domain * u32::from(kernel.regs_per_thread()) > regs_capacity {
            unschedulable(format!(
                "{per_domain} warps × {} regs/thread exceed the {regs_capacity}-register \
                 sub-core file",
                kernel.regs_per_thread()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{KernelBuilder, ProgramBuilder};

    fn config_codes(cfg: &GpuConfig, design: Design) -> Vec<&'static str> {
        let mut out = Vec::new();
        check_config(cfg, design, &mut out);
        out.iter().map(|d| d.code).collect()
    }

    #[test]
    fn valid_presets_are_quiet() {
        for cfg in [GpuConfig::volta_v100(), GpuConfig::ampere_a100(), GpuConfig::turing_like()] {
            assert!(config_codes(&cfg, Design::Baseline).is_empty());
        }
    }

    #[test]
    fn zero_collector_units_diagnosed_without_panic() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.cus_per_subcore = 0;
        assert!(config_codes(&cfg, Design::Baseline).contains(&codes::CFG_ZERO_RESOURCE));
    }

    #[test]
    fn oversized_tables_and_bank_files_diagnosed_without_panic() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_warps_per_sm = 128;
        assert_eq!(config_codes(&cfg, Design::Baseline), [codes::CFG_TOO_WIDE]);
        // 9 banks x 4 sub-cores is fine partitioned, too wide pooled.
        let cfg = GpuConfig::volta_v100().with_banks(9);
        assert!(config_codes(&cfg, Design::Baseline).is_empty());
        assert_eq!(config_codes(&cfg.fully_connected(), Design::Baseline), [codes::CFG_TOO_WIDE]);
        let cfg = GpuConfig::volta_v100().with_banks(33);
        assert_eq!(config_codes(&cfg, Design::Baseline), [codes::CFG_TOO_WIDE]);
    }

    #[test]
    fn ragged_warp_slots_are_an_error() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_warps_per_sm = 63; // 63 slots across 4 schedulers
        assert!(config_codes(&cfg, Design::Baseline).contains(&codes::CFG_RAGGED_SLOTS));
    }

    #[test]
    fn oversized_trace_window_is_flagged() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_cycles = 10_000;
        cfg.stats.trace_window = 20_000;
        assert!(config_codes(&cfg, Design::Baseline).contains(&codes::CFG_TRACE_WINDOW));
    }

    #[test]
    fn traced_sm_must_exist() {
        let mut cfg = GpuConfig::volta_v100().with_sms(2);
        cfg.stats.trace_window = 1024;
        cfg.stats.trace_sm = 5;
        assert!(config_codes(&cfg, Design::Baseline).contains(&codes::CFG_TRACE_SM));
    }

    #[test]
    fn zero_design_parameters_are_errors() {
        let cfg = GpuConfig::volta_v100();
        for design in [Design::ShuffleTable(0), Design::CuScaling(0), Design::Banks(0)] {
            assert!(config_codes(&cfg, design).contains(&codes::CFG_DESIGN_PARAM), "{design:?}");
        }
        assert!(!config_codes(&cfg, Design::ShuffleTable(32)).contains(&codes::CFG_DESIGN_PARAM));
    }

    #[test]
    fn tenant_partitions_are_validated() {
        use subcore_engine::{SmSet, TenantRun};
        use subcore_isa::{fma_kernel, App, Suite, TenantSpec};
        let cfg = GpuConfig::volta_v100().with_sms(4);
        let app = |name: &str| App::new(name, Suite::Micro, vec![fma_kernel("k", 2, 8, 16)]);
        let tenant =
            |name: &str, sms: SmSet| TenantRun { spec: TenantSpec::new(app(name)), sm_set: sms };
        let mut out = Vec::new();
        check_tenants(
            &cfg,
            &[tenant("good", SmSet::contiguous(0, 2)), tenant("peer", SmSet::contiguous(2, 2))],
            true,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        // Empty and out-of-range sets fire L040.
        check_tenants(
            &cfg,
            &[tenant("empty", SmSet::new(Vec::new())), tenant("oob", SmSet::contiguous(3, 2))],
            false,
            &mut out,
        );
        assert_eq!(out.iter().filter(|d| d.code == codes::TENANT_SMSET).count(), 2);

        // Overlap only fires when the policy is rigid (exclusive).
        out.clear();
        let shared = [tenant("a", SmSet::contiguous(0, 3)), tenant("b", SmSet::contiguous(2, 2))];
        check_tenants(&cfg, &shared, false, &mut out);
        assert!(out.is_empty());
        check_tenants(&cfg, &shared, true, &mut out);
        assert_eq!(out.iter().filter(|d| d.code == codes::TENANT_OVERLAP).count(), 1);
    }

    #[test]
    fn tenant_kernels_that_cannot_fit_are_diagnosed() {
        use subcore_engine::{SmSet, TenantRun};
        use subcore_isa::{App, Suite, TenantSpec};
        let cfg = GpuConfig::volta_v100().with_sms(4);
        // 32 warps/block × 8 warps/sub-core × 256 regs/thread blows the
        // per-sub-core register file no matter the partition size.
        let p = ProgramBuilder::new().barrier().build();
        let k = KernelBuilder::new("fat")
            .warps_per_block(32)
            .regs_per_thread(255)
            .uniform_program(p)
            .build();
        let t = TenantRun {
            spec: TenantSpec::new(App::new("hog", Suite::Micro, vec![k])),
            sm_set: SmSet::all(4),
        };
        let mut out = Vec::new();
        check_tenants(&cfg, &[t], true, &mut out);
        assert!(
            out.iter().any(|d| d.code == codes::TENANT_UNSCHEDULABLE),
            "expected L042: {out:?}"
        );
        // Diagnostics, not panics: the report renders.
        assert!(out[0].render().contains("hog"));
    }

    #[test]
    fn impossible_blocks_are_unschedulable() {
        let p = ProgramBuilder::new().barrier().build();
        let k = KernelBuilder::new("huge")
            .warps_per_block(64)
            .shared_mem_bytes(u32::MAX)
            .uniform_program(p)
            .build();
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_warps_per_sm = 32;
        let mut out = Vec::new();
        check_kernel_fit(&k, &cfg, &mut out);
        assert_eq!(out.iter().filter(|d| d.code == codes::CFG_UNSCHEDULABLE).count(), 2);
    }
}
