//! Configuration-validation pass: impossible `Design`/`GpuConfig`
//! combinations reported as diagnostics instead of panics.
//!
//! The rules themselves live in the engine, stated once: this pass maps
//! each of [`GpuConfig::broken_rules`] to a code by its class, reports every
//! rule [`GpuConfig::block_misfits`] names for a block, and adds only the
//! tracing- and design-parameter checks the engine discovers mid-run. So a
//! bad configuration is reported *before* anything simulates, and lint and
//! the engine cannot disagree about what fits:
//!
//! * **L030** (error) — a resource count is zero.
//! * **L031** (error) — warp slots don't divide evenly among sub-core
//!   schedulers.
//! * **L032** (warning) — the trace window is longer than `max_cycles`,
//!   so a windowed trace would never complete a single window.
//! * **L033** (error) — the traced SM index is out of range.
//! * **L034** (error) — a parameterized design point carries a zero
//!   parameter (e.g. a 0-entry shuffle hash table or 0-bank file).
//! * **L035** (error) — a kernel's blocks can never be scheduled: the
//!   block's warps, shared memory, or the registers of its fullest
//!   scheduler domain exceed what one SM owns. Exactly the kernels
//!   `simulate_app` rejects as unschedulable.
//! * **L037** (error) — more warp slots per SM or register banks per
//!   scheduler domain than the engine's one-word bitmasks hold.
//!
//! The multi-tenant pass ([`check_tenants`]) validates spatial partitions
//! the same way — diagnostics, never panics:
//!
//! * **L040** (error) — a tenant's SM set is empty or out of range.
//! * **L041** (error) — two tenants' SM sets overlap under a rigid
//!   (exclusive) partition policy.
//! * **L042** (error) — a tenant's kernel breaks the same block-fit rules
//!   as L035: partition size never changes per-SM capacity, so no
//!   partition can save it.

use crate::diag::{codes, Diagnostic, Location, Severity};
use subcore_engine::{GpuConfig, RuleClass, TenantRun};
use subcore_sched::Design;

fn error(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, Location::default(), message)
}

/// Checks the SM/design combination itself (no kernel involved).
pub fn check_config(cfg: &GpuConfig, design: Design, out: &mut Vec<Diagnostic>) {
    for (class, why) in cfg.broken_rules() {
        let code = match class {
            RuleClass::Zero => codes::CFG_ZERO_RESOURCE,
            RuleClass::RaggedSlots => codes::CFG_RAGGED_SLOTS,
            RuleClass::TooWide => codes::CFG_TOO_WIDE,
        };
        out.push(error(code, why.to_owned()));
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
        // Partition size never changes per-SM capacity, so a block that
        // cannot fit one SM is unschedulable however many SMs it gets.
        for kernel in t.spec.app().kernels() {
            for misfit in cfg.block_misfits(kernel) {
                out.push(Diagnostic::new(
                    codes::TENANT_UNSCHEDULABLE,
                    Severity::Error,
                    Location::kernel(kernel.name()),
                    format!("tenant `{name}` can never schedule this kernel: {misfit}"),
                ));
            }
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
        let out = crate::Linter::new(cfg, Design::Baseline).lint_kernel(&k);
        assert_eq!(out.iter().filter(|d| d.code == codes::CFG_UNSCHEDULABLE).count(), 2);
    }
}
