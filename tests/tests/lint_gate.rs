//! The `repro lint` verify gate in integration-test form: the shipped
//! registry must be free of lint errors, every warning must be covered by
//! an explicit allow-list entry, and broken configurations must come back
//! as diagnostics — never panics.

use subcore_engine::{simulate_app, GpuConfig, Policies, SimError};
use subcore_experiments::lint::{lint_app, LintTotals};
use subcore_isa::{App, KernelBuilder, ProgramBuilder, Suite};
use subcore_lint::{codes, Linter, Severity};
use subcore_sched::Design;
use subcore_workloads::{all_apps, lint_allowances};

/// The exact condition `scripts/verify.sh` enforces with
/// `repro lint --all --deny-warnings`: zero errors and zero unallowed
/// warnings across all 112 registry apps.
#[test]
fn registry_passes_deny_warnings_gate() {
    let mut totals = LintTotals::default();
    for app in all_apps() {
        let report = lint_app(Design::Baseline, &app);
        assert!(
            report.passes(true),
            "{} fails the deny-warnings lint gate:\n{}",
            app.name(),
            report.render(false)
        );
        totals.add(&report);
    }
    assert_eq!(totals.apps, 112);
    assert_eq!(totals.errors, 0);
    assert_eq!(totals.warnings, 0);
}

/// The gate suppresses stressors via the allow-list; the rules themselves
/// still fire. Every structured-bank stressor must carry an allowed L011.
#[test]
fn stressors_are_diagnosed_not_silenced() {
    for name in ["pb-mriq", "cg-pgrnk", "db-lstm-tr"] {
        let app = all_apps().into_iter().find(|a| a.name() == name).expect("registry app");
        let report = lint_app(Design::Baseline, &app);
        let clustered = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::BANK_CLUSTERING)
            .unwrap_or_else(|| panic!("{name} should still trip L011"));
        assert!(clustered.allowed.is_some(), "{name}'s L011 must be allowed, not absent");
    }
}

/// Allowances never reach error severity: a hypothetical registry app with
/// a hard error fails the gate regardless of its allow-list entries.
#[test]
fn allowances_never_cover_errors() {
    for allowance in lint_allowances() {
        for code in allowance.codes {
            assert!(
                !matches!(*code, codes::REG_OUT_OF_RANGE | codes::RF_CAPACITY),
                "allow-list must not name error codes ({code} for {})",
                allowance.app
            );
        }
    }
}

/// Impossible configurations become diagnostics, not panics, and errors
/// gate even without `--deny-warnings`.
#[test]
fn broken_configs_diagnose_without_panicking() {
    let mut cfg = GpuConfig::volta_v100();
    cfg.rf_banks_per_subcore = 0;
    cfg.cus_per_subcore = 0;
    cfg.max_warps_per_sm = 63;
    cfg.stats.trace_sm = 99;
    cfg.stats.trace_window = 1 << 20;
    cfg.max_cycles = 1024;
    let diags = Linter::new(cfg, Design::Baseline).lint_config();
    assert!(diags.iter().any(|d| d.severity == Severity::Error));
    let found: Vec<&str> = diags.iter().map(|d| d.code).collect();
    for expected in [codes::CFG_ZERO_RESOURCE, codes::CFG_RAGGED_SLOTS, codes::CFG_TRACE_SM] {
        assert!(found.contains(&expected), "missing {expected} in {found:?}");
    }
}

/// Lint and engine admission read one block-fit rule: over a grid of
/// one-block, barrier-only kernels on four SM splits, lint reports L035
/// exactly when `simulate_app` rejects the kernel as unschedulable. The
/// ISA caps a block at 64 warps, so the warp-slot rule is reached through
/// a V100 with 32 warp slots rather than a 65-warp block.
#[test]
fn l035_fires_exactly_when_the_engine_rejects_the_block() {
    let v100 = GpuConfig::volta_v100().with_sms(1);
    let mut narrow = v100.clone();
    narrow.max_warps_per_sm = 32;
    let configs = [
        ("partitioned", v100.clone()),
        ("fully connected", v100.clone().fully_connected()),
        ("4 banks", v100.with_banks(4)),
        ("32 warp slots", narrow),
    ];
    let mut rejections = 0;
    for (split, cfg) in &configs {
        for warps in [1, 8, 32, 64] {
            for regs in [32, 64, 255] {
                for shared in [0, cfg.shared_mem_per_sm + 1] {
                    let kernel = KernelBuilder::new("fit")
                        .blocks(1)
                        .warps_per_block(warps)
                        .regs_per_thread(regs)
                        .shared_mem_bytes(shared)
                        .uniform_program(ProgramBuilder::new().barrier().build())
                        .build();
                    let linted = Linter::new(cfg.clone(), Design::Baseline)
                        .lint_kernel(&kernel)
                        .iter()
                        .any(|d| d.code == codes::CFG_UNSCHEDULABLE);
                    let app = App::new("fit", Suite::Micro, vec![kernel]);
                    let point = format!("{split}: {warps} warps x {regs} regs, {shared} B shared");
                    let rejected = match simulate_app(cfg, &Policies::hardware_baseline(), &app) {
                        Ok(_) => false,
                        Err(SimError::KernelUnschedulable { .. }) => true,
                        Err(e) => panic!("{point}: {e}"),
                    };
                    assert_eq!(linted, rejected, "{point}");
                    rejections += usize::from(rejected);
                }
            }
        }
    }
    assert!(
        (1..4 * 4 * 3 * 2).contains(&rejections),
        "{rejections} rejections: both sides reached"
    );
}
