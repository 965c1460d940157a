//! Self-verifying fault-injection harness (`repro chaos`).
//!
//! The harness proves the supervised execution layer end to end, in four
//! phases over one campaign:
//!
//! 1. **Reference** — a clean sweep on a private in-memory session: the
//!    ground-truth `RunStats` per cell.
//! 2. **Faulted + killed** — the same sweep on a *fresh* session (own disk
//!    cache, own journal) under a seeded [`FaultPlan`]: an injected panic
//!    exercises capture (the cell settles as a failure, never retried),
//!    cache-entry corruption exercises the loader's degradation path; a
//!    deterministic `stop_after` kill aborts the campaign partway.
//! 3. **Resume** — another fresh session replays the journal without the
//!    plan (which draws per cell, so it would fault the same cells again)
//!    with resume semantics: journaled-complete cells are skipped, the
//!    rest (failed, aborted, never-started) recompute.
//! 4. **Verify** — every discrepancy becomes a [`ChaosReport`] mismatch:
//!    surviving faulted cells and all resumed cells must be bit-identical
//!    to the reference, the resume must recompute nothing the journal
//!    already recorded, the merged campaign must be complete, and a plan
//!    with a nonzero rate must have fired at least one fault.
//!
//! The phases share a process but nothing else: separate sessions mean the
//! bit-exactness checks compare genuinely independent computations (engine
//! determinism), not one memo table read twice. Reaching phase 4 at all is
//! the "no fault escalates to process abort" proof — every injected fault
//! was contained by the supervisor, or the harness would have died with
//! it.

use std::path::PathBuf;

use crate::cache::DiskCache;
use crate::faultgen::{Fault, FaultPlan};
use crate::journal::Journal;
use crate::session::{SessionOptions, SimKey, SimSession};
use crate::supervisor::{JobError, JobErrorKind, SupervisorPolicy};
use crate::sweep::{run_cell_sweep_on, SweepEnv, SweepOutcome};
use subcore_engine::GpuConfig;
use subcore_isa::App;
use subcore_sched::Design;

/// Configuration of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Fault-plan seed (`--seed`).
    pub seed: u64,
    /// Fault probability per cell (`--fault-rate`).
    pub rate: f64,
    /// Workloads in the campaign.
    pub apps: Vec<App>,
    /// Base configuration.
    pub base: GpuConfig,
    /// Non-baseline designs (the baseline always runs as reference).
    pub designs: Vec<Design>,
    /// Settled-cell count at which the faulted phase kills the campaign.
    pub kill_after: usize,
    /// Scratch directory for the campaign's disk cache and journal.
    pub scratch: PathBuf,
}

impl ChaosOptions {
    /// The acceptance campaign: the headline workload subset under
    /// `Baseline` + `Rba` on the bench smoke configuration, killed halfway.
    pub fn headline(seed: u64, rate: f64) -> ChaosOptions {
        let apps: Vec<App> = ["pb-sgemm", "rod-bp", "pb-spmv", "pb-sad", "tpcC-q9"]
            .iter()
            .map(|name| subcore_workloads::app_by_name(name).expect("registry app"))
            .collect();
        let cells = apps.len() * 2;
        ChaosOptions {
            seed,
            rate,
            apps,
            base: GpuConfig::volta_v100().with_sms(2).with_max_cycles(20_000_000),
            designs: vec![Design::Rba],
            kill_after: cells / 2,
            scratch: std::env::temp_dir()
                .join(format!("subcore-chaos-{seed}-{}", std::process::id())),
        }
    }
}

/// Outcome of one chaos campaign (see [`run_chaos`]).
#[derive(Debug)]
pub struct ChaosReport {
    /// Total cells in the campaign.
    pub total_cells: usize,
    /// Faults the faulted phase fired, by class: injected panics caught
    /// as failures, and disk-cache entries left corrupted.
    pub fired: (usize, usize),
    /// Per-cell failure records from the faulted phase (excluding
    /// aborted-by-kill cells).
    pub faulted_failures: Vec<JobError>,
    /// Cells the faulted phase aborted via the mid-campaign kill.
    pub killed_cells: usize,
    /// Cells the journal recorded complete at the kill point.
    pub journaled_at_kill: u64,
    /// Cells the resume phase skipped via the journal.
    pub resume_skips: u64,
    /// Fresh simulations the resume phase ran.
    pub resume_sims: u64,
    /// Every verification failure; empty means the supervisor, journal,
    /// and loader all held.
    pub mismatches: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let (p, c) = self.fired;
        let mut out = format!(
            "chaos campaign: {} cells, faults fired: {p} panic, {c} corrupt\n",
            self.total_cells
        );
        out.push_str(&format!(
            "  faulted phase: {} failure record(s), {} cell(s) aborted by the kill, \
             {} journaled complete\n",
            self.faulted_failures.len(),
            self.killed_cells,
            self.journaled_at_kill
        ));
        for e in &self.faulted_failures {
            out.push_str(&format!("    - {e}\n"));
        }
        out.push_str(&format!(
            "  resume phase: {} cell(s) skipped via journal, {} fresh simulation(s)\n",
            self.resume_skips, self.resume_sims
        ));
        if self.ok() {
            out.push_str("  verdict: OK — recovery bit-exact, journal resume complete\n");
        } else {
            out.push_str(&format!("  verdict: FAILED ({} mismatch(es))\n", self.mismatches.len()));
            for m in &self.mismatches {
                out.push_str(&format!("    ! {m}\n"));
            }
        }
        out
    }
}

/// Runs the four-phase chaos campaign. Never panics on injected faults —
/// any escalation past the supervisor would kill the calling process,
/// which is exactly what the harness exists to rule out.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let plan = FaultPlan { seed: opts.seed, rate: opts.rate };
    std::fs::remove_dir_all(&opts.scratch).ok();
    let cache_dir = opts.scratch.join("simcache");
    let journal = Journal::open(opts.scratch.join("journal"), "chaos");

    // Phase 1: clean reference, private in-memory session, no supervisor
    // knobs beyond defaults — ground truth.
    let reference_sess = SimSession::in_memory();
    let sweep = |env: SweepEnv| run_cell_sweep_on(&env, &opts.base, &opts.apps, &opts.designs);
    let reference = sweep(SweepEnv::on(&reference_sess));

    // Phase 2: faulted, journaled, and killed mid-campaign.
    let faulted_sess = SimSession::new(SessionOptions { disk_cache: Some(cache_dir.clone()) });
    let faulted = sweep(SweepEnv {
        journal: Some(&journal),
        policy: SupervisorPolicy { stop_after: Some(opts.kill_after), ..Default::default() },
        faults: Some(plan),
        ..SweepEnv::on(&faulted_sess)
    });
    let journaled_at_kill = journal.progress().done;
    // What it fired: the injected panics it caught, and the cache entries
    // it left unreadable. A drawn fault on a cell the kill aborted never
    // fires.
    let panics = faulted.failures.iter().filter(|e| e.kind == JobErrorKind::Panic).count();
    let cache = DiskCache::new(&cache_dir);
    let corrupted = opts
        .apps
        .iter()
        .flat_map(|app| {
            let designs = std::iter::once(Design::Baseline).chain(opts.designs.iter().copied());
            designs.map(|design| SimKey::compute(&opts.base, design, app))
        })
        .filter(|&key| plan.fault_for(key) == Some(Fault::CorruptEntry))
        .filter(|&key| cache.entry_path(key).exists() && cache.load(key).is_none())
        .count();

    // Phase 3: resume fault-free on a fresh session sharing the journal
    // and disk cache (corrupted entries are real targets for the loader).
    let resume_sess = SimSession::new(SessionOptions { disk_cache: Some(cache_dir) });
    let resumed =
        sweep(SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&resume_sess) });

    // Phase 4: verify.
    let mut mismatches = Vec::new();
    verify(&mut mismatches, opts, &reference, &faulted, &resumed, journaled_at_kill);
    if opts.rate > 0.0 && panics + corrupted == 0 {
        mismatches.push("faulted phase fired no fault".into());
    }

    let report = ChaosReport {
        total_cells: opts.apps.len() * (opts.designs.len() + 1),
        fired: (panics, corrupted),
        faulted_failures: faulted
            .failures
            .iter()
            .filter(|e| e.kind != JobErrorKind::Aborted)
            .cloned()
            .collect(),
        killed_cells: faulted.failures.iter().filter(|e| e.kind == JobErrorKind::Aborted).count(),
        journaled_at_kill,
        resume_skips: resumed.journal_skips,
        resume_sims: resume_sess.telemetry().snapshot().sims,
        mismatches,
    };
    std::fs::remove_dir_all(&opts.scratch).ok();
    report
}

fn verify(
    mismatches: &mut Vec<String>,
    opts: &ChaosOptions,
    reference: &SweepOutcome,
    faulted: &SweepOutcome,
    resumed: &SweepOutcome,
    journaled_at_kill: u64,
) {
    let cell_name = |ai: usize, slot: usize| {
        let design =
            if slot == 0 { Design::Baseline.label() } else { opts.designs[slot - 1].label() };
        format!("{}/{design}", opts.apps[ai].name())
    };
    // The reference must be complete — a gap there is a harness bug, and
    // every downstream comparison would be vacuous.
    for (ai, row) in reference.cells.iter().enumerate() {
        for (slot, cell) in row.iter().enumerate() {
            if cell.is_none() {
                mismatches.push(format!("reference gap at {}", cell_name(ai, slot)));
            }
        }
    }
    if !faulted.aborted {
        mismatches.push("faulted phase was not killed mid-campaign".into());
    }
    // Surviving faulted cells are bit-identical to the reference.
    for (ai, (f_row, r_row)) in faulted.cells.iter().zip(&reference.cells).enumerate() {
        for (slot, (f, r)) in f_row.iter().zip(r_row).enumerate() {
            if let (Some(f), Some(r)) = (f, r) {
                if f != r {
                    mismatches.push(format!(
                        "faulted survivor {} diverged from the reference",
                        cell_name(ai, slot)
                    ));
                }
            }
        }
    }
    // The resume completes the campaign: no gaps, no failures, no abort,
    // and bit-exact against the reference.
    if resumed.aborted {
        mismatches.push("resume phase aborted".into());
    }
    for e in &resumed.failures {
        mismatches.push(format!("resume phase failure: {e}"));
    }
    for (ai, (res_row, ref_row)) in resumed.cells.iter().zip(&reference.cells).enumerate() {
        for (slot, (res, reference)) in res_row.iter().zip(ref_row).enumerate() {
            match (res, reference) {
                (None, _) => mismatches
                    .push(format!("resumed campaign still has a gap at {}", cell_name(ai, slot))),
                (Some(a), Some(b)) if a != b => mismatches.push(format!(
                    "resumed cell {} diverged from the reference",
                    cell_name(ai, slot)
                )),
                _ => {}
            }
        }
    }
    // Journaled-complete cells were skipped, not recomputed.
    if resumed.journal_skips != journaled_at_kill {
        mismatches.push(format!(
            "resume skipped {} cells but the journal recorded {} complete",
            resumed.journal_skips, journaled_at_kill
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{fma_kernel, Suite};

    /// `n` distinct micro FMA apps.
    fn micro_apps(n: u32) -> Vec<App> {
        (0..n)
            .map(|i| {
                App::new(format!("chaos-{i}"), Suite::Micro, vec![fma_kernel("k", 2, 4 + i, 32)])
            })
            .collect()
    }

    /// A tiny, fast campaign: micro FMA apps on a small config, so panic
    /// recovery, corruption, and kill/resume run in seconds.
    fn tiny(seed: u64, rate: f64, name: &str) -> ChaosOptions {
        ChaosOptions {
            seed,
            rate,
            apps: micro_apps(3),
            base: GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000),
            designs: vec![Design::Rba],
            kill_after: 3,
            scratch: std::env::temp_dir()
                .join(format!("subcore-chaos-test-{name}-{}", std::process::id())),
        }
    }

    #[test]
    fn chaos_with_zero_rate_is_a_clean_resume_drill() {
        // 16 cells, so the kill after 3 settle always finds cells not yet
        // started, however a small pool's threads interleave (with 6, a
        // loaded 2-core machine could start them all before the kill).
        let opts = ChaosOptions { apps: micro_apps(8), ..tiny(1, 0.0, "clean") };
        let report = run_chaos(&opts);
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert!(report.faulted_failures.is_empty());
        assert!(report.killed_cells > 0, "the kill must abort part of the campaign");
        assert_eq!(report.resume_skips, report.journaled_at_kill);
        assert!(report.render().contains("verdict: OK"));
    }

    #[test]
    fn chaos_with_injected_panics_recovers_bit_exactly() {
        // Draws are a pure function of (seed, key), and the kill starts a
        // fixed half of the cells, so seed 5 fires one panic among them.
        let report = run_chaos(&tiny(5, 0.4, "faulty"));
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.fired.0, 1, "one injected panic fired and was caught");
        assert_eq!(report.faulted_failures.len(), 1);
        assert_eq!(report.faulted_failures[0].kind, JobErrorKind::Panic);
        assert!(report.render().contains("faults fired: 1 panic"));
    }

    #[test]
    fn a_plan_that_fires_nothing_fails_the_drill() {
        // Seed 2 draws faults only on cells the kill aborts.
        let opts = tiny(2, 0.4, "silent");
        let plan = FaultPlan::new(opts.seed, opts.rate);
        let drawn = opts
            .apps
            .iter()
            .flat_map(|app| [Design::Baseline, Design::Rba].map(|d| (d, app)))
            .filter(|&(d, app)| plan.fault_for(SimKey::compute(&opts.base, d, app)).is_some())
            .count();
        assert!(drawn > 0, "the plan draws faults, on cells that never start");
        let report = run_chaos(&opts);
        assert_eq!(report.fired, (0, 0));
        assert_eq!(report.mismatches, ["faulted phase fired no fault"]);
    }
}
