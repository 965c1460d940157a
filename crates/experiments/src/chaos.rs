//! Self-verifying fault-injection harness (`repro chaos`).
//!
//! The harness proves the supervised execution layer end to end, in four
//! phases over one campaign:
//!
//! 1. **Reference** — a clean sweep on a private in-memory session: the
//!    ground-truth `RunStats` per cell.
//! 2. **Faulted + killed** — the same sweep on a *fresh* session (own disk
//!    cache, own journal) under a seeded [`FaultPlan`]: injected panics
//!    exercise capture + retry, stalls exercise the watchdog, cache-entry
//!    corruption exercises the loader's degradation path; a deterministic
//!    `stop_after` kill aborts the campaign partway.
//! 3. **Resume** — another fresh session replays the journal fault-free
//!    with resume semantics: journaled-complete cells are skipped, the
//!    rest (failed, aborted, never-started) recompute.
//! 4. **Verify** — every discrepancy becomes a [`ChaosReport`] mismatch:
//!    surviving faulted cells and all resumed cells must be bit-identical
//!    to the reference, the resume must recompute nothing the journal
//!    already recorded, and the merged campaign must be complete.
//!
//! The phases share a process but nothing else: separate sessions mean the
//! bit-exactness checks compare genuinely independent computations (engine
//! determinism), not one memo table read twice. Reaching phase 4 at all is
//! the "no fault escalates to process abort" proof — every injected fault
//! was contained by the supervisor, or the harness would have died with
//! it.

use std::path::PathBuf;
use std::time::Duration;

use crate::faultgen::{Fault, FaultPlan};
use crate::journal::Journal;
use crate::session::{SessionOptions, SimSession};
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
    /// Fault probability per `(cell, attempt)` draw (`--fault-rate`).
    pub rate: f64,
    /// Workloads in the campaign.
    pub apps: Vec<App>,
    /// Base configuration.
    pub base: GpuConfig,
    /// Non-baseline designs (the baseline always runs as reference).
    pub designs: Vec<Design>,
    /// Watchdog deadline for the faulted phase — shorter than `stall` so
    /// injected stalls actually trip it, longer than any honest cell.
    pub job_timeout: Duration,
    /// How long an injected stall sleeps (must exceed `job_timeout`).
    pub stall: Duration,
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
            job_timeout: Duration::from_secs(30),
            stall: Duration::from_secs(40),
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
    /// First-attempt faults the plan draws for this campaign, by class
    /// (panic, stall, corrupt) — what the seed injects.
    pub drawn: (usize, usize, usize),
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
        let (p, s, c) = self.drawn;
        let mut out = format!(
            "chaos campaign: {} cells, faults drawn on first attempt: \
             {p} panic, {s} stall, {c} corrupt\n",
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
    crate::faultgen::quiet_injected_panics();
    let plan = FaultPlan { seed: opts.seed, rate: opts.rate, stall: opts.stall };
    std::fs::remove_dir_all(&opts.scratch).ok();
    let cache_dir = opts.scratch.join("simcache");
    let journal = Journal::open(opts.scratch.join("journal"), "chaos");

    // Phase 1: clean reference, private in-memory session, no supervisor
    // knobs beyond defaults — ground truth.
    let reference_sess = SimSession::in_memory();
    let sweep = |env: SweepEnv| run_cell_sweep_on(&env, &opts.base, &opts.apps, &opts.designs);
    let reference = sweep(SweepEnv::on(&reference_sess));

    // What the seed will inject (first attempts), for the report.
    let mut drawn = (0, 0, 0);
    for app in &opts.apps {
        for design in std::iter::once(Design::Baseline).chain(opts.designs.iter().copied()) {
            match plan.fault_for(reference_sess.key(&opts.base, design, app), 1) {
                Some(Fault::Panic) => drawn.0 += 1,
                Some(Fault::Stall) => drawn.1 += 1,
                Some(Fault::CorruptEntry) => drawn.2 += 1,
                None => {}
            }
        }
    }

    // Phase 2: faulted, journaled, and killed mid-campaign.
    let faulted_sess = SimSession::new(SessionOptions { disk_cache: Some(cache_dir.clone()) });
    let faulted_policy = SupervisorPolicy {
        retries: 1,
        backoff: Duration::from_millis(20),
        job_timeout: Some(opts.job_timeout),
        fail_fast: false,
        max_failures: None,
        stop_after: Some(opts.kill_after),
    };
    let faulted = sweep(SweepEnv {
        journal: Some(&journal),
        policy: faulted_policy,
        faults: Some(plan),
        ..SweepEnv::on(&faulted_sess)
    });
    let journaled_at_kill = journal.progress().done;

    // Phase 3: resume fault-free on a fresh session sharing the journal
    // and disk cache (corrupted entries are real targets for the loader).
    let resume_sess = SimSession::new(SessionOptions { disk_cache: Some(cache_dir) });
    let resume_policy =
        SupervisorPolicy { job_timeout: Some(opts.job_timeout), ..SupervisorPolicy::default() };
    let resumed = sweep(SweepEnv {
        journal: Some(&journal),
        resume: true,
        policy: resume_policy,
        ..SweepEnv::on(&resume_sess)
    });

    // Phase 4: verify.
    let mut mismatches = Vec::new();
    verify(&mut mismatches, opts, &reference, &faulted, &resumed, journaled_at_kill);

    let report = ChaosReport {
        total_cells: opts.apps.len() * (opts.designs.len() + 1),
        drawn,
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

    /// A tiny, fast campaign: micro FMA apps on a small config, with a
    /// short watchdog so injected stalls cost milliseconds, not minutes.
    fn tiny(seed: u64, rate: f64, name: &str) -> ChaosOptions {
        let apps: Vec<App> = (0..3)
            .map(|i| {
                App::new(format!("chaos-{i}"), Suite::Micro, vec![fma_kernel("k", 2, 4 + i, 32)])
            })
            .collect();
        ChaosOptions {
            seed,
            rate,
            apps,
            // The stall is deliberately *shorter* than the watchdog
            // deadline here: injected stalls become slow successes, so the
            // test exercises panic recovery, corruption, and kill/resume
            // in seconds (the watchdog's abandon path has its own
            // supervisor unit test).
            base: GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000),
            designs: vec![Design::Rba],
            job_timeout: Duration::from_secs(30),
            stall: Duration::from_secs(2),
            kill_after: 3,
            scratch: std::env::temp_dir()
                .join(format!("subcore-chaos-test-{name}-{}", std::process::id())),
        }
    }

    #[test]
    fn chaos_with_zero_rate_is_a_clean_resume_drill() {
        let report = run_chaos(&tiny(1, 0.0, "clean"));
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert!(report.faulted_failures.is_empty());
        assert!(report.killed_cells > 0, "the kill must abort part of the campaign");
        assert_eq!(report.resume_skips, report.journaled_at_kill);
        assert!(report.render().contains("verdict: OK"));
    }

    #[test]
    fn chaos_with_injected_panics_recovers_bit_exactly() {
        // A rate high enough to all but guarantee injections across the
        // 6 cells' attempts.
        let report = run_chaos(&tiny(42, 0.4, "faulty"));
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        let (p, s, c) = report.drawn;
        assert!(p + s + c > 0, "rate 0.4 over 6 cells must draw at least one fault");
    }
}
