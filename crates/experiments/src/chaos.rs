//! Self-verifying fault-injection harness (`repro chaos`).
//!
//! The harness proves the supervised execution layer end to end, in four
//! phases over one campaign, then checks them against each other:
//!
//! 1. **Reference** — a clean sweep on a private in-memory session: the
//!    ground-truth `RunStats` per cell.
//! 2. **Faulted + killed** — the same sweep on a *fresh* session (own disk
//!    cache, own journal) whose cell at run-order position 0 panics (it
//!    settles as a failure, never retried), killed by a deterministic
//!    `stop_after`. The kill starts every position below it, so the panic
//!    always fires. The harness then overwrites the disk-cache entry of the
//!    first journaled-complete cell (in cell order) with garbage.
//! 3. **Resume** — another fresh session replays the journal with resume
//!    semantics: journaled-complete cells are skipped, the rest (failed,
//!    aborted, never-started) recompute. The corrupted cell is among the
//!    skipped, so this phase never reads its entry.
//! 4. **Replay** — a fresh session with no journal over the same disk
//!    cache: every cell loads from disk except the corrupted one, which
//!    the loader rejects and the session re-simulates.
//!
//! Every discrepancy becomes a [`ChaosReport`] mismatch: surviving faulted
//! cells, the resumed campaign and the replayed one must be bit-identical
//! to the reference, the resume must recompute nothing the journal
//! recorded, and the replay must simulate exactly the corrupted cell.
//!
//! Both faults are named, not drawn: every cell is a pure function of its
//! `(config, design, app)`, so a fault picked from what the supervisor
//! guarantees fires on every run, where a seeded draw tests only the cells
//! its seed happens to hit. The phases share a process but nothing else:
//! separate sessions mean the bit-exactness checks compare genuinely
//! independent computations (engine determinism), not one memo table read
//! twice. Reaching the checks at all is the "no fault escalates to process
//! abort" proof — every injected fault was contained by the supervisor, or
//! the harness would have died with it.

use std::path::PathBuf;

use crate::cache::DiskCache;
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
    pub fn headline() -> ChaosOptions {
        let apps: Vec<App> = ["pb-sgemm", "rod-bp", "pb-spmv", "pb-sad", "tpcC-q9"]
            .iter()
            .map(|name| subcore_workloads::app_by_name(name).expect("registry app"))
            .collect();
        let cells = apps.len() * 2;
        ChaosOptions {
            apps,
            base: GpuConfig::volta_v100().with_sms(2).with_max_cycles(20_000_000),
            designs: vec![Design::Rba],
            kill_after: cells / 2,
            scratch: std::env::temp_dir().join(format!("subcore-chaos-{}", std::process::id())),
        }
    }

    /// Every cell's `app/design` name and key, in cell order (apps ×
    /// ({baseline} ∪ designs), the order of [`SweepOutcome::cells`]).
    fn cells(&self) -> Vec<(String, SimKey)> {
        let designs = || std::iter::once(Design::Baseline).chain(self.designs.iter().copied());
        let cell = |app: &App, d: Design| {
            (format!("{}/{}", app.name(), d.label()), SimKey::compute(&self.base, d, app))
        };
        self.apps.iter().flat_map(|app| designs().map(move |d| cell(app, d))).collect()
    }
}

/// Outcome of one chaos campaign (see [`run_chaos`]).
#[derive(Debug)]
pub struct ChaosReport {
    /// Total cells in the campaign.
    pub total_cells: usize,
    /// The cell the named panic failed, from its failure record.
    pub panicked: Option<String>,
    /// The journaled-complete cell whose disk-cache entry was corrupted.
    pub corrupted: Option<String>,
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
    /// Fresh simulations the replay phase ran.
    pub replay_sims: u64,
    /// Cells the replay phase loaded from the disk cache.
    pub replay_disk_hits: u64,
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
        let name = |cell: &Option<String>| cell.clone().unwrap_or_else(|| "none".into());
        let mut out = format!(
            "chaos campaign: {} cells, panicked cell {}, corrupted cell {}\n",
            self.total_cells,
            name(&self.panicked),
            name(&self.corrupted)
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
        out.push_str(&format!(
            "  replay phase: {} fresh simulation(s), {} disk-cache hit(s)\n",
            self.replay_sims, self.replay_disk_hits
        ));
        if self.ok() {
            out.push_str(
                "  verdict: OK — recovery bit-exact, journal resume complete, \
                 corrupted entry re-simulated\n",
            );
        } else {
            out.push_str(&format!("  verdict: FAILED ({} mismatch(es))\n", self.mismatches.len()));
            for m in &self.mismatches {
                out.push_str(&format!("    ! {m}\n"));
            }
        }
        out
    }
}

/// Overwrites `key`'s disk-cache entry with bytes that are not valid
/// JSON, so the loader's corruption path (not its version gate) is what
/// recovers. Errs if the entry was not there to corrupt.
fn corrupt_entry(cache: &DiskCache, key: SimKey) -> std::io::Result<()> {
    let path = cache.entry_path(key);
    std::fs::metadata(&path)?;
    std::fs::write(path, b"\x7fCHAOS{corrupted-by-fault-injection")
}

/// Runs the four-phase chaos campaign. Never panics on injected faults —
/// any escalation past the supervisor would kill the calling process,
/// which is exactly what the harness exists to rule out.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    std::fs::remove_dir_all(&opts.scratch).ok();
    let cache_dir = opts.scratch.join("simcache");
    let journal = Journal::open(opts.scratch.join("journal"), "chaos");
    let cells = opts.cells();
    let mut mismatches = Vec::new();
    let disk_session = || SimSession::new(SessionOptions { disk_cache: Some(cache_dir.clone()) });
    let sweep = |env: SweepEnv| run_cell_sweep_on(&env, &opts.base, &opts.apps, &opts.designs);

    // Phase 1: clean reference, private in-memory session, no supervisor
    // knobs beyond defaults — ground truth.
    let reference = sweep(SweepEnv::on(&SimSession::in_memory()));

    // Phase 2: the first cell to start panics; the campaign is journaled
    // and killed mid-way. Then the named corruption: the first
    // journaled-complete cell's disk entry.
    let faulted = sweep(SweepEnv {
        journal: Some(&journal),
        policy: SupervisorPolicy { stop_after: Some(opts.kill_after), ..Default::default() },
        panic_at: Some(0),
        ..SweepEnv::on(&disk_session())
    });
    let journaled_at_kill = journal.progress().done;
    let corrupted = cells.iter().find(|&&(_, key)| journal.completed(key).is_some());
    match corrupted {
        None => mismatches.push("no journaled-complete cell to corrupt".into()),
        Some((name, key)) => {
            if let Err(e) = corrupt_entry(&DiskCache::new(&cache_dir), *key) {
                mismatches.push(format!("cannot corrupt the disk entry of {name}: {e}"));
            }
        }
    }

    // Phase 3: resume on a fresh session sharing the journal and disk
    // cache, without the panic.
    let resume_sess = disk_session();
    let resumed =
        sweep(SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&resume_sess) });

    // Phase 4: replay with no journal over the same cache, so the
    // corrupted entry is the one cell the loader cannot serve.
    let replay_sess = disk_session();
    let replayed = sweep(SweepEnv::on(&replay_sess));

    let (failures, killed): (Vec<JobError>, Vec<JobError>) =
        faulted.failures.iter().cloned().partition(|e| e.kind != JobErrorKind::Aborted);
    let panicked = match failures.as_slice() {
        [e] if e.kind == JobErrorKind::Panic => Some(format!("{}/{}", e.app, e.design)),
        _ => None,
    };
    let replay = replay_sess.telemetry().snapshot();
    let mut report = ChaosReport {
        total_cells: cells.len(),
        panicked,
        corrupted: corrupted.map(|(name, _)| name.clone()),
        faulted_failures: failures,
        killed_cells: killed.len(),
        journaled_at_kill,
        resume_skips: resumed.journal_skips,
        resume_sims: resume_sess.telemetry().snapshot().sims,
        replay_sims: replay.sims,
        replay_disk_hits: replay.disk_hits,
        mismatches,
    };
    verify(&mut report, &cells, &reference, &faulted, &resumed, &replayed);
    std::fs::remove_dir_all(&opts.scratch).ok();
    report
}

fn verify(
    report: &mut ChaosReport,
    cells: &[(String, SimKey)],
    reference: &SweepOutcome,
    faulted: &SweepOutcome,
    resumed: &SweepOutcome,
    replayed: &SweepOutcome,
) {
    let mismatches = &mut report.mismatches;
    // The reference must be complete — a gap there is a harness bug, and
    // every downstream comparison would be vacuous.
    let reference: Vec<_> = reference.cells.iter().flatten().collect();
    for ((name, _), cell) in cells.iter().zip(&reference) {
        if cell.is_none() {
            mismatches.push(format!("reference gap at {name}"));
        }
    }
    if !faulted.aborted {
        mismatches.push("faulted phase was not killed mid-campaign".into());
    }
    if report.panicked.is_none() {
        let failures: Vec<String> = report.faulted_failures.iter().map(|e| e.to_string()).collect();
        mismatches.push(format!("the named panic did not fail exactly one cell: {failures:?}"));
    }
    // Every phase's cells are bit-identical to the reference; the resumed
    // and replayed campaigns are also complete, with no failure or abort.
    for (phase, outcome, complete) in
        [("faulted", faulted, false), ("resumed", resumed, true), ("replayed", replayed, true)]
    {
        for ((name, _), (cell, want)) in
            cells.iter().zip(outcome.cells.iter().flatten().zip(&reference))
        {
            match (cell, want) {
                (None, _) if complete => mismatches.push(format!("{phase} gap at {name}")),
                (Some(a), Some(b)) if a != b => {
                    mismatches.push(format!("{phase} cell {name} diverged from the reference"));
                }
                _ => {}
            }
        }
        if complete {
            if outcome.aborted {
                mismatches.push(format!("{phase} phase aborted"));
            }
            mismatches.extend(outcome.failures.iter().map(|e| format!("{phase} failure: {e}")));
        }
    }
    // Journaled-complete cells were skipped, not recomputed.
    if report.resume_skips != report.journaled_at_kill {
        mismatches.push(format!(
            "resume skipped {} cells but the journal recorded {} complete",
            report.resume_skips, report.journaled_at_kill
        ));
    }
    // The loader served every entry but the corrupted one.
    let hits = cells.len() as u64 - 1;
    if (report.replay_sims, report.replay_disk_hits) != (1, hits) {
        mismatches.push(format!(
            "replay ran {} simulation(s) and {} disk hit(s), expected 1 and {hits}",
            report.replay_sims, report.replay_disk_hits
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{fma_kernel, Suite};

    #[test]
    fn the_named_drill_panics_corrupts_and_replays_one_cell() {
        // Micro FMA apps on a small config, so the drill runs in seconds.
        // `chaos-i` runs 1 + i warps per sub-core, so `chaos-2` is predicted
        // longest and starts first.
        let apps = (0..3)
            .map(|i| {
                let kernel = fma_kernel("k", 2, 4 + 4 * i, 32);
                App::new(format!("chaos-{i}"), Suite::Micro, vec![kernel])
            })
            .collect();
        let opts = ChaosOptions {
            apps,
            base: GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000),
            designs: vec![Design::Rba],
            kill_after: 3,
            scratch: std::env::temp_dir()
                .join(format!("subcore-chaos-test-named-{}", std::process::id())),
        };
        let report = run_chaos(&opts);
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.panicked.as_deref(), Some("chaos-2/baseline"));
        assert_eq!(report.faulted_failures.len(), 1);
        assert_eq!(report.faulted_failures[0].kind, JobErrorKind::Panic);
        // The kill starts positions 0..3: one panics, two complete.
        assert_eq!((report.killed_cells, report.journaled_at_kill), (3, 2));
        assert_eq!(report.corrupted.as_deref(), Some("chaos-1/baseline"));
        assert_eq!((report.resume_skips, report.resume_sims), (2, 4));
        assert_eq!((report.replay_sims, report.replay_disk_hits), (1, 5));
        assert!(report.render().contains("panicked cell chaos-2/baseline"));
        assert!(report.render().contains("verdict: OK"));
    }

    #[test]
    fn corrupt_file_leaves_invalid_json() {
        let dir =
            std::env::temp_dir().join(format!("subcore-chaos-corrupt-{}", std::process::id()));
        let (cache, key) = (DiskCache::new(&dir), SimKey::from_raw(7));
        assert!(corrupt_entry(&cache, key).is_err(), "a missing entry is not corrupted");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(key), "{\"valid\": true}").unwrap();
        corrupt_entry(&cache, key).unwrap();
        let bytes = std::fs::read(cache.entry_path(key)).unwrap();
        assert!(subcore_persist::Json::parse(&String::from_utf8_lossy(&bytes)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
