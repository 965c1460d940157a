//! The common experiment shape: a (apps × designs) speedup sweep, run at
//! *cell* granularity under the supervisor.
//!
//! Every figure's sweep routes through [`run_cell_sweep`]: one supervised
//! job per (app, design) cell, so a panicking, erroring, or wedged cell
//! costs exactly that cell — the rest of the campaign completes, the
//! failure lands in the table as an annotated gap, and (when journaling is
//! configured) the cell's outcome is recorded for `repro --resume`.
//! Fault injection ([`crate::faultgen`]) hooks in here too, which is what
//! lets `repro chaos` drive the whole stack through its failure paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::faultgen::{self, Fault, FaultPlan};
use crate::journal::{journal_for, resume_enabled, Journal};
use crate::report::Table;
use crate::runner::{geomean, mean, speedup};
use crate::session::{context, session, SimKey, SimSession};
use crate::supervisor::{
    policy, supervise_map, JobError, JobErrorKind, JobFailure, JobOutcome, JobTag, SupervisorPolicy,
};
use subcore_engine::{GpuConfig, RunStats};
use subcore_isa::App;
use subcore_metrics::names as mx;
use subcore_metrics::Span;
use subcore_sched::Design;

/// Whether sweeps on the installed run context start their
/// longest-predicted cells first (classic LPT list scheduling, which
/// shrinks the tail where the pool idles waiting for one late-started
/// giant). Default on; `repro --no-reorder` restores submission order.
pub fn reorder_enabled() -> bool {
    context().reorder
}

/// The environment one supervised campaign runs in. [`SweepEnv::on`] is a
/// private, unjournaled, fault-free run under the default policy; callers
/// name only what differs (`SweepEnv { resume: true, ..SweepEnv::on(&s) }`).
#[derive(Debug, Clone)]
pub struct SweepEnv<'a> {
    /// The session cells simulate through and the campaign is booked on.
    pub session: &'a SimSession,
    /// Where settled cells are recorded; `None` runs unjournaled.
    pub journal: Option<&'a Journal>,
    /// Skip cells the journal records complete (`repro --resume`).
    pub resume: bool,
    /// Supervision policy of the campaign's pool.
    pub policy: SupervisorPolicy,
    /// Faults to inject into figure-sweep cells (`repro chaos`).
    pub faults: Option<FaultPlan>,
    /// Start the longest-predicted cells first.
    pub reorder: bool,
}

/// What a campaign settled, in cell order.
pub(crate) struct Campaign {
    /// The result of every completed cell; `None` where it failed.
    pub done: Vec<Option<Arc<RunStats>>>,
    /// The failure record of every unfilled cell, in cell order.
    pub failures: Vec<JobError>,
    /// Whether the pool stopped early.
    pub aborted: bool,
    /// Cells served from the journal without running.
    pub journal_skips: u64,
}

impl<'a> SweepEnv<'a> {
    /// The defaults, on `session`.
    pub fn on(session: &'a SimSession) -> Self {
        SweepEnv {
            session,
            journal: None,
            resume: false,
            policy: SupervisorPolicy::default(),
            faults: None,
            reorder: true,
        }
    }

    /// What the installed run context describes, recording into `journal`.
    pub fn installed(journal: Option<&'a Journal>) -> Self {
        SweepEnv {
            journal,
            resume: resume_enabled(),
            policy: policy().clone(),
            reorder: reorder_enabled(),
            ..SweepEnv::on(session())
        }
    }

    /// The campaign protocol every journaled sweep follows: manifest →
    /// `campaign` span → one supervised job per cell, each a `job` span
    /// that either replays the cell from the journal (`--resume`, counted)
    /// or calls `run` and records the result → the session books the
    /// pool's report → failures are journaled (aborted cells never ran and
    /// stay unrecorded, so a later resume picks them up).
    ///
    /// `tags[i]` identifies `cells[i]` and must carry its key; `deadline`
    /// is the policy-wide per-job watchdog deadline. `run` gets the cell,
    /// its key, the 1-based attempt and the job's span.
    pub(crate) fn run_campaign<C, F>(
        &self,
        cells: &[C],
        tags: Vec<JobTag>,
        deadline: Option<Duration>,
        run: F,
    ) -> Campaign
    where
        C: Sync,
        F: Fn(&C, SimKey, u32, &Span) -> Result<Arc<RunStats>, JobFailure> + Sync,
    {
        let journal = self.journal;
        if let Some(j) = journal {
            j.set_total(cells.len() as u64);
        }
        let policy = SupervisorPolicy { job_timeout: deadline, ..self.policy.clone() };
        let journal_skips = AtomicU64::new(0);
        // Campaign → job → phase span hierarchy: `repro top` shows in-flight
        // jobs under their campaign while the sweep runs; closed jobs keep
        // their attempt / resume notes for the recent-completions list.
        let campaign_span =
            subcore_metrics::span("campaign", journal.map_or("adhoc", |j| j.campaign()));
        let jobs: Vec<(&C, &JobTag)> = cells.iter().zip(&tags).collect();
        let report = supervise_map(
            &jobs,
            tags.clone(),
            |&(cell, tag), attempt| {
                let key = SimKey::from_raw(tag.key.expect("campaign cells are keyed"));
                let mut job_span = campaign_span.child("job", &key.to_string());
                job_span.note("app", &tag.app);
                job_span.note("design", &tag.design);
                if attempt > 1 {
                    job_span.note("attempt", attempt);
                }
                if self.resume {
                    if let Some(stats) = journal.and_then(|j| j.completed(key)) {
                        journal_skips.fetch_add(1, Ordering::Relaxed);
                        job_span.note("resume", "journal-skip");
                        return Ok(Arc::new(stats));
                    }
                }
                let stats = run(cell, key, attempt, &job_span)?;
                if let Some(j) = journal {
                    let _persist = job_span.child("persist", "journal");
                    j.record_done(key, &tag.app, &tag.design, &stats);
                }
                Ok(stats)
            },
            &policy,
        );

        let journal_skips = journal_skips.load(Ordering::Relaxed);
        self.session.telemetry().absorb(&report, journal_skips);
        let _collect = campaign_span.child("collect", "merge");
        let mut failures = Vec::new();
        let done = report
            .outcomes
            .into_iter()
            .map(|outcome| match outcome {
                JobOutcome::Done(stats) => Some(stats),
                JobOutcome::Failed(e) => {
                    if e.kind != JobErrorKind::Aborted {
                        if let Some(j) = journal {
                            j.record_failed(&e);
                        }
                    }
                    failures.push(e);
                    None
                }
            })
            .collect();
        Campaign { done, failures, aborted: report.aborted, journal_skips }
    }
}

/// Outcome of one cell-granular sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// `cells[app][slot]`: slot 0 is the baseline, slot `j + 1` is
    /// `designs[j]`. `None` marks a cell the sweep could not fill.
    pub cells: Vec<Vec<Option<Arc<RunStats>>>>,
    /// The failure record of every unfilled cell, in cell order.
    pub failures: Vec<JobError>,
    /// Whether the sweep stopped early (fail-fast, failure budget, or a
    /// deliberate mid-campaign kill).
    pub aborted: bool,
    /// Cells served from the journal without running (`--resume`).
    pub journal_skips: u64,
}

/// Runs the (apps × ({baseline} ∪ designs)) sweep supervised, in the
/// installed run context (its session, journal root, resume flag, policy
/// and ordering). `campaign` names the journal directory (conventionally
/// the table name).
pub fn run_cell_sweep(
    campaign: &str,
    base: &GpuConfig,
    apps: &[App],
    designs: &[Design],
) -> SweepOutcome {
    let journal = journal_for(campaign);
    run_cell_sweep_on(&SweepEnv::installed(journal.as_ref()), base, apps, designs)
}

/// [`run_cell_sweep`] in an explicit environment — the entry point for the
/// fault-injection harness and tests, which need private sessions, scratch
/// journals, tailored policies, and phase-scoped fault plans.
pub fn run_cell_sweep_on(
    env: &SweepEnv,
    base: &GpuConfig,
    apps: &[App],
    designs: &[Design],
) -> SweepOutcome {
    let sess = env.session;
    let slots = designs.len() + 1;
    // Cost-aware ordering: predict every cell statically, register the
    // predictions with the session (so run records carry the error
    // columns), and — unless disabled — start the longest-predicted cells
    // first. The journal, SimKeys, and the outcome grid are all
    // order-independent, so reordering only moves start times.
    let mut cells: Vec<(usize, Design, SimKey, u64)> = (0..apps.len())
        .flat_map(|ai| {
            std::iter::once(Design::Baseline).chain(designs.iter().copied()).map(move |d| (ai, d))
        })
        .map(|(ai, design)| {
            let key = sess.key(base, design, &apps[ai]);
            let predicted = crate::estimate::predicted_cycles(base, design, &apps[ai]);
            sess.predict(key, predicted);
            (ai, design, key, predicted)
        })
        .collect();
    if env.reorder {
        cells.sort_by_key(|&(.., predicted)| std::cmp::Reverse(predicted));
    }
    // Per-job watchdog budgets: unless the user pinned an explicit
    // `--job-timeout`, each cell's deadline comes from its *predicted*
    // cycles (clamped — see [`SupervisorPolicy::predicted_timeout`])
    // rather than the flat `max_cycles` bound shared by the whole sweep.
    // The chosen budget is recorded in the `supervisor.job.budget_ms`
    // histogram so campaigns can audit what the watchdog was armed with.
    let explicit_deadline = env.policy.job_timeout.is_some();
    let tags: Vec<JobTag> = cells
        .iter()
        .map(|&(ai, design, key, predicted)| {
            let budget = (!explicit_deadline)
                .then(|| SupervisorPolicy::predicted_timeout(predicted))
                .inspect(|b| {
                    subcore_metrics::observe(
                        mx::SUPERVISOR_JOB_BUDGET_MS,
                        u64::try_from(b.as_millis()).unwrap_or(u64::MAX),
                    );
                });
            JobTag {
                app: apps[ai].name().to_owned(),
                design: design.label(),
                key: Some(key.as_u64()),
                timeout: budget,
            }
        })
        .collect();
    // Each job is exactly one simulation, so the deadline is the
    // single-sim deadline derived from the sweep's cycle budget.
    let deadline = env.policy.effective_timeout(base.max_cycles, 1);
    let campaign =
        env.run_campaign(&cells, tags, deadline, |&(ai, design, ..), key, attempt, job| {
            let fault = env.faults.and_then(|p| p.fault_for(key, attempt));
            match fault {
                Some(Fault::Panic) => {
                    panic!("injected fault: panic for cell {key} (attempt {attempt})")
                }
                Some(Fault::Stall) => {
                    std::thread::sleep(env.faults.expect("plan drew the fault").stall)
                }
                _ => {}
            }
            let stats = {
                let _simulate = job.child("simulate", &design.label());
                sess.try_run(base, design, &apps[ai]).map_err(|e| JobFailure::sim(e.to_string()))?
            };
            if fault == Some(Fault::CorruptEntry) {
                if let Some(disk) = sess.disk_cache() {
                    faultgen::corrupt_file(&disk.entry_path(key));
                }
            }
            Ok(stats)
        });

    let mut grid: Vec<Vec<Option<Arc<RunStats>>>> = vec![vec![None; slots]; apps.len()];
    for (&(ai, design, ..), stats) in cells.iter().zip(campaign.done) {
        place(&mut grid[ai], designs, design, stats);
    }
    SweepOutcome {
        cells: grid,
        failures: campaign.failures,
        aborted: campaign.aborted,
        journal_skips: campaign.journal_skips,
    }
}

/// Stores `stats` into the app's slot vector: the *first* cell per app is
/// the baseline reference (slot 0); design cells land at their design's
/// index + 1. A `designs` list containing `Baseline` itself fills both.
fn place(
    row: &mut [Option<Arc<RunStats>>],
    designs: &[Design],
    design: Design,
    stats: Option<Arc<RunStats>>,
) {
    if design == Design::Baseline && row[0].is_none() {
        row[0] = stats.clone();
    }
    if let Some(j) = designs.iter().position(|&d| d == design) {
        row[j + 1] = stats;
    }
}

/// Runs every app under the baseline and each design, producing a table of
/// speedups (design cycles vs. GTO + round-robin baseline cycles).
///
/// Appends `MEAN` and `GEOMEAN` summary rows. Cells the supervised sweep
/// could not fill render as gaps (`-`) with an explanatory annotation —
/// one failed cell never costs the rest of the table.
pub fn speedup_table(
    name: &str,
    title: &str,
    base: &GpuConfig,
    apps: &[App],
    designs: &[Design],
) -> Table {
    let columns = designs.iter().map(Design::label).collect();
    let mut table = Table::new(name, title, columns);
    let outcome = run_cell_sweep(name, base, apps, designs);
    for (ai, app) in apps.iter().enumerate() {
        let row = &outcome.cells[ai];
        let values: Vec<f64> = match &row[0] {
            Some(baseline) => (0..designs.len())
                .map(|j| row[j + 1].as_ref().map_or(f64::NAN, |s| speedup(baseline, s)))
                .collect(),
            None => vec![f64::NAN; designs.len()],
        };
        table.push_row(app.name(), values);
    }
    for e in &outcome.failures {
        table.note_gap(e.to_string());
    }
    append_summaries(&mut table);
    table
}

/// Estimated simulations per row job used to scale [`fill_rows`]'s derived
/// watchdog deadline (row jobs typically run a handful of designs).
const ROW_SIMS_ESTIMATE: u32 = 4;

/// Maps `f` over `items` supervised, one *row job* per item: failures
/// become `None` results plus a gap annotation on `table` instead of a
/// process panic. The figure modules use this for row-shaped sweeps that
/// do not fit the (apps × designs) cell grid (SM-count sweeps, traced
/// runs, ablations); `label` names each item in failure records.
pub fn fill_rows<T, R, F, L>(table: &mut Table, items: Vec<T>, label: L, f: F) -> Vec<Option<R>>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(&T) -> String + Sync,
{
    let tags: Vec<JobTag> = items
        .iter()
        .map(|item| JobTag { app: label(item), design: String::new(), key: None, timeout: None })
        .collect();
    let base_policy = policy();
    let row_policy = SupervisorPolicy {
        job_timeout: base_policy
            .effective_timeout(crate::runner::suite_base().max_cycles, ROW_SIMS_ESTIMATE),
        ..base_policy.clone()
    };
    let report = supervise_map(
        &items,
        tags,
        |item, _attempt| {
            let _span = subcore_metrics::span("job", &label(item));
            Ok(f(item))
        },
        &row_policy,
    );
    session().telemetry().absorb(&report, 0);
    for e in report.failures() {
        table.note_gap(e.to_string());
    }
    report.outcomes.into_iter().map(JobOutcome::ok).collect()
}

/// [`fill_rows`] for the figure modules' most common shape: each item
/// produces exactly one table row. Failed items still land in the table —
/// as a row of NaNs (rendered as gaps) under the same label, next to the
/// gap annotation — so a table's shape never depends on which rows
/// survived.
pub fn fill_table<T, F, L>(table: &mut Table, items: Vec<T>, label: L, f: F)
where
    T: Send + Sync,
    F: Fn(&T) -> Vec<f64> + Sync,
    L: Fn(&T) -> String + Sync,
{
    let labels: Vec<String> = items.iter().map(&label).collect();
    let cols = table.columns.len();
    let rows = fill_rows(table, items, label, f);
    for (label, row) in labels.into_iter().zip(rows) {
        table.push_row(label, row.unwrap_or_else(|| vec![f64::NAN; cols]));
    }
}

/// Appends `MEAN` / `GEOMEAN` rows over the current data rows.
pub fn append_summaries(table: &mut Table) {
    let cols = table.columns.len();
    let mut means = Vec::with_capacity(cols);
    let mut gmeans = Vec::with_capacity(cols);
    for c in 0..cols {
        let vals: Vec<f64> = table.rows.iter().map(|(_, v)| v[c]).filter(|v| !v.is_nan()).collect();
        means.push(mean(&vals));
        gmeans.push(geomean(&vals));
    }
    table.push_row("MEAN", means);
    table.push_row("GEOMEAN", gmeans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::suite_base;
    use subcore_isa::{fma_kernel, Suite};

    fn apps() -> Vec<App> {
        vec![
            App::new("a", Suite::Micro, vec![fma_kernel("k", 4, 8, 32)]),
            App::new("b", Suite::Micro, vec![fma_kernel("k", 2, 16, 32)]),
        ]
    }

    #[test]
    fn speedup_table_has_summary_rows() {
        let t = speedup_table(
            "t",
            "test",
            &suite_base(),
            &apps(),
            &[Design::Rba, Design::FullyConnected],
        );
        assert_eq!(t.rows.len(), 4); // 2 apps + MEAN + GEOMEAN
        assert_eq!(t.rows[2].0, "MEAN");
        assert_eq!(t.rows[3].0, "GEOMEAN");
        assert!(t.annotations.is_empty(), "clean sweep has no gaps: {:?}", t.annotations);
        // Speedups are positive and sane.
        for (_, vals) in &t.rows {
            for v in vals {
                assert!(*v > 0.3 && *v < 5.0, "implausible speedup {v}");
            }
        }
    }

    #[test]
    fn failed_cells_become_gaps_not_panics() {
        // A 1-cycle budget makes every simulation error; the sweep must
        // produce a full-shape outcome of Nones plus failure records.
        let sess = SimSession::in_memory();
        let tiny = suite_base().with_max_cycles(1);
        let out = run_cell_sweep_on(&SweepEnv::on(&sess), &tiny, &apps(), &[Design::Rba]);
        assert_eq!(out.cells.len(), 2);
        assert!(out.cells.iter().flatten().all(Option::is_none));
        assert_eq!(out.failures.len(), 4, "every cell records its failure");
        assert!(out.failures.iter().all(|e| e.kind == JobErrorKind::Sim));
        assert!(!out.aborted);
    }

    #[test]
    fn sweep_journals_cells_and_resume_skips_them() {
        let root =
            std::env::temp_dir().join(format!("subcore-sweep-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let j = Journal::open(&root, "t");
        let sess = SimSession::in_memory();
        let env = SweepEnv { journal: Some(&j), ..SweepEnv::on(&sess) };
        let out = run_cell_sweep_on(&env, &suite_base(), &apps(), &[Design::Rba]);
        assert!(out.failures.is_empty());
        let p = j.progress();
        assert_eq!((p.total, p.done, p.failed), (Some(4), 4, 0));
        // A fresh session resuming from the journal recomputes nothing and
        // returns bit-identical results.
        let fresh = SimSession::in_memory();
        let env = SweepEnv { journal: Some(&j), resume: true, ..SweepEnv::on(&fresh) };
        let resumed = run_cell_sweep_on(&env, &suite_base(), &apps(), &[Design::Rba]);
        assert_eq!(fresh.telemetry().snapshot().sims, 0, "resume must not simulate");
        for (a, b) in out.cells.iter().flatten().zip(resumed.cells.iter().flatten()) {
            assert_eq!(a.as_deref(), b.as_deref(), "resumed stats must be bit-identical");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_sweep_is_booked_on_its_own_session_and_no_other() {
        let (base, apps, designs) = (suite_base(), apps(), [Design::Rba]);
        let a = SimSession::in_memory();
        let b = SimSession::in_memory();
        let keys: Vec<_> = apps
            .iter()
            .flat_map(|app| [Design::Baseline, Design::Rba].map(|d| a.key(&base, d, app)))
            .collect();
        // Draws are a pure function of (seed, key, attempt): take the first
        // seed under which exactly one cell panics on its first attempt
        // (and not on its second) and no other cell draws anything.
        let plan = (0..10_000)
            .map(|seed| FaultPlan::new(seed, 0.5))
            .find(|p| {
                let wobbly =
                    |k| p.fault_for(k, 1) == Some(Fault::Panic) && p.fault_for(k, 2).is_none();
                keys.iter().filter(|&&k| wobbly(k)).count() == 1
                    && keys.iter().all(|&k| wobbly(k) || p.fault_for(k, 1).is_none())
            })
            .expect("some seed faults exactly one of four cells");
        faultgen::quiet_injected_panics();
        let root =
            std::env::temp_dir().join(format!("subcore-sweep-ledger-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let j = Journal::open(&root, "t");
        let quick =
            SupervisorPolicy { backoff: Duration::from_millis(1), ..SupervisorPolicy::default() };
        // No retry budget: the faulted cell fails. Resumed with one retry
        // under the same plan, it panics again, retries and completes.
        let no_retry = SupervisorPolicy { retries: 0, ..quick.clone() };
        let env = SweepEnv {
            journal: Some(&j),
            policy: no_retry,
            faults: Some(plan),
            ..SweepEnv::on(&a)
        };
        let first = run_cell_sweep_on(&env, &base, &apps, &designs);
        assert_eq!(first.failures.len(), 1);
        let env = SweepEnv { resume: true, policy: quick, ..env };
        let resumed = run_cell_sweep_on(&env, &base, &apps, &designs);
        assert!(resumed.failures.is_empty());

        let s = a.telemetry().snapshot();
        assert_eq!((s.failed, s.retried, s.timed_out, s.journal_skips), (1, 1, 0, 3));
        assert_eq!((s.sims, s.runs), (4, 4), "three cells, then the faulted one on resume");
        assert!(s.pool_max_workers > 0 && s.pool_wall > Duration::ZERO);
        let failures = a.telemetry().failure_records();
        assert_eq!(failures.len(), 1);
        assert_eq!((failures[0].kind, failures[0].attempts), (JobErrorKind::Panic, 1));
        let csv = root.join("a.csv");
        a.telemetry().write_csv(&csv).expect("write csv");
        let text = std::fs::read_to_string(&csv).expect("read back");
        assert_eq!(text.lines().filter(|l| l.contains(",panic,false,")).count(), 1, "{text}");

        // The bystander session, alive the whole time, booked nothing.
        assert_eq!(b.telemetry().snapshot(), SimSession::in_memory().telemetry().snapshot());
        assert!(b.telemetry().failure_records().is_empty());
        let csv = root.join("b.csv");
        b.telemetry().write_csv(&csv).expect("write csv");
        assert_eq!(std::fs::read_to_string(&csv).expect("read back").lines().count(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fill_table_keeps_failed_rows_as_nan_gaps() {
        let mut table = Table::new("t", "rows", vec!["a".into(), "b".into()]);
        fill_table(
            &mut table,
            vec![1u64, 2],
            |&x| format!("row{x}"),
            |&x| {
                if x == 2 {
                    panic!("row 2 dies");
                }
                vec![1.0, 2.0]
            },
        );
        assert_eq!(table.rows.len(), 2, "failed rows keep their slot");
        assert_eq!(table.rows[1].0, "row2");
        assert!(table.rows[1].1.iter().all(|v| v.is_nan()));
        assert_eq!(table.annotations.len(), 1);
    }

    #[test]
    fn fill_rows_annotates_failures() {
        let mut table = Table::new("t", "rows", vec!["v".into()]);
        let out = fill_rows(
            &mut table,
            vec![1u64, 2, 3],
            |&x| format!("row{x}"),
            |&x| {
                if x == 2 {
                    panic!("row 2 dies");
                }
                x * 10
            },
        );
        assert_eq!(out, vec![Some(10), None, Some(30)]);
        assert_eq!(table.annotations.len(), 1);
        assert!(table.annotations[0].contains("row2"), "got {:?}", table.annotations);
    }
}
