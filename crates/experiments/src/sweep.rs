//! The common experiment shape: a (apps × designs) speedup sweep, run at
//! *cell* granularity under the supervisor.
//!
//! Every figure's sweep routes through [`run_cell_sweep`]: one supervised
//! job per (app, design) cell, so a panicking or erroring cell (a run
//! that hits its `max_cycles` bound included) costs exactly that cell —
//! the rest of the campaign completes, the failure lands in the table as
//! an annotated gap, and (when journaling is configured) the cell's
//! outcome is recorded for `repro --resume`.
//! A named panic ([`SweepEnv::panic_at`]) hooks in here too, which is what
//! lets `repro chaos` drive the whole stack through its failure paths.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cell::Cell;
use crate::journal::{journal_for, resume_enabled, Journal};
use crate::report::Table;
use crate::runner::{geomean, mean, speedup};
use crate::session::{session, SimSession};
use crate::supervisor::{
    policy, supervise, JobError, JobErrorKind, JobOutcome, JobTag, SupervisorPolicy,
};
use subcore_engine::{GpuConfig, RunStats};
use subcore_isa::App;
use subcore_sched::Design;

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
    /// The run-order position whose cell panics instead of simulating
    /// (`repro chaos`). Position 0 is the longest-predicted cell, the first
    /// the pool starts, so a `stop_after` kill never keeps it from firing.
    pub panic_at: Option<usize>,
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
            panic_at: None,
        }
    }

    /// What the installed run context describes, recording into `journal`.
    pub fn installed(journal: Option<&'a Journal>) -> Self {
        SweepEnv {
            journal,
            resume: resume_enabled(),
            policy: policy().clone(),
            ..SweepEnv::on(session())
        }
    }

    /// The campaign protocol every sweep follows: manifest → cost-aware
    /// ordering (predictions registered with the session; the
    /// longest-predicted cells start first — classic LPT list scheduling,
    /// which shrinks the tail where the pool idles waiting for one
    /// late-started giant — and as the sort is stable and a mix predicts
    /// `None`, mixes keep their order) → `campaign` span → one supervised
    /// job per cell, booked on the session as it settles, each a `job` span
    /// that either replays the cell from the journal (`--resume`, counted)
    /// or runs it on the session (the cell at `self.panic_at` panics
    /// instead) and records the result → failures are journaled
    /// (aborted cells never ran and stay unrecorded, so a later resume
    /// picks them up). Every journal write and skip is noted on the
    /// session. Outcomes come back in cell order.
    pub(crate) fn run_campaign(&self, cells: &[Cell]) -> Campaign {
        let (sess, journal) = (self.session, self.journal);
        if let Some(j) = journal {
            j.set_total(cells.len() as u64);
        }
        let mut order: Vec<(usize, Option<u64>)> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let predicted = cell.predicted();
                if let Some(cycles) = predicted {
                    sess.predict(cell.key, cycles);
                }
                (i, predicted)
            })
            .collect();
        order.sort_by_key(|&(_, predicted)| Reverse(predicted));
        let panic_cell = self.panic_at.and_then(|pos| order.get(pos)).map(|&(i, _)| i);
        let tags: Vec<JobTag> = order.iter().map(|&(i, _)| cells[i].tag()).collect();
        let journal_skips = AtomicU64::new(0);
        // Campaign → job → phase span hierarchy: `repro top` shows in-flight
        // jobs under their campaign while the sweep runs; closed jobs keep
        // their resume notes for the recent-completions list.
        let ledger = sess.telemetry();
        let campaign_span = sess.span("campaign", journal.map_or("adhoc", |j| j.campaign()));
        let report = supervise(
            &order,
            tags,
            |&(i, _), _| {
                let (key, tag) = (cells[i].key, cells[i].tag());
                let mut job_span = campaign_span.child("job", &key.to_string());
                job_span.note("app", &tag.app);
                job_span.note("design", &tag.design);
                if self.resume {
                    if let Some(stats) = journal.and_then(|j| j.completed(key)) {
                        journal_skips.fetch_add(1, Ordering::Relaxed);
                        job_span.note("resume", "journal-skip");
                        return Ok(Arc::new(stats));
                    }
                }
                if panic_cell == Some(i) {
                    // `resume_unwind` skips the panic hook: a deliberate fault
                    // prints no report, and no process-wide hook is needed.
                    std::panic::resume_unwind(Box::new(format!(
                        "injected fault: panic for cell {key}"
                    )));
                }
                let stats = {
                    let _simulate = job_span.child("simulate", &tag.design);
                    sess.run_cell(&cells[i]).map_err(|e| e.to_string())?
                };
                if let Some(j) = journal {
                    let _persist = job_span.child("persist", "journal");
                    ledger.note_journal_write(
                        true,
                        j.record_done(key, &tag.app, &tag.design, &stats),
                    );
                }
                Ok(stats)
            },
            &self.policy,
            Some(ledger),
        );

        let journal_skips = journal_skips.load(Ordering::Relaxed);
        ledger.note_journal_skips(journal_skips);
        let _collect = campaign_span.child("collect", "merge");
        let mut settled: Vec<_> = order.iter().map(|&(i, _)| i).zip(report.outcomes).collect();
        settled.sort_by_key(|&(i, _)| i);
        let mut failures = Vec::new();
        let done = settled
            .into_iter()
            .map(|(_, outcome)| match outcome {
                JobOutcome::Done(stats) => Some(stats),
                JobOutcome::Failed(e) => {
                    if e.kind != JobErrorKind::Aborted {
                        if let Some(j) = journal {
                            ledger.note_journal_write(false, j.record_failed(&e));
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
    /// Whether the sweep stopped early (failure budget, or a deliberate
    /// mid-campaign kill).
    pub aborted: bool,
    /// Cells served from the journal without running (`--resume`).
    pub journal_skips: u64,
}

/// Runs the (apps × ({baseline} ∪ designs)) sweep supervised, in the
/// installed run context (its session, journal root, resume flag and
/// policy). `campaign` names the journal directory (conventionally
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
/// journals, tailored policies, and a phase-scoped named panic.
pub fn run_cell_sweep_on(
    env: &SweepEnv,
    base: &GpuConfig,
    apps: &[App],
    designs: &[Design],
) -> SweepOutcome {
    let slots = designs.len() + 1;
    let cells: Vec<Cell> = apps
        .iter()
        .flat_map(|app| {
            let row = std::iter::once(Design::Baseline).chain(designs.iter().copied());
            row.map(|design| Cell::app(base.clone(), design, app.clone()))
        })
        .collect();
    let campaign = env.run_campaign(&cells);
    SweepOutcome {
        cells: campaign.done.chunks(slots).map(<[_]>::to_vec).collect(),
        failures: campaign.failures,
        aborted: campaign.aborted,
        journal_skips: campaign.journal_skips,
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
        .map(|item| JobTag { app: label(item), design: String::new(), key: None })
        .collect();
    let sess = session();
    let report = supervise(
        &items,
        tags,
        |item, _| {
            let _span = sess.span("job", &label(item));
            Ok(f(item))
        },
        policy(),
        Some(sess.telemetry()),
    );
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
    use std::time::Duration;
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
        let tiny = suite_base().with_max_cycles(1);
        let sess = SimSession::in_memory();
        let out = run_cell_sweep_on(&SweepEnv::on(&sess), &tiny, &apps(), &[Design::Rba]);
        assert_eq!(out.cells.len(), 2);
        assert!(out.cells.iter().flatten().all(Option::is_none));
        assert_eq!(out.failures.len(), 4, "every cell records its failure");
        assert!(out.failures.iter().all(|e| e.kind == JobErrorKind::Sim));
        assert!(!out.aborted);
        let s = sess.telemetry().snapshot();
        assert_eq!((s.failed, s.runs, s.memo_hits), (4, 4, 0), "each cell ran exactly once");
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
        let root =
            std::env::temp_dir().join(format!("subcore-sweep-ledger-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let j = Journal::open(&root, "t");
        // The first cell to start panics; the resume runs without the
        // panic, and only that cell recomputes.
        let env = SweepEnv { journal: Some(&j), panic_at: Some(0), ..SweepEnv::on(&a) };
        let first = run_cell_sweep_on(&env, &base, &apps, &designs);
        assert_eq!(first.failures.len(), 1);
        let env = SweepEnv { resume: true, panic_at: None, ..env };
        let resumed = run_cell_sweep_on(&env, &base, &apps, &designs);
        assert!(resumed.failures.is_empty());

        let s = a.telemetry().snapshot();
        assert_eq!((s.failed, s.journal_skips), (1, 3));
        assert_eq!((s.sims, s.runs), (4, 4), "three cells, then the faulted one on resume");
        assert!(s.pool_max_workers > 0 && s.pool_wall > Duration::ZERO);
        let failures = a.telemetry().failure_records();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, JobErrorKind::Panic);
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
    fn a_pull_mid_sweep_counts_the_jobs_settled_before_it() {
        // What `repro top` relies on. Row `i` is the `i`-th job a worker
        // takes; of the `i` taken before it, at most `workers - 1` are still
        // running elsewhere, so a pull from inside row `i` counts the rest.
        // Other tests book on the same session at once, which only adds.
        use subcore_metrics::names as mx;
        let done = || session().metrics().counter(mx::SUPERVISOR_JOB_DONE).unwrap_or(0);
        let workers = std::thread::available_parallelism().map_or(4, |w| w.get()) as u64;
        let before = done();
        let mut table = Table::new("t", "live", vec!["v".into()]);
        let rows: Vec<u64> = (0..4 * workers).collect();
        let seen = fill_rows(&mut table, rows, |i| format!("row{i}"), |_| done());
        for (i, seen) in seen.into_iter().enumerate() {
            let settled = seen.expect("row runs") - before;
            assert!(settled + workers > i as u64, "row {i} saw {settled} settled jobs");
        }
        assert!(done() - before >= 4 * workers, "every row settles as done");
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
