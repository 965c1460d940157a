//! The `repro tenants` experiment: multi-tenant spatial co-scheduling
//! interference matrices and deadline QoS tables.
//!
//! For every tenant mix ([`subcore_workloads::tenant_mixes`]) the sweep
//! runs each design × partition-policy cell as one supervised job: the
//! partition allocator ([`PartitionPolicy::allocate`]) carves the GPU's
//! SMs per tenant, the engine's multi-tenant dispatcher
//! ([`subcore_engine::simulate_tenants`]) co-schedules the tenants, and
//! each tenant's *slowdown* is its makespan over its solo run on the full
//! GPU (memoized through the session, so solo baselines are shared across
//! cells and campaigns).
//!
//! Contention-aware placement is seeded with exactly the static signals
//! the rest of the stack already maintains: the cost model's predicted
//! solo cycles ([`crate::estimate::predicted_cycles`]) scaled by the lint
//! layer's static bank-pressure score ([`crate::lint::static_app_score`]),
//! so a tenant predicted to be long *and* bank-hungry bids for more SMs.
//!
//! Every co-schedule is a [`Cell`] run like any other: memoized and
//! disk-cached by the session, journaled under the `tenants` campaign for
//! `repro --resume`. Its per-tenant rows land in the session telemetry CSV
//! (`tenant` / `deadline_slack` / `partition_sms` columns), and deadline
//! misses and slowdowns feed the `tenant.*` metrics surfaced by
//! `repro top`.

use crate::cell::Cell;
use crate::journal::journal_for;
use crate::report::Table;
use crate::runner::geomean;
use crate::supervisor::JobError;
use crate::sweep::SweepEnv;
use subcore_engine::{GpuConfig, SmSet, TenantRun, TenantStats};
use subcore_sched::{Design, PartitionPolicy, PARTITION_POLICIES};
use subcore_workloads::TenantMix;

/// The design points the interference matrix sweeps (baseline plus the
/// paper's three main mechanisms).
pub fn tenant_designs() -> Vec<Design> {
    vec![Design::Baseline, Design::Rba, Design::Srr, Design::Shuffle]
}

/// Result of one mix's sweep: the interference matrix and the per-cell
/// tenant breakdowns it was built from.
#[derive(Debug)]
pub struct MixOutcome {
    /// Mix name (registry key).
    pub name: String,
    /// `tenants_<mix>`: rows = tenants (+ GEOMEAN), columns =
    /// `<design>/<policy>`, values = slowdown over the tenant's solo run
    /// (1.0 = no interference).
    pub table: Table,
    /// Per `(design, policy)` column: the per-tenant stats of that cell,
    /// in tenant order (`None` when the cell failed).
    pub cells: Vec<Option<Vec<TenantStats>>>,
}

impl MixOutcome {
    /// Geomean slowdown of one `(design, policy)` column, NaN if failed.
    pub fn geomean_slowdown(&self, design: Design, policy: PartitionPolicy) -> f64 {
        let label = column_label(design, policy);
        self.table
            .rows
            .iter()
            .find(|(name, _)| name == "GEOMEAN")
            .and_then(|(_, vals)| {
                let idx = self.table.columns.iter().position(|c| *c == label)?;
                vals.get(idx).copied()
            })
            .unwrap_or(f64::NAN)
    }

    /// Designs where contention-aware placement strictly beats rigid on
    /// this mix's geomean slowdown.
    pub fn contention_aware_wins(&self) -> Vec<Design> {
        tenant_designs()
            .into_iter()
            .filter(|&d| {
                let rigid = self.geomean_slowdown(d, PartitionPolicy::Rigid);
                let ca = self.geomean_slowdown(d, PartitionPolicy::ContentionAware);
                ca.is_finite() && rigid.is_finite() && ca < rigid
            })
            .collect()
    }
}

/// Outcome of the whole tenant sweep.
#[derive(Debug)]
pub struct TenantSweepOutcome {
    /// One outcome per mix, in input order.
    pub mixes: Vec<MixOutcome>,
    /// `tenants_deadlines`: rows = `<mix>:<tenant>` for deadline-carrying
    /// tenants, columns = `<design>/<policy>`, values = deadline slack in
    /// cycles (negative = missed).
    pub deadlines: Table,
    /// Failure record of every unfilled cell.
    pub failures: Vec<JobError>,
    /// Cells served from the journal without running (`--resume`).
    pub journal_skips: u64,
}

/// Column label of one (design, policy) cell, e.g. `rba/rigid`.
pub fn column_label(design: Design, policy: PartitionPolicy) -> String {
    format!("{}/{}", design.label(), policy.label())
}

/// Contention demand weight of one tenant under `design`: predicted solo
/// cycles scaled up by the static bank-pressure score, so long *and*
/// bank-hungry tenants bid for more SMs.
fn demand(base: &GpuConfig, design: Design, spec: &subcore_isa::TenantSpec) -> f64 {
    let cfg = design.config(base);
    let predicted = crate::estimate::predicted_cycles(base, design, spec.app()) as f64;
    predicted * (1.0 + crate::lint::static_app_score(spec.app(), &cfg))
}

/// The tenant partition one (mix, design, policy) cell simulates:
/// allocator output zipped onto the mix's tenants. Also the input the
/// tenant lint pass validates (`repro lint --all`).
pub fn mix_tenant_runs(
    base: &GpuConfig,
    mix: &TenantMix,
    design: Design,
    policy: PartitionPolicy,
) -> Vec<TenantRun> {
    let demands: Vec<f64> = mix.tenants.iter().map(|t| demand(base, design, t)).collect();
    let sets: Vec<SmSet> = policy.allocate(base.num_sms, &demands);
    mix.tenants
        .iter()
        .zip(sets)
        .map(|(spec, sm_set)| TenantRun { spec: spec.clone(), sm_set })
        .collect()
}

/// Runs the tenant sweep in the installed run context, journaled as the
/// `tenants` campaign (the `repro tenants` entry point).
pub fn run_tenant_sweep(base: &GpuConfig, mixes: &[TenantMix]) -> TenantSweepOutcome {
    let journal = journal_for("tenants");
    run_tenant_sweep_on(&SweepEnv::installed(journal.as_ref()), base, mixes)
}

/// [`run_tenant_sweep`] in an explicit environment, for tests.
pub fn run_tenant_sweep_on(
    env: &SweepEnv,
    base: &GpuConfig,
    mixes: &[TenantMix],
) -> TenantSweepOutcome {
    let cols: Vec<(Design, PartitionPolicy)> =
        tenant_designs().into_iter().flat_map(|d| PARTITION_POLICIES.map(|p| (d, p))).collect();
    let cells: Vec<Cell> = mixes
        .iter()
        .flat_map(|mix| cols.iter().map(move |&(d, p)| Cell::mix(base.clone(), d, mix, p)))
        .collect();
    let campaign = env.run_campaign(&cells);
    let failures = campaign.failures;

    // Solo baselines: each tenant alone on the full GPU, per design,
    // resolved through the session (memoized and disk-cached), so shared
    // tenants cost one simulation across the whole sweep.
    let solo_cycles = |mix: &TenantMix, tenant: usize, design: Design| {
        let solo = Cell::app(base.clone(), design, mix.tenants[tenant].app().clone());
        env.session.run_cell(&solo).map_or(f64::NAN, |s| s.cycles.max(1) as f64)
    };

    // Build the interference matrix per mix and the deadline table.
    let columns: Vec<String> = cols.iter().map(|&(d, p)| column_label(d, p)).collect();
    let mut deadlines = Table::new(
        "tenants_deadlines",
        "deadline slack (cycles; negative = missed) per design/policy",
        columns.clone(),
    );
    let mut outcomes = Vec::with_capacity(mixes.len());
    for (mix, done) in mixes.iter().zip(campaign.done.chunks(cols.len())) {
        let mut table = Table::new(
            format!("tenants_{}", mix.name),
            format!("tenant slowdown vs solo full-GPU run — {}", mix.description),
            columns.clone(),
        );
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); mix.tenants.len()];
        let mut geo: Vec<f64> = Vec::new();
        for (&(design, _), stats) in cols.iter().zip(done) {
            let mut slowdowns = Vec::new();
            for (ti, row) in rows.iter_mut().enumerate() {
                let slowdown = stats
                    .as_ref()
                    .and_then(|s| s.tenants.get(ti))
                    .map(|t| {
                        let slowdown = t.makespan() as f64 / solo_cycles(mix, ti, design);
                        env.session.telemetry().note_tenant_slowdown((slowdown * 100.0) as u64);
                        slowdown
                    })
                    .unwrap_or(f64::NAN);
                row.push(slowdown);
                if !slowdown.is_nan() {
                    slowdowns.push(slowdown);
                }
            }
            geo.push(if slowdowns.len() == mix.tenants.len() {
                geomean(&slowdowns)
            } else {
                f64::NAN
            });
        }
        let tenant_cells: Vec<Option<Vec<TenantStats>>> =
            done.iter().map(|s| s.as_ref().map(|s| s.tenants.clone())).collect();
        for (spec, row) in mix.tenants.iter().zip(rows) {
            table.push_row(spec.name(), row);
        }
        table.push_row("GEOMEAN", geo);
        for (ti, spec) in mix.tenants.iter().enumerate() {
            if spec.deadline().is_none() {
                continue;
            }
            let slacks: Vec<f64> = tenant_cells
                .iter()
                .map(|cell| {
                    cell.as_ref()
                        .and_then(|ts| ts.get(ti))
                        .and_then(TenantStats::deadline_slack)
                        .map_or(f64::NAN, |s| s as f64)
                })
                .collect();
            deadlines.push_row(format!("{}:{}", mix.name, spec.name()), slacks);
        }
        if !failures.is_empty() {
            table.note_gap(format!("{} cell(s) failed across the sweep", failures.len()));
        }
        outcomes.push(MixOutcome { name: mix.name.to_owned(), table, cells: tenant_cells });
    }
    TenantSweepOutcome {
        mixes: outcomes,
        deadlines,
        failures,
        journal_skips: campaign.journal_skips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::session::SimSession;
    use subcore_workloads::tenant_mix_by_name;

    fn quick_base() -> GpuConfig {
        GpuConfig::volta_v100().with_sms(4).with_max_cycles(20_000_000)
    }

    #[test]
    fn skewed_mix_rewards_contention_aware_placement() {
        let sess = SimSession::in_memory();
        let mix = tenant_mix_by_name("micro-skewed").expect("registered mix");
        let out =
            run_tenant_sweep_on(&SweepEnv::on(&sess), &quick_base(), std::slice::from_ref(&mix));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let m = &out.mixes[0];
        // Every column filled: tenants + GEOMEAN rows, all finite.
        assert_eq!(m.table.rows.len(), 3);
        for (label, vals) in &m.table.rows {
            assert!(vals.iter().all(|v| v.is_finite()), "{label}: {vals:?}");
        }
        let wins = m.contention_aware_wins();
        assert!(
            !wins.is_empty(),
            "contention-aware placement should beat rigid on the skewed mix:\n{}",
            m.table.render()
        );
    }

    #[test]
    fn deadline_mix_reports_slack_rows() {
        let sess = SimSession::in_memory();
        let mix = tenant_mix_by_name("micro-deadline").expect("registered mix");
        let out =
            run_tenant_sweep_on(&SweepEnv::on(&sess), &quick_base(), std::slice::from_ref(&mix));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.deadlines.rows.len(), 2, "both tenants carry deadlines");
        let labels: Vec<&str> = out.deadlines.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.iter().any(|l| l.contains("batch")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("latency")), "{labels:?}");
        for (label, slacks) in &out.deadlines.rows {
            assert!(slacks.iter().all(|s| s.is_finite()), "{label}");
        }
        // The tight batch deadline differentiates the policies: missed
        // under the rigid baseline split, met under contention-aware.
        let (_, batch_slacks) =
            out.deadlines.rows.iter().find(|(l, _)| l.contains("batch")).expect("batch row");
        let col = |d, p| out.deadlines.columns.iter().position(|c| *c == column_label(d, p));
        let rigid = col(Design::Baseline, PartitionPolicy::Rigid).expect("rigid column");
        let ca = col(Design::Baseline, PartitionPolicy::ContentionAware).expect("ca column");
        assert!(
            batch_slacks[rigid] < 0.0 && batch_slacks[ca] > 0.0,
            "batch should miss under rigid ({}) and meet under contention-aware ({})",
            batch_slacks[rigid],
            batch_slacks[ca]
        );
        // Per-tenant telemetry rows were recorded for every cell.
        let records = sess.telemetry().records();
        let tenant_rows = records.iter().filter(|r| r.tenant.is_some()).count();
        assert_eq!(tenant_rows, 2 * out.deadlines.columns.len());
        assert!(records
            .iter()
            .filter(|r| r.tenant.as_deref() == Some("latency"))
            .all(|r| r.deadline_slack.is_some() && r.partition_sms.is_some()));
    }

    #[test]
    fn co_schedules_are_session_runs_that_count_and_cache() {
        // Two tenants × four designs of solo baselines, plus four designs ×
        // two policies of co-schedules: each a simulation of its own.
        let dir =
            std::env::temp_dir().join(format!("subcore-tenants-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mix = tenant_mix_by_name("micro-balanced").expect("registered mix");
        let opts = crate::SessionOptions { disk_cache: Some(dir.clone()) };
        let cold = SimSession::new(opts.clone());
        let mixes = std::slice::from_ref(&mix);
        let first = run_tenant_sweep_on(&SweepEnv::on(&cold), &quick_base(), mixes);
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        let t = cold.telemetry().snapshot();
        assert_eq!((t.sims, t.disk_hits, t.tenant_jobs), (16, 0, 16));
        // A new process over the same cache simulates nothing and rebuilds
        // the same tables.
        let warm = SimSession::new(opts);
        let again = run_tenant_sweep_on(&SweepEnv::on(&warm), &quick_base(), mixes);
        let t = warm.telemetry().snapshot();
        assert_eq!((t.sims, t.disk_hits), (0, 16));
        assert_eq!(first.mixes[0].table.rows, again.mixes[0].table.rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_cells_resume_without_resimulating() {
        let dir =
            std::env::temp_dir().join(format!("subcore-tenants-journal-{}", std::process::id()));
        let journal = Journal::open(&dir, "tenants-test");
        let mix = tenant_mix_by_name("micro-balanced").expect("registered mix");
        let base = quick_base();
        let sess = SimSession::in_memory();
        let env = SweepEnv { journal: Some(&journal), resume: true, ..SweepEnv::on(&sess) };
        let first = run_tenant_sweep_on(&env, &base, std::slice::from_ref(&mix));
        assert_eq!(first.journal_skips, 0);
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        let again = run_tenant_sweep_on(&env, &base, std::slice::from_ref(&mix));
        assert_eq!(
            again.journal_skips,
            again.mixes[0].table.columns.len() as u64,
            "every cell should resume from the journal"
        );
        // Resumed tables match the original bit-for-bit (stats round-trip
        // through the journal including the tenant breakdowns).
        assert_eq!(first.mixes[0].table.rows, again.mixes[0].table.rows);
        std::fs::remove_dir_all(&dir).ok();
    }
}
