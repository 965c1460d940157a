//! Experiment harness reproducing every table and figure of *Mitigating GPU
//! Core Partitioning Performance Effects* (HPCA 2023).
//!
//! Each `figs::figNN` module regenerates the corresponding paper result as
//! a [`Table`] (printed and exported to CSV by the `repro` binary):
//!
//! | module | paper result |
//! |---|---|
//! | [`figs::fig01`] | Fig. 1 — fully-connected speedup, 112 apps |
//! | [`figs::fig03`] | Fig. 3 — FMA microbenchmark imbalance on hardware |
//! | [`figs::fig08`] | Fig. 8 — unbalanced FMA vs. imbalance scale |
//! | [`figs::fig09`] | Fig. 9 — all-apps design speedups |
//! | [`figs::fig10`] | Fig. 10 — sensitive-apps design summary |
//! | [`figs::fig11`] | Fig. 11 — RBA on the fully-connected SM |
//! | [`figs::fig12`] | Fig. 12 — collector-unit scaling |
//! | [`figs::fig13`] | Fig. 13 — area/power cost model |
//! | [`figs::fig14`] | Fig. 14 — RF reads/cycle traces |
//! | [`figs::fig15_16`] | Figs. 15/16 — TPC-H per-query speedups |
//! | [`figs::fig17`] | Fig. 17 — per-scheduler issue CV |
//! | [`figs::fig18`] | Fig. 18 — SM-count sensitivity |
//! | [`figs::ablations`] | §VI-B4/§VI-B5/§IV-B3 ablations |
//!
//! Run everything with `cargo run --release -p subcore-experiments --bin
//! repro -- all` (CSV lands in `results/`).
//!
//! Every simulation routes through the process-wide
//! [`session::SimSession`], which memoizes results by content fingerprint
//! ([`session::SimKey`]) — in memory always, and on disk under
//! `results/.simcache/` when the `repro` binary enables it — and collects
//! per-run [`telemetry`]. That session and everything else a process
//! decides once (journal root, `--resume`, supervision policy, jobs cap)
//! are one [`RunContext`], installed by [`init_global`].

#![forbid(unsafe_code)]

pub mod cache;
pub mod cell;
pub mod chaos;
pub mod estimate;
pub mod figs;
pub mod journal;
pub mod lint;
pub mod report;
pub mod runner;
pub mod serve;
pub mod session;
pub mod summary;
pub mod supervisor;
pub mod sweep;
pub mod telemetry;
pub mod tenants;
pub mod top;
pub mod trace;

pub use cell::{resolve_app, Cell};
pub use report::{csv_field, Table};
pub use runner::{base_for, geomean, jobs_cap, mean, run_design, speedup, suite_base, tpch_base};
pub use serve::{run_serve_drill, ServeDrillOptions, ServeDrillReport, SimExecutor};
pub use session::{init_global, session, RunContext, SessionOptions, SimKey, SimSession};
pub use supervisor::{policy, JobError, JobErrorKind, JobOutcome, SupervisorPolicy};
pub use sweep::{fill_rows, fill_table, run_cell_sweep, speedup_table, SweepEnv, SweepOutcome};
pub use telemetry::{RunRecord, RunSource, Telemetry, TelemetrySnapshot};
pub use tenants::{run_tenant_sweep, tenant_designs, MixOutcome, TenantSweepOutcome};
pub use top::{render_frame, render_metrics_summary};

#[cfg(test)]
mod digest_tests {
    use std::path::Path;

    /// Every claim and every tracked gap reads a value from the committed
    /// `results/`, and the digest passes on it.
    #[test]
    fn claims_reference_known_tables() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for claim in crate::summary::claims(&results) {
            assert!(claim.measured.is_finite(), "claim {} reads no value", claim.id);
        }
        for gap in crate::summary::gaps(&results) {
            assert!(gap.measured.is_finite(), "gap {} reads no value", gap.id);
        }
        let (digest, all_pass) = crate::summary::render(&results);
        assert!(all_pass, "{digest}");
    }
}
