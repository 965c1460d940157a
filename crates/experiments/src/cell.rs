//! What to simulate: one [`Cell`] — a workload under a design on a base
//! configuration — resolved once, keyed once and run through the session.
//! A figure sweep, `repro trace` and a served job run a registry app;
//! `repro tenants` runs a co-scheduled tenant mix under a partition
//! policy. The cell owns every per-cell decision: its [`SimKey`], its
//! static cycle prediction, its [`JobTag`] and its engine entry point.
//!
//! The key is a *content* fingerprint ([`subcore_persist::stable_fingerprint`],
//! stable across processes and platforms, which is what makes the disk
//! cache and the journal sound) of the design-final [`GpuConfig`] (two
//! designs that derive the same config hash the same), the design's
//! [`PolicyClass`](subcore_sched::PolicyClass) (its behavioural identity,
//! not the enum variant — `Banks(2)` and `Baseline` on a 2-bank base
//! dedup), and the workload: the full [`App`], or a mix's partition policy
//! label and tenant list (workloads, arrivals, deadlines, SM sets).

use subcore_engine::{simulate, GpuConfig, RunStats, SimError, TenantRun, Workload};
use subcore_isa::App;
use subcore_persist::stable_fingerprint;
use subcore_sched::{Design, PartitionPolicy};
use subcore_serve::JobSpec;
use subcore_workloads::{app_by_name, fma_unbalanced_scaled, TenantMix};

use crate::session::SimKey;
use crate::supervisor::JobTag;
use crate::tenants::{column_label, mix_tenant_runs};

/// What a [`Cell`] runs: what it hands the engine as a [`Workload`],
/// owned, plus a mix's labels.
#[derive(Debug, Clone)]
pub enum Target {
    /// One application alone on the GPU.
    App(App),
    /// A tenant mix co-scheduled on spatial SM partitions.
    Mix {
        /// The mix's registry name (the cell's journal app name).
        mix: &'static str,
        /// The policy that carved the tenants' SM partitions.
        policy: PartitionPolicy,
        /// The tenants, each with its SM partition.
        runs: Vec<TenantRun>,
    },
}

/// One simulation request, resolved. Built only by [`Cell::app`],
/// [`Cell::mix`] and [`Cell::from_spec`], which compute `key` from the
/// other three fields, so a cell is fingerprinted once however often it is
/// looked up, tagged or run (the fields are crate-private to keep `key`
/// true to them).
#[derive(Debug, Clone)]
pub struct Cell {
    /// The configuration the design transforms.
    pub(crate) base: GpuConfig,
    /// The design point.
    pub(crate) design: Design,
    /// What runs.
    pub(crate) target: Target,
    /// The content fingerprint of the other three (see the module docs).
    pub(crate) key: SimKey,
}

/// The app formula of [`Cell`]'s key, over borrowed parts.
pub(crate) fn app_key(base: &GpuConfig, design: Design, app: &App) -> SimKey {
    SimKey::from_raw(stable_fingerprint(&(design.config(base), design.policy_class(), app)))
}

impl Cell {
    /// `app` alone under `design` on `base`.
    pub fn app(base: GpuConfig, design: Design, app: App) -> Cell {
        let key = app_key(&base, design, &app);
        Cell { base, design, target: Target::App(app), key }
    }

    /// `mix` co-scheduled under `design` on `base`, its SM partitions
    /// carved by `policy` ([`mix_tenant_runs`]).
    pub fn mix(base: GpuConfig, design: Design, mix: &TenantMix, policy: PartitionPolicy) -> Cell {
        let runs = mix_tenant_runs(&base, mix, design, policy);
        let key = SimKey::from_raw(stable_fingerprint(&(
            design.config(&base),
            design.policy_class(),
            policy.label(),
            &runs,
        )));
        Cell { base, design, target: Target::Mix { mix: mix.name, policy, runs }, key }
    }

    /// The daemon's admission of a served spec: `spec.app` under
    /// `spec.design` on a V100 with `spec.sms` of its SMs enabled.
    ///
    /// # Errors
    ///
    /// Whatever a worker could not run: an unknown app or design, SMs the
    /// V100 lacks, no cycle budget, or a config [`GpuConfig::check`] fails.
    pub fn from_spec(spec: &JobSpec) -> Result<Cell, String> {
        let app = resolve_app(&spec.app)?;
        let design: Design = spec.design.parse()?;
        let v100 = GpuConfig::volta_v100();
        if spec.sms == 0 || spec.sms > v100.num_sms {
            return Err(format!("sms must be 1..={}, got {}", v100.num_sms, spec.sms));
        }
        if spec.max_cycles == 0 {
            return Err("max_cycles must be positive".to_owned());
        }
        let base = v100.with_sms(spec.sms).with_max_cycles(spec.max_cycles);
        design.config(&base).check().map_err(|rule| format!("design `{}`: {rule}", spec.design))?;
        Ok(Cell::app(base, design, app))
    }

    /// The static cost model's cycle prediction of an app cell; `None` for
    /// a mix, which the model does not cover.
    pub fn predicted(&self) -> Option<u64> {
        match &self.target {
            Target::App(app) => {
                Some(crate::estimate::predicted_cycles(&self.base, self.design, app))
            }
            Target::Mix { .. } => None,
        }
    }

    /// The cell's identity in failure records, telemetry rows and the
    /// journal: the app (or mix) name, the design label (a mix's carries
    /// its partition policy, e.g. `rba/rigid`) and the key.
    pub fn tag(&self) -> JobTag {
        let (app, design) = match &self.target {
            Target::App(app) => (app.name().to_owned(), self.design.label()),
            Target::Mix { mix, policy, .. } => {
                ((*mix).to_owned(), column_label(self.design, *policy))
            }
        };
        JobTag { app, design, key: Some(self.key.as_u64()) }
    }

    /// Simulates the cell, uncached — the harness's one call into the
    /// engine for a [`Design`]. Everything else goes through
    /// [`crate::SimSession::run_cell`].
    ///
    /// # Errors
    ///
    /// The engine's [`SimError`], e.g. a run over its `max_cycles`.
    pub fn simulate(&self) -> Result<RunStats, SimError> {
        let workload = match &self.target {
            Target::App(app) => Workload::App(app),
            Target::Mix { runs, .. } => Workload::Tenants(runs),
        };
        simulate(&self.design.config(&self.base), &self.design.policies(), workload, Vec::new())
    }
}

/// The one workload-name resolver (`repro trace`/`lint`/`estimate`/`opt`,
/// the serve daemon): a registry app (e.g. `rod-srad`, `tpcU-q8`) or an
/// alias `fma`/`fig3`/`fig8` of the unbalanced FMA kernel those figures
/// study. An unknown name errs with what would have resolved.
pub fn resolve_app(name: &str) -> Result<App, String> {
    match name {
        "fma" | "fig3" | "fig8" => Ok(fma_unbalanced_scaled(8, 96, 4)),
        other => app_by_name(other).ok_or_else(|| {
            format!("unknown target `{name}` (use a registry app name, `fma`, `fig3`, or `fig8`)")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::suite_base;

    #[test]
    fn keys_are_pinned() {
        // Recorded from the tree before `Cell` existed: the figure sweep's
        // `SimKey::compute` and the tenant sweep's own formula. A change
        // here orphans every disk cache and journal.
        let fma = Cell::app(suite_base(), Design::Rba, resolve_app("fma").unwrap());
        assert_eq!(fma.key.to_string(), "226c56a48b0c8aa0");
        let mix = subcore_workloads::tenant_mix_by_name("micro-balanced").unwrap();
        let cell = Cell::mix(suite_base(), Design::Rba, &mix, PartitionPolicy::ContentionAware);
        assert_eq!(cell.key.to_string(), "1ea90beaaf16a3e0");
        let tag = cell.tag();
        assert_eq!(
            (tag.app.as_str(), tag.design.as_str()),
            ("micro-balanced", "rba/contention-aware")
        );
        assert_eq!((cell.predicted(), fma.predicted().is_some()), (None, true));
    }

    #[test]
    fn targets_resolve_to_apps() {
        // The three aliases are one microbenchmark, whatever the registry
        // lookup behind the other arm does.
        let fma = fma_unbalanced_scaled(8, 96, 4);
        for alias in ["fma", "fig3", "fig8"] {
            assert_eq!(resolve_app(alias).as_ref(), Ok(&fma), "{alias}");
        }
        let err = resolve_app("no-such-app").unwrap_err();
        assert!(err.starts_with("unknown target `no-such-app`"), "{err}");
    }

    #[test]
    fn registry_targets_fingerprint_like_the_registry_apps() {
        // A served spec is keyed by the app its name resolves to: that must
        // be the cell a sweep over `all_apps()` simulates and caches.
        let base = suite_base();
        for app in subcore_workloads::all_apps() {
            let resolved = resolve_app(app.name()).expect("registry names resolve");
            assert_eq!(
                Cell::app(base.clone(), Design::Baseline, resolved).key,
                SimKey::compute(&base, Design::Baseline, &app),
                "{}",
                app.name()
            );
        }
    }
}
