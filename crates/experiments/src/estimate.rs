//! `repro estimate` / `repro opt`: the static cost model and the
//! conflict-free register remapper, driven over the workload registry.
//!
//! Thin driver over `subcore-opt`, mirroring [`crate::lint`]'s shape: the
//! per-suite base configurations come from [`crate::runner::base_for`], and
//! `--calibrate` checks the model's *ranking* against simulated cycles —
//! the contract is Spearman rank correlation ≥ [`SPEARMAN_FLOOR`] across
//! the registry, which is what longest-predicted-first job ordering and
//! error telemetry need (not cycle accuracy).

use crate::cell::Cell;
use crate::lint::spearman;
use crate::runner::base_for;
use crate::session::SimSession;
use subcore_engine::GpuConfig;
use subcore_isa::App;
use subcore_opt::{estimate_app, remap_app, AppEstimate};
use subcore_persist::Json;
use subcore_sched::Design;

/// The calibration gate: `repro estimate --calibrate` (and the
/// integration test) fail below this Spearman rank correlation between
/// predicted and simulated cycles.
pub const SPEARMAN_FLOOR: f64 = 0.8;

/// Static cycle prediction for one `(app, design)` cell under the same
/// base configuration the experiments simulate it with.
pub fn predicted_cycles(base: &GpuConfig, design: Design, app: &App) -> u64 {
    estimate_app(app, base, design).cycles
}

/// One calibration point: an app's predicted cycles next to its simulated
/// cycles under one design.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// App name.
    pub app: String,
    /// Design label.
    pub design: String,
    /// Static cost-model prediction.
    pub predicted: u64,
    /// Simulated cycles.
    pub simulated: u64,
    /// Which bound term dominates the prediction
    /// ([`AppEstimate::dominant_term`]).
    pub dominant: &'static str,
}

impl CalibrationRow {
    /// Relative prediction error, `|predicted − simulated| / simulated`.
    pub fn error(&self) -> f64 {
        if self.simulated == 0 {
            return f64::NAN;
        }
        (self.predicted as f64 - self.simulated as f64).abs() / self.simulated as f64
    }
}

/// The calibration result: per-cell rows plus the rank correlation.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Per-cell predictions, in input order.
    pub rows: Vec<CalibrationRow>,
    /// Spearman rank correlation between predicted and simulated cycles.
    pub spearman: f64,
}

impl CalibrationReport {
    /// Whether the calibration meets the [`SPEARMAN_FLOOR`] contract.
    pub fn passes(&self) -> bool {
        self.spearman >= SPEARMAN_FLOOR
    }

    /// Human rendering: a ranked table plus the correlation verdict.
    pub fn render(&self) -> String {
        let mut ranked: Vec<&CalibrationRow> = self.rows.iter().collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.predicted));
        let mut out =
            String::from("app               design          predicted    simulated  bound\n");
        for row in ranked {
            out.push_str(&format!(
                "{:<17} {:<14} {:>10} {:>12}  {}\n",
                row.app, row.design, row.predicted, row.simulated, row.dominant
            ));
        }
        out.push_str(&format!(
            "Spearman rank correlation (n={}): {:.3} (floor {SPEARMAN_FLOOR}) — {}\n",
            self.rows.len(),
            self.spearman,
            if self.passes() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// JSON rendering for `--json` and the verify-gate artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("spearman", Json::Num(self.spearman)),
            ("floor", Json::Num(SPEARMAN_FLOOR)),
            ("pass", Json::Bool(self.passes())),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("app", Json::Str(r.app.clone())),
                                ("design", Json::Str(r.design.clone())),
                                ("predicted", Json::Uint(r.predicted)),
                                ("simulated", Json::Uint(r.simulated)),
                                ("dominant", Json::Str(r.dominant.to_owned())),
                                ("error", Json::Num(r.error())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Calibrates the cost model over explicit apps and designs with an
/// explicit per-app base — the testable core of [`calibrate`]. Every
/// `(app, design)` cell is predicted statically and simulated through
/// `sess` (predictions are registered first, so the session's telemetry
/// records carry the error columns).
pub fn calibrate_on(
    sess: &SimSession,
    apps: &[App],
    designs: &[Design],
    base_for: impl Fn(&App) -> GpuConfig,
) -> CalibrationReport {
    let mut rows = Vec::with_capacity(apps.len() * designs.len());
    for app in apps {
        let base = base_for(app);
        for &design in designs {
            let estimate = estimate_app(app, &base, design);
            let cell = Cell::app(base.clone(), design, app.clone());
            sess.predict(cell.key, estimate.cycles);
            let stats = sess.run_cell(&cell).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            rows.push(CalibrationRow {
                app: app.name().to_owned(),
                design: design.label(),
                predicted: estimate.cycles,
                simulated: stats.cycles,
                dominant: estimate.dominant_term(),
            });
        }
    }
    let xs: Vec<f64> = rows.iter().map(|r| r.predicted as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.simulated as f64).collect();
    CalibrationReport { spearman: spearman(&xs, &ys), rows }
}

/// Runs the registry-wide calibration `repro estimate --calibrate` and
/// verify.sh gate on: all 112 apps under the baseline design, each under
/// its suite's experiment base configuration.
pub fn calibrate(sess: &SimSession) -> CalibrationReport {
    calibrate_on(sess, &subcore_workloads::all_apps(), &[Design::Baseline], base_for)
}

/// JSON rendering of one app's static estimate decomposition.
pub fn estimate_to_json(estimate: &AppEstimate) -> Json {
    Json::obj([
        ("app", Json::Str(estimate.app.clone())),
        ("design", Json::Str(estimate.design.clone())),
        ("cycles", Json::Uint(estimate.cycles)),
        ("dominant", Json::Str(estimate.dominant_term().to_owned())),
        (
            "kernels",
            Json::Arr(
                estimate
                    .kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("kernel", Json::Str(k.kernel.clone())),
                            ("resident_blocks", Json::Uint(u64::from(k.resident_blocks))),
                            ("waves", Json::Uint(k.waves)),
                            ("issue_bound", Json::Uint(k.issue_bound)),
                            ("bank_bound", Json::Uint(k.bank_bound)),
                            ("divergence_bound", Json::Uint(k.divergence_bound)),
                            ("cycles", Json::Uint(k.cycles)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders one app's static estimate decomposition (no simulation).
pub fn render_estimate(estimate: &AppEstimate) -> String {
    let mut out = format!(
        "== {} (design {}): {} predicted cycles, {}-bound\n",
        estimate.app,
        estimate.design,
        estimate.cycles,
        estimate.dominant_term()
    );
    for k in &estimate.kernels {
        out.push_str(&format!(
            "  {:<24} {:>3} waves x {:>10} (issue {:>10}, bank {:>10}, divergence {:>10}; \
             {} resident blocks)\n",
            k.kernel,
            k.waves,
            k.cycles,
            k.issue_bound,
            k.bank_bound,
            k.divergence_bound,
            k.resident_blocks
        ));
    }
    out
}

/// Renders one app's remap evidence: per-kernel, per-group before/after
/// static bank costs (static, no simulation).
pub fn render_remap(app: &App) -> String {
    let cfg = Design::Baseline.config(&base_for(app));
    let (_, outcomes) = remap_app(app, &cfg);
    let mut out = format!("== {}\n", app.name());
    for (kernel, outcome) in app.kernels().iter().zip(&outcomes) {
        match outcome {
            None => {
                out.push_str(&format!(
                    "  {:<24} skipped (out-of-range registers; see lint L001)\n",
                    kernel.name()
                ));
            }
            Some(remap) => {
                for g in &remap.groups {
                    let verdict = if g.is_identity() {
                        "already flat".to_owned()
                    } else {
                        format!(
                            "{} -> {} (hottest load {} -> {}, excess {} -> {})",
                            g.before_cost(),
                            g.after_cost(),
                            g.before_max_load,
                            g.after_max_load,
                            g.before_excess,
                            g.after_excess
                        )
                    };
                    out.push_str(&format!(
                        "  {:<24} warps {:>2}-{:<2} static bank cost {}\n",
                        kernel.name(),
                        g.first_warp,
                        g.last_warp,
                        verdict
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{fma_kernel, Suite};

    fn apps() -> Vec<App> {
        vec![
            App::new("small", Suite::Micro, vec![fma_kernel("k", 2, 8, 16)]),
            App::new("mid", Suite::Micro, vec![fma_kernel("k", 8, 8, 64)]),
            App::new("large", Suite::Micro, vec![fma_kernel("k", 32, 8, 128)]),
        ]
    }

    #[test]
    fn calibration_registers_predictions_and_ranks_sizes() {
        let sess = SimSession::in_memory();
        let base = crate::runner::suite_base();
        let report = calibrate_on(&sess, &apps(), &[Design::Baseline], |_| base.clone());
        assert_eq!(report.rows.len(), 3);
        // Strictly size-ordered workloads must rank perfectly.
        assert!(report.spearman > 0.99, "{}", report.render());
        assert!(report.passes());
        // Every simulated run carries its prediction in telemetry.
        let records = sess.telemetry().records();
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(r.predicted_cycles.is_some(), "{} lost its prediction", r.app);
            assert!(r.estimate_error().is_some());
        }
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = CalibrationReport {
            rows: vec![CalibrationRow {
                app: "a".into(),
                design: "baseline".into(),
                predicted: 150,
                simulated: 100,
                dominant: "issue",
            }],
            spearman: 0.9,
        };
        assert!((report.rows[0].error() - 0.5).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("PASS"), "{text}");
        let json = report.to_json().render();
        assert!(json.contains("\"spearman\""), "{json}");
        assert!(json.contains("\"pass\": true") || json.contains("\"pass\":true"), "{json}");
    }

    #[test]
    fn estimate_and_remap_render_without_simulating() {
        let app = subcore_workloads::app_by_name("pb-mriq").expect("registry app");
        let base = base_for(&app);
        let text = render_estimate(&estimate_app(&app, &base, Design::Baseline));
        assert!(text.contains("predicted cycles"), "{text}");
        let remap = render_remap(&app);
        assert!(remap.contains("pb-mriq"), "{remap}");
        assert!(remap.contains("static bank cost"), "{remap}");
    }
}
