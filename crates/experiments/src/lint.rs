//! `repro lint`: registry-wide static analysis plus trace calibration.
//!
//! Thin driver over `subcore-lint`: picks the right base configuration per
//! suite (the same ones the experiments run under), applies the registry's
//! explicit allow-list, and — in `--calibrate` mode — checks the static
//! bank-pressure ranking against *traced* mean bank-queue depths from
//! [`subcore_engine::WindowedSeries`], reporting the Spearman rank
//! correlation between the two.

use crate::cell::resolve_app;
use crate::runner::{base_for, suite_base};
use crate::trace;
use subcore_engine::GpuConfig;
use subcore_isa::App;
use subcore_lint::{BankPressure, LintReport, Linter};
use subcore_persist::Json;
use subcore_sched::Design;
use subcore_workloads::lint_allowances;

/// Lints every registered tenant mix under both partition policies:
/// the allocator's SM sets and each tenant's kernels are validated by
/// [`subcore_lint::check_tenants`] (codes L040–L042). Returns one
/// labelled diagnostic list per `(mix, policy)` pair that produced any
/// findings; an empty vector is a clean pass. Run by `repro lint --all`
/// after the registry pass.
pub fn lint_tenant_mixes() -> Vec<(String, Vec<subcore_lint::Diagnostic>)> {
    use subcore_sched::{PartitionPolicy, PARTITION_POLICIES};
    let base = suite_base();
    let mut out = Vec::new();
    for mix in subcore_workloads::tenant_mixes() {
        for policy in PARTITION_POLICIES {
            let runs = crate::tenants::mix_tenant_runs(&base, &mix, Design::Baseline, policy);
            let mut diags = Vec::new();
            subcore_lint::check_tenants(&base, &runs, policy == PartitionPolicy::Rigid, &mut diags);
            if !diags.is_empty() {
                out.push((format!("{}/{}", mix.name, policy.label()), diags));
            }
        }
    }
    out
}

/// Lints one app under `design` with the registry allow-list applied.
pub fn lint_app(design: Design, app: &App) -> LintReport {
    let mut report = Linter::new(base_for(app), design).lint_app(app);
    let allowances = lint_allowances();
    report.apply_allowances(allowances.iter().map(|a| (a.app.as_str(), a.codes, a.reason)));
    report
}

/// Aggregate outcome of linting a set of apps.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintTotals {
    /// Apps linted.
    pub apps: usize,
    /// Error diagnostics (never allowable).
    pub errors: usize,
    /// Warnings not covered by an allowance.
    pub warnings: usize,
    /// Diagnostics suppressed by the allow-list.
    pub allowed: usize,
    /// Info-level diagnostics.
    pub infos: usize,
}

impl LintTotals {
    /// Folds one report into the totals.
    pub fn add(&mut self, report: &LintReport) {
        self.apps += 1;
        self.errors += report.errors();
        self.warnings += report.unallowed_warnings();
        self.allowed += report.allowed();
        self.infos += report.infos();
    }

    /// Whether the run passes: errors always gate, unallowed warnings gate
    /// under `--deny-warnings`.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        self.errors == 0 && !(deny_warnings && self.warnings > 0)
    }

    /// One-line summary.
    pub fn render(&self) -> String {
        format!(
            "{} apps: {} errors, {} warnings, {} allowed, {} info",
            self.apps, self.errors, self.warnings, self.allowed, self.infos
        )
    }
}

/// Registry apps spanning the static bank-pressure spectrum, used by
/// `lint --calibrate` and the calibration integration test: structured
/// same-bank layouts (high), random compute layouts (mid), and
/// memory-bound streams (low).
pub const CALIBRATION_APPS: &[&str] =
    &["pb-mriq", "rod-srad", "cg-pgrnk", "pb-sgemm", "ply-gemm", "ply-atax", "rod-nn"];

/// One calibration point: an app's static score next to its traced depth.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// App name.
    pub app: String,
    /// Static bank-pressure score ([`BankPressure::score`], weighted by
    /// each kernel's dynamic instruction count).
    pub static_score: f64,
    /// Traced mean bank-queue depth over the run.
    pub traced_depth: f64,
}

/// The calibration result: per-app rows plus the rank correlation.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Per-app scores, in input order.
    pub rows: Vec<CalibrationRow>,
    /// Spearman rank correlation between static scores and traced depths.
    pub spearman: f64,
    /// Trace window used for the dynamic side.
    pub window: u32,
}

impl CalibrationReport {
    /// Human rendering: a ranked table plus the correlation.
    pub fn render(&self) -> String {
        let mut ranked: Vec<&CalibrationRow> = self.rows.iter().collect();
        ranked.sort_by(|a, b| b.static_score.total_cmp(&a.static_score));
        let mut out = String::from("app               static   traced-depth\n");
        for row in ranked {
            out.push_str(&format!(
                "{:<17} {:>6.3} {:>14.4}\n",
                row.app, row.static_score, row.traced_depth
            ));
        }
        out.push_str(&format!(
            "Spearman rank correlation (n={}, window={}): {:.3}\n",
            self.rows.len(),
            self.window,
            self.spearman
        ));
        out
    }

    /// JSON rendering for `--json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("window", Json::Uint(u64::from(self.window))),
            ("spearman", Json::Num(self.spearman)),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("app", Json::Str(r.app.clone())),
                                ("static_score", Json::Num(r.static_score)),
                                ("traced_depth", Json::Num(r.traced_depth)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Static bank-pressure score for a whole app: per-kernel
/// [`BankPressure::score`] weighted by dynamic instruction count, so a
/// short skewed prologue cannot dominate a long clean main loop.
pub fn static_app_score(app: &App, cfg: &GpuConfig) -> f64 {
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for kernel in app.kernels() {
        let p = BankPressure::of(kernel, cfg);
        let w = (p.dynamic_instrs * u64::from(kernel.blocks())) as f64;
        weighted += p.score() * w;
        weight += w;
    }
    if weight == 0.0 {
        0.0
    } else {
        weighted / weight
    }
}

/// Runs the calibration: static scores vs traced mean bank-queue depths
/// under the baseline design, one windowed trace per app.
///
/// # Panics
///
/// Panics if an app name does not resolve ([`resolve_app`]).
pub fn calibrate(apps: &[&str], window: u32) -> CalibrationReport {
    let mut rows = Vec::new();
    for name in apps {
        let app = resolve_app(name).unwrap_or_else(|e| panic!("{e}"));
        let base = base_for(&app);
        let static_score = static_app_score(&app, &Design::Baseline.config(&base));
        let artifact = trace::capture(&base, Design::Baseline, &app, window);
        rows.push(CalibrationRow {
            app: app.name().to_owned(),
            static_score,
            traced_depth: artifact.series.mean_bank_depth(),
        });
    }
    let xs: Vec<f64> = rows.iter().map(|r| r.static_score).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.traced_depth).collect();
    CalibrationReport { rows, spearman: spearman(&xs, &ys), window }
}

/// Average rank of each value, with ties sharing their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Positions i..=j hold equal values; all get the mean rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation: Pearson correlation of the tie-averaged
/// ranks. Returns 0.0 for degenerate inputs (fewer than two points or a
/// constant series).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    if xs.len() < 2 {
        return 0.0;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = rx.len() as f64;
    let mx = rx.iter().sum::<f64>() / n;
    let my = ry.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in rx.iter().zip(&ry) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_workloads::all_apps;

    #[test]
    fn spearman_handles_perfect_and_inverted_rankings() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up = [2.0, 4.0, 5.0, 8.0, 9.0];
        let down = [9.0, 8.0, 5.0, 4.0, 2.0];
        assert!((spearman(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &down) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[3.0, 3.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn spearman_averages_tied_ranks() {
        // Ties in x: ranks (1.5, 1.5, 3); monotone y: ranks (1, 2, 3).
        let r = spearman(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!(r > 0.0 && r < 1.0, "{r}");
    }

    #[test]
    fn structured_apps_outscore_streams_statically() {
        let structured = resolve_app("pb-mriq").unwrap();
        let stream = resolve_app("ply-atax").unwrap();
        let cfg = Design::Baseline.config(&suite_base());
        assert!(static_app_score(&structured, &cfg) > static_app_score(&stream, &cfg));
    }

    #[test]
    fn registry_has_no_unallowed_findings_under_baseline() {
        // The dogfooding gate in unit-test form: every registry app is
        // either clean or covered by an explicit allow-list entry.
        let mut totals = LintTotals::default();
        for app in all_apps() {
            let report = lint_app(Design::Baseline, &app);
            if !report.passes(true) {
                panic!("{} fails the lint gate:\n{}", app.name(), report.render(false));
            }
            totals.add(&report);
        }
        assert_eq!(totals.apps, 112);
        assert!(totals.passes(true));
        // The stressors are diagnosed (not silenced by weakened rules).
        assert!(totals.allowed > 0, "expected allowed stressor findings");
    }

    #[test]
    fn registered_tenant_mixes_pass_the_tenant_lint_gate() {
        // Same dogfooding discipline as the registry gate: every shipped
        // tenant mix allocates cleanly under both partition policies.
        let findings = lint_tenant_mixes();
        assert!(
            findings.iter().all(|(_, diags)| {
                diags.iter().all(|d| d.severity < subcore_lint::Severity::Warning)
            }),
            "tenant mixes should lint clean: {findings:?}"
        );
    }

    /// The ISSUE's calibration acceptance test: static bank-pressure
    /// ranking over ≥ 5 registry apps positively rank-correlates
    /// (Spearman > 0.5) with traced mean bank-queue depth.
    #[test]
    fn static_pressure_ranking_matches_traced_depths() {
        let report = calibrate(CALIBRATION_APPS, 2048);
        assert!(report.rows.len() >= 5);
        assert!(
            report.spearman > 0.5,
            "static/dynamic rank correlation too weak:\n{}",
            report.render()
        );
    }
}
