//! Head-to-head engine benchmark (`repro bench-engine`): runs a fixed
//! headline workload subset under the shipping engine
//! ([`EngineMode::Adaptive`]) and the polled reference, asserts the
//! resulting `RunStats` are bit-identical, and reports per-case and
//! aggregate throughput.
//!
//! This is the verify gate's perf smoke test: it fails loudly if the fast
//! path ever diverges from the polled reference on the workloads the
//! figures are built from, and it archives the measured speedups to
//! `BENCH_engine.json` so regressions are visible in review. With
//! `--check`, the measurements are additionally compared against the
//! committed baseline artifact ([`EngineBenchReport::check_against_baseline`]):
//! any case falling below parity with the reference, or a geomean below
//! the baseline's recorded floor — both minus the same [`NOISE_BAND`] —
//! fails the gate. Simulations run directly through the engine — not the
//! memoizing session — so both modes are timed honestly.

use std::time::Instant;

use subcore_engine::{simulate_app, EngineMode, GpuConfig, RunStats};
use subcore_isa::App;
use subcore_persist::Json;
use subcore_sched::Design;

/// One benchmark case: a workload under a design on a base configuration.
pub struct EngineBenchCase {
    /// Workload to simulate.
    pub app: App,
    /// Design applied to the base configuration.
    pub design: Design,
    /// Base configuration (the engine mode is overridden per run).
    pub base: GpuConfig,
}

/// Measured outcome of one case (stats already verified identical).
pub struct EngineBenchRow {
    /// `app/design` label.
    pub label: String,
    /// Simulated cycles (identical in both modes by construction).
    pub cycles: u64,
    /// Wall seconds of the polled-reference run.
    pub reference_secs: f64,
    /// Wall seconds of the shipping (adaptive) engine run.
    pub fast_secs: f64,
}

impl EngineBenchRow {
    /// Wall-time speedup of the shipping engine over the reference.
    pub fn speedup(&self) -> f64 {
        self.reference_secs / self.fast_secs
    }
}

/// The one timing-noise band of the `--check` gate: a case only fails
/// below `1.0 - NOISE_BAND` of parity with the reference, and the geomean
/// only below `1.0 - NOISE_BAND` of the recorded one. Dense ~40ms cases have
/// been observed swinging ±10% run-to-run on loaded machines, so the band
/// is sized to catch real fast-path regressions, not scheduler noise.
pub const NOISE_BAND: f64 = 0.12;

/// The full bench report: one row per case.
pub struct EngineBenchReport {
    /// Engine-mode tag of the fast engine measured (the shipping default).
    pub mode: &'static str,
    /// Per-case measurements, in case order.
    pub rows: Vec<EngineBenchRow>,
}

impl EngineBenchReport {
    /// Geometric-mean wall-time speedup across all cases.
    pub fn geomean_speedup(&self) -> f64 {
        crate::runner::geomean(&self.rows.iter().map(EngineBenchRow::speedup).collect::<Vec<_>>())
    }

    /// Human-readable table of the measurements.
    pub fn render(&self) -> String {
        let mut s = format!("engine bench: {} vs polled reference\n", self.mode);
        s.push_str(&format!(
            "  {:<28} {:>12} {:>11} {:>11} {:>8}\n",
            "case", "cycles", "reference", self.mode, "speedup"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "  {:<28} {:>12} {:>10.2}s {:>10.2}s {:>7.2}x\n",
                r.label,
                r.cycles,
                r.reference_secs,
                r.fast_secs,
                r.speedup(),
            ));
        }
        s.push_str(&format!("  geomean speedup: {:.2}x\n", self.geomean_speedup()));
        s
    }

    /// JSON artifact written to `BENCH_engine.json`. The recorded
    /// `geomean_floor` is what later `--check` runs are held to.
    pub fn to_json(&self) -> Json {
        let geomean = self.geomean_speedup();
        Json::obj([
            ("schema", Json::Uint(2)),
            ("mode", Json::Str(self.mode.to_owned())),
            ("geomean_speedup", Json::Num(geomean)),
            ("geomean_floor", Json::Num(geomean * (1.0 - NOISE_BAND))),
            (
                "cases",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("case", Json::Str(r.label.clone())),
                                ("cycles", Json::Uint(r.cycles)),
                                ("reference_secs", Json::Num(r.reference_secs)),
                                ("fast_secs", Json::Num(r.fast_secs)),
                                ("speedup", Json::Num(r.speedup())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The `--check` regression gate: compares this report against a
    /// committed baseline artifact (schema 2).
    ///
    /// Fails when any baseline case is missing from this run, when any
    /// measured case's speedup over the reference drops below `1.0 - tol`
    /// (the fast engine must never lose to the polled loop), or when the
    /// measured geomean falls below the baseline's recorded floor.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of every violation found.
    pub fn check_against_baseline(&self, baseline: &Json, tol: f64) -> Result<(), String> {
        let mut violations = Vec::new();
        match baseline.field("schema").and_then(Json::as_u64) {
            Ok(2) => {}
            other => violations
                .push(format!("baseline schema {other:?} unsupported (expected 2); re-record it")),
        }
        let base_cases = baseline.field("cases").and_then(Json::as_arr).unwrap_or(&[]);
        for bc in base_cases {
            let Ok(label) = bc.field("case").and_then(Json::as_str) else {
                continue;
            };
            if !self.rows.iter().any(|r| r.label == label) {
                violations.push(format!("baseline case `{label}` missing from this run"));
            }
        }
        for r in &self.rows {
            if r.speedup() < 1.0 - tol {
                violations.push(format!(
                    "{}: speedup {:.2}x below parity floor {:.2}x",
                    r.label,
                    r.speedup(),
                    1.0 - tol
                ));
            }
        }
        if let Ok(floor) = baseline.field("geomean_floor").and_then(Json::as_f64) {
            let geomean = self.geomean_speedup();
            if geomean < floor {
                violations.push(format!(
                    "geomean speedup {geomean:.2}x below recorded floor {floor:.2}x"
                ));
            }
        } else {
            violations.push("baseline records no geomean_floor; re-record it".into());
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }
}

/// Smoke-sized base configuration: 2 SMs keep each case in the low
/// seconds while still exercising cross-SM admission and skip-ahead.
fn smoke_base() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(2).with_max_cycles(20_000_000)
}

/// The fixed headline subset: one workload per behavior class (compute,
/// register-bound, irregular, TPC-H, idle-heavy imbalance), Baseline
/// everywhere plus one non-baseline design to cover policy interplay.
pub fn headline_cases() -> Vec<EngineBenchCase> {
    let registry = ["pb-sgemm", "rod-bp", "pb-spmv", "pb-sad", "tpcC-q9"];
    let mut cases: Vec<EngineBenchCase> = registry
        .iter()
        .map(|name| EngineBenchCase {
            app: subcore_workloads::app_by_name(name).expect("registry app"),
            design: Design::Baseline,
            base: smoke_base(),
        })
        .collect();
    cases.push(EngineBenchCase {
        app: subcore_workloads::fma_microbenchmark(
            subcore_workloads::FmaLayout::Unbalanced,
            4,
            4096,
        ),
        design: Design::Baseline,
        base: smoke_base(),
    });
    cases.push(EngineBenchCase {
        app: subcore_workloads::fma_unbalanced_scaled(4, 512, 12),
        design: Design::Baseline,
        base: smoke_base(),
    });
    // The deep-imbalance tail (one loaded warp per sub-core running 32-48x
    // longer than the rest) is where the paper's partitioning effects live
    // and where ready sets are sparsest — the fast path's best regime.
    cases.push(EngineBenchCase {
        app: subcore_workloads::fma_unbalanced_scaled(4, 512, 32),
        design: Design::Baseline,
        base: smoke_base(),
    });
    cases.push(EngineBenchCase {
        app: subcore_workloads::fma_unbalanced_scaled(2, 256, 48),
        design: Design::Baseline,
        base: smoke_base(),
    });
    cases.push(EngineBenchCase {
        app: subcore_workloads::app_by_name("pb-sgemm").expect("registry app"),
        design: Design::Rba,
        base: smoke_base(),
    });
    cases
}

/// Timed repetitions per mode per case: the minimum over the repetitions
/// is reported, since scheduling noise only ever adds time.
const TIMING_RUNS: usize = 5;

/// Target wall time per timed measurement. Short cases are simulated
/// several times back-to-back (and the elapsed time divided) until one
/// measurement reaches this long, so ~40ms workloads aren't judged by a
/// single scheduler-noise-sized sample.
const MIN_MEASURE_SECS: f64 = 0.3;

/// Runs every case under the shipping (adaptive) engine and the polled
/// reference, asserting bit-exact stats.
///
/// Returns `Err` (instead of panicking) when a case diverges, so the
/// `repro` binary can report the offending case and exit nonzero.
pub fn run_cases(cases: Vec<EngineBenchCase>) -> Result<EngineBenchReport, String> {
    let fast_mode = EngineMode::Adaptive;
    let mut rows = Vec::with_capacity(cases.len());
    for case in cases {
        let label = format!("{}/{}", case.app.name(), case.design.label());
        let cfg = case.design.config(&case.base);
        let policies = case.design.policies();
        let timed = |mode: EngineMode| -> Result<(RunStats, f64), String> {
            let cfg = cfg.clone().with_engine_mode(mode);
            let t0 = Instant::now();
            let stats = simulate_app(&cfg, &policies, &case.app)
                .map_err(|e| format!("{label} ({mode:?}): {e}"))?;
            Ok((stats, t0.elapsed().as_secs_f64()))
        };
        let (reference, first_ref_secs) = timed(EngineMode::Reference)?;
        let (fast, _) = timed(fast_mode)?;
        if fast != reference {
            return Err(format!(
                "{label}: {} stats diverged from the polled reference (cycles {} vs {})",
                fast_mode.tag(),
                fast.cycles,
                reference.cycles
            ));
        }
        // Amortize short cases: simulate back-to-back until one measurement
        // spans MIN_MEASURE_SECS, and report the per-simulation mean.
        let reps = ((MIN_MEASURE_SECS / first_ref_secs.max(1e-9)).ceil() as usize).clamp(1, 32);
        let measure = |mode: EngineMode| -> Result<f64, String> {
            let mut total = 0.0;
            for _ in 0..reps {
                total += timed(mode)?.1;
            }
            Ok(total / reps as f64)
        };
        // Modes alternate so slow drift (thermal, cache) hits both equally.
        let mut reference_secs = f64::INFINITY;
        let mut fast_secs = f64::INFINITY;
        for _ in 0..TIMING_RUNS {
            reference_secs = reference_secs.min(measure(EngineMode::Reference)?);
            fast_secs = fast_secs.min(measure(fast_mode)?);
        }
        rows.push(EngineBenchRow { label, cycles: fast.cycles, reference_secs, fast_secs });
    }
    Ok(EngineBenchReport { mode: fast_mode.tag(), rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_workloads::{fma_microbenchmark, FmaLayout};

    fn tiny_case() -> EngineBenchCase {
        EngineBenchCase {
            app: fma_microbenchmark(FmaLayout::Unbalanced, 2, 64),
            design: Design::Baseline,
            base: GpuConfig::volta_v100().with_sms(1).with_max_cycles(5_000_000),
        }
    }

    fn report(speedups: &[f64]) -> EngineBenchReport {
        EngineBenchReport {
            mode: "adaptive",
            rows: speedups
                .iter()
                .enumerate()
                .map(|(i, &s)| EngineBenchRow {
                    label: format!("case-{i}/baseline"),
                    cycles: 1000,
                    reference_secs: s,
                    fast_secs: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn tiny_case_matches_and_reports() {
        let report = run_cases(vec![tiny_case()]).expect("modes agree");
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.cycles > 0);
        assert!(row.reference_secs >= 0.0 && row.fast_secs >= 0.0);
        let text = report.render();
        assert!(text.contains("geomean speedup"), "render: {text}");
        assert!(text.contains(&row.label), "render: {text}");
    }

    #[test]
    fn json_artifact_round_trips() {
        let report = report(&[2.0]);
        let json = report.to_json().render();
        let parsed = Json::parse(&json).expect("valid json");
        assert_eq!(parsed.field("schema").and_then(Json::as_u64).unwrap(), 2);
        assert_eq!(parsed.field("mode").and_then(Json::as_str).unwrap(), "adaptive");
        let floor = parsed.field("geomean_floor").and_then(Json::as_f64).unwrap();
        assert!((floor - 2.0 * (1.0 - NOISE_BAND)).abs() < 1e-9);
        let cases = parsed.field("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].field("cycles").and_then(Json::as_u64).unwrap(), 1000);
        let speedup = cases[0].field("speedup").and_then(Json::as_f64).unwrap();
        assert!((speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn check_passes_against_own_baseline() {
        let r = report(&[1.5, 2.0]);
        let baseline = Json::parse(&r.to_json().render()).expect("valid json");
        r.check_against_baseline(&baseline, 0.05).expect("self-check passes");
    }

    #[test]
    fn check_fails_on_sub_parity_case() {
        let good = report(&[1.5, 2.0]);
        let baseline = Json::parse(&good.to_json().render()).expect("valid json");
        let mut bad = report(&[1.5, 2.0]);
        bad.rows[1].fast_secs = bad.rows[1].reference_secs * 2.0; // 0.5x
        let err = bad.check_against_baseline(&baseline, 0.05).expect_err("parity violated");
        assert!(err.contains("below parity floor"), "got: {err}");
    }

    #[test]
    fn check_fails_on_geomean_regression_and_missing_case() {
        let good = report(&[2.0, 2.0, 2.0]);
        let baseline = Json::parse(&good.to_json().render()).expect("valid json");
        // Slower overall, and one case dropped from the run entirely.
        let shrunk = report(&[1.05, 1.05]);
        let err = shrunk.check_against_baseline(&baseline, 0.05).expect_err("regressed");
        assert!(err.contains("below recorded floor"), "got: {err}");
        assert!(err.contains("missing from this run"), "got: {err}");
    }

    #[test]
    fn check_rejects_old_schema() {
        let r = report(&[2.0]);
        let baseline = Json::parse(r#"{"schema": 1, "cases": []}"#).expect("valid json");
        let err = r.check_against_baseline(&baseline, 0.05).expect_err("schema too old");
        assert!(err.contains("re-record"), "got: {err}");
    }

    #[test]
    fn headline_cases_cover_the_behavior_classes() {
        let cases = headline_cases();
        assert!(cases.len() >= 5);
        assert!(cases.iter().any(|c| c.app.name().starts_with("tpc")), "TPC-H case present");
        assert!(cases.iter().any(|c| !matches!(c.design, Design::Baseline)), "non-baseline case");
    }
}
