//! Shared experiment infrastructure: base configurations, design
//! execution, the worker-count cap, and speedup arithmetic.
//!
//! Simulation execution is owned by [`crate::session::SimSession`] and the
//! worker pool by [`crate::supervisor::supervise_map`]; the helpers here
//! are the thin layer the figure modules share.

use crate::session::{context, session};
use subcore_engine::{GpuConfig, RunStats};
use subcore_isa::{App, Suite};
use subcore_sched::Design;

/// Cycle budget used by both experiment base configs: generous enough for
/// every registry workload, small enough to catch runaway simulations.
const EXPERIMENT_MAX_CYCLES: u64 = 80_000_000;

/// Baseline configuration used for the general application suites: the
/// paper's Table II V100, scaled from 80 to 4 SMs so the 112-app sweeps
/// finish in minutes. Relative speedups are insensitive to the SM count
/// because the mechanisms under study are SM-internal; Fig. 18 sweeps SM
/// counts explicitly.
pub fn suite_base() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(4).with_max_cycles(EXPERIMENT_MAX_CYCLES)
}

/// Baseline configuration for TPC-H (the paper limits TPC-H to 20 SMs to
/// model heavy per-SM load; we scale to 8 SMs with proportionally fewer
/// blocks, keeping ≈ 3 resident blocks per SM).
pub fn tpch_base() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(8).with_max_cycles(EXPERIMENT_MAX_CYCLES)
}

/// The base configuration an app is analyzed and simulated under: the
/// TPC-H suites use the 8-SM database setup, everything else the 4-SM
/// suite setup.
pub fn base_for(app: &App) -> GpuConfig {
    match app.suite() {
        Suite::TpchUncompressed | Suite::TpchCompressed => tpch_base(),
        _ => suite_base(),
    }
}

/// Runs `app` under `design` (applied to the baseline `base` config) and
/// returns its statistics — the figures' convenience over
/// [`crate::SimSession::run_cell`] on the process-wide session, so
/// repeated calls with the same (config, design, app) simulate once and
/// share the memoized result.
///
/// # Panics
///
/// Panics if the simulation errors, naming the app and design (the
/// registry workloads are all schedulable; an error here is a harness
/// bug).
pub fn run_design(base: &GpuConfig, design: Design, app: &App) -> std::sync::Arc<RunStats> {
    session().try_run(base, design, app).unwrap_or_else(|e| {
        panic!("simulating `{}` under design `{}` failed: {e}", app.name(), design.label())
    })
}

/// Speedup of `x` over `baseline` (>1 means `x` is faster).
pub fn speedup(baseline: &RunStats, x: &RunStats) -> f64 {
    baseline.cycles as f64 / x.cycles as f64
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean (the paper's preferred average for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The worker-count ceiling of every [`crate::supervisor::supervise_map`]
/// pool, if any: the installed context's `--jobs` value, else a positive
/// integer `SUBCORE_JOBS` environment variable (read when the context is
/// installed), else `None` (use all available parallelism).
pub fn jobs_cap() -> Option<usize> {
    context().jobs
}

/// Parses a `SUBCORE_JOBS` value: a positive integer, whitespace-trimmed;
/// anything else (including `0`) means "no cap".
pub(crate) fn parse_jobs(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::fma_kernel;

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 8 "), Some(8));
        assert_eq!(parse_jobs("0"), None, "0 means no cap, not a zero-worker pool");
        assert_eq!(parse_jobs("all"), None);
        assert_eq!(parse_jobs(""), None);
        assert_eq!(parse_jobs("-2"), None);
    }

    #[test]
    fn means() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn run_design_and_speedup() {
        let app = subcore_isa::App::new("t", Suite::Micro, vec![fma_kernel("k", 4, 8, 64)]);
        let base = run_design(&suite_base(), Design::Baseline, &app);
        let fc = run_design(&suite_base(), Design::FullyConnected, &app);
        assert!(speedup(&base, &fc) > 0.5);
        // Determinism: running the same design twice gives identical cycles.
        let again = run_design(&suite_base(), Design::Baseline, &app);
        assert_eq!(base.cycles, again.cycles);
    }

    #[test]
    fn base_configs_use_the_experiment_cycle_budget() {
        assert_eq!(suite_base().max_cycles, EXPERIMENT_MAX_CYCLES);
        assert_eq!(tpch_base().max_cycles, EXPERIMENT_MAX_CYCLES);
        assert_eq!(suite_base().num_sms, 4);
        assert_eq!(tpch_base().num_sms, 8);
    }
}
