//! Fig. 3: in-silicon FMA microbenchmark — performance degradation from
//! sub-core issue imbalance.
//!
//! The paper runs the three Fig. 4 layouts on real A100 / RTX 3070 (both
//! 4 sub-cores per SM) and K20 (monolithic Kepler) silicon; we run them on
//! the simulated 4-sub-core Volta model and the fully-connected
//! (Kepler-like) model. Values are execution time normalized to that GPU's
//! *baseline* layout: the paper measures ≈ 3.9× for unbalanced on A100 and
//! ≈ 1.0× everywhere on Kepler.

use crate::report::Table;
use crate::runner::run_design;
use crate::sweep::fill_rows;
use subcore_engine::GpuConfig;
use subcore_sched::Design;
use subcore_workloads::{fma_microbenchmark, FmaLayout};

/// FMAs per compute thread (scaled down from the paper's 4096 for sweep
/// speed; the effect is trip-count-independent once loops dominate).
const FMAS: u32 = 1024;
/// Thread blocks in the microbenchmark grid.
const BLOCKS: u32 = 8;

/// The three hardware generations compared (the paper runs A100, an RTX
/// part, and a Kepler K20; we run their simulated equivalents, each scaled
/// to one SM — the effect is SM-internal).
fn generations() -> Vec<(&'static str, GpuConfig)> {
    vec![
        ("A100-like (4 sub-cores)", GpuConfig::ampere_a100().with_sms(1)),
        ("RTX-like (4 sub-cores)", GpuConfig::turing_like().with_sms(1)),
        ("Kepler-like (monolithic)", GpuConfig::kepler_like().with_sms(1)),
    ]
}

/// Runs the experiment.
pub fn run() -> Table {
    let gens = generations();
    let mut table = Table::new(
        "fig03_fma_hw",
        "FMA microbenchmark: exec time normalized to the baseline layout",
        gens.iter().map(|(n, _)| (*n).to_owned()).collect(),
    );
    let layouts: Vec<FmaLayout> = FmaLayout::ALL.to_vec();
    let rows = fill_rows(
        &mut table,
        layouts.clone(),
        |l| l.label().to_owned(),
        |&layout| {
            let app = fma_microbenchmark(layout, BLOCKS, FMAS);
            // `Design::Baseline` is GTO + round-robin on the unchanged
            // config: each generation's hardware baseline, run through the
            // session like every other figure cell.
            gens.iter()
                .map(|(_, cfg)| run_design(cfg, Design::Baseline, &app).cycles as f64)
                .collect::<Vec<f64>>()
        },
    );
    // Normalize each column to its own baseline-layout time; without the
    // baseline-layout row the other layouts have nothing to normalize
    // against and render as gaps.
    let base_times = rows.first().cloned().flatten();
    if base_times.is_none() {
        table.note_gap("baseline layout missing; normalized rows are gaps".to_owned());
    }
    for (layout, times) in layouts.iter().zip(rows) {
        let values = match (&base_times, times) {
            (Some(base), Some(times)) => times.iter().zip(base).map(|(t, b)| t / b).collect(),
            _ => vec![f64::NAN; gens.len()],
        };
        table.push_row(layout.label().to_owned(), values);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let t = run();
        // Partitioned generations: unbalanced ≈ 4×, balanced ≈ 1×.
        for gen in ["A100-like (4 sub-cores)", "RTX-like (4 sub-cores)"] {
            let unbal = t.get("unbalanced", gen).unwrap();
            assert!((3.0..4.5).contains(&unbal), "{gen}: paper ≈3.9×, got {unbal:.2}");
            let bal = t.get("balanced", gen).unwrap();
            assert!(bal < 1.2, "{gen}: balanced matches baseline, got {bal:.2}");
        }
        // Monolithic: all ≈ 1×.
        let k = t.get("unbalanced", "Kepler-like (monolithic)").unwrap();
        assert!(k < 1.3, "Kepler shows no imbalance penalty, got {k:.2}");
    }
}
