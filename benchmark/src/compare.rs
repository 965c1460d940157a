//! `BENCHMARK.json` as the harness reads it, and `compare A.json B.json`:
//! per (metric, workload) both values, the relative difference, and
//! whether B is inside the metric's regression bound relative to A — the
//! two-run repeatability check, and the parent-vs-change table of later
//! PRs.

use std::collections::BTreeMap;
use std::path::Path;

use subcore_persist::Json;

use crate::stats;

/// Counts that must repeat bit for bit between two runs of one commit (per
/// workload and trace mode): any difference is a changed simulation or a
/// changed cache path, not noise.
const EXACT: [&str; 6] = [
    "engine.sim_cycles",
    "engine.warp_instrs",
    "engine.rf_reads",
    "sweep.fresh_sims",
    "sweep.disk_hits",
    "sweep.journal_skips",
];

/// A bounded metric: which direction is better, and the share of the
/// parent's value by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    higher_is_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` the harness uses.
pub struct BenchSpec {
    pub run_seconds: u64,
    /// Metric names of the untraced run's summary line.
    pub end_to_end: Vec<String>,
    /// Metric names of the traced run's summary line.
    pub per_layer: Vec<String>,
    bounds: BTreeMap<String, Bound>,
}

impl BenchSpec {
    pub fn load(root: &Path) -> Result<BenchSpec, String> {
        let path = root.join("BENCHMARK.json");
        let read = || -> Result<BenchSpec, String> {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let json = Json::parse(&text).map_err(|e| e.to_string())?;
            let names = |key: &str| -> Result<Vec<String>, String> {
                let items = json.field(key).and_then(Json::as_arr).map_err(|e| e.to_string())?;
                items
                    .iter()
                    .map(|m| m.field("name")?.as_str().map(str::to_owned))
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())
            };
            let mut bounds = BTreeMap::new();
            for m in json.field("end_to_end").and_then(Json::as_arr).map_err(|e| e.to_string())? {
                let get = |k: &str| m.field(k).map_err(|e| e.to_string());
                let name = get("name")?.as_str().map_err(|e| e.to_string())?.to_owned();
                let higher_is_better = get("better")?.as_str() == Ok("higher");
                let bound = get("bound")?.as_f64().map_err(|e| e.to_string())?;
                bounds.insert(name, Bound { higher_is_better, bound });
            }
            Ok(BenchSpec {
                run_seconds: json
                    .field("run_seconds")
                    .and_then(Json::as_u64)
                    .map_err(|e| e.to_string())?,
                end_to_end: names("end_to_end")?,
                per_layer: names("per_layer")?,
                bounds,
            })
        };
        read().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `(workload, traced, metric) → (one value per result file, unit)`.
type Values = BTreeMap<(String, bool, String), (Vec<f64>, String)>;

/// Reads one side of a comparison: a result file, or a directory of them
/// (one per run; `run` names them by workload, mode and seed).
fn load_side(path: &str) -> Result<Values, String> {
    let mut files = Vec::new();
    if Path::new(path).is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
            let file = entry.map_err(|e| format!("{path}: {e}"))?.path();
            if file.extension().is_some_and(|x| x == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.into());
    }
    let mut values = Values::new();
    for file in &files {
        let mut read = || -> Result<(), subcore_persist::JsonError> {
            let text = std::fs::read_to_string(file)
                .map_err(|e| subcore_persist::JsonError { msg: e.to_string() })?;
            for result in Json::parse(&text)?.field("results")?.as_arr()? {
                let workload = result.field("workload")?.as_str()?;
                let traced = result.field("traced")?.as_bool()?;
                for m in result.field("metrics")?.as_arr()? {
                    let key = (workload.to_owned(), traced, m.field("name")?.as_str()?.to_owned());
                    // A non-finite value was written as null; keep it visible.
                    let value = m.field("value")?.as_f64().unwrap_or(f64::NAN);
                    let unit = m.field("unit")?.as_str()?.to_owned();
                    values.entry(key).or_insert((Vec::new(), unit)).0.push(value);
                }
            }
            Ok(())
        };
        read().map_err(|e| format!("{}: {e}", file.display()))?;
    }
    if values.is_empty() {
        return Err(format!("{path}: no results"));
    }
    Ok(values)
}

/// How B stands relative to A for one metric, given each side's median and
/// the wider of the two sides' run-to-run spreads (IQR ÷ median; 0 for a
/// side with fewer than four runs).
fn verdict(name: &str, a: f64, b: f64, spread: f64, bound: Option<Bound>) -> &'static str {
    if EXACT.contains(&name) {
        return if a == b { "identical" } else { "DIFFERS" };
    }
    let Some(Bound { higher_is_better, bound }) = bound else { return "-" };
    let worsening = if higher_is_better { (a - b) / a } else { (b - a) / a };
    // A NaN on either side is outside, not inside.
    if worsening.is_nan() || worsening > bound {
        "OUTSIDE"
    } else if spread > bound {
        // The runs scatter more than the bound: "inside" would claim a
        // resolution the measurement does not have.
        "unresolved"
    } else {
        "inside"
    }
}

/// Run-to-run spread of one side as the benchmark's driver takes it: the
/// distance between the quartiles that Python's
/// `statistics.quantiles(values, n=4)` gives, over the median (0 for a side
/// with fewer than four runs).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's default ("exclusive") method: quartile i sits at i·(n+1)/4,
    // counted from 1, interpolated between its neighbours.
    let quartile = |i: usize| {
        let (j, delta) = ((i * (v.len() + 1)) / 4, (i * (v.len() + 1)) % 4);
        let j = j.clamp(1, v.len() - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (quartile(3) - quartile(1)) / stats::median(&v)
}

/// `compare A B`, each a result file or a directory of them (one per run).
/// Per (workload, mode, metric): the median of each side, the relative
/// difference, each side's spread, and the verdict. `Ok(false)` when any
/// bounded metric of B is outside its bound or any exact count differs.
pub fn run(args: &[String], root: &Path) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files or directories".to_owned());
    };
    let spec = BenchSpec::load(root)?;
    let (a, b) = (load_side(a_path)?, load_side(b_path)?);
    let mut ok = true;
    println!(
        "{:<14} {:<8} {:<32} {:<10} {:>14} {:>14} {:>8} {:>7} {:>7}  bound",
        "workload", "mode", "metric", "unit", "A", "B", "diff", "A iqr", "B iqr"
    );
    for ((workload, traced, name), (va, unit)) in &a {
        let Some((vb, _)) = b.get(&(workload.clone(), *traced, name.clone())) else { continue };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let (sa, sb) = (spread(va), spread(vb));
        let bound = spec.bounds.get(name).copied();
        let verdict = verdict(name, ma, mb, sa.max(sb), bound);
        ok &= !matches!(verdict, "OUTSIDE" | "DIFFERS");
        println!(
            "{workload:<14} {:<8} {name:<32} {unit:<10} {ma:>14.5} {mb:>14.5} {:>+7.1}% {:>6.1}% {:>6.1}%  {}{verdict}",
            if *traced { "traced" } else { "untraced" },
            (mb - ma) / ma * 100.0,
            sa * 100.0,
            sb * 100.0,
            bound.map_or(String::new(), |b| format!("{:.0}% ", b.bound * 100.0)),
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        let up = Some(Bound { higher_is_better: true, bound: 0.10 });
        let down = Some(Bound { higher_is_better: false, bound: 0.10 });
        assert_eq!(verdict("x", 100.0, 91.0, 0.0, up), "inside");
        assert_eq!(verdict("x", 100.0, 89.0, 0.0, up), "OUTSIDE");
        assert_eq!(
            verdict("x", 100.0, 300.0, 0.0, up),
            "inside",
            "an improvement is never outside"
        );
        assert_eq!(verdict("x", 100.0, 109.0, 0.0, down), "inside");
        assert_eq!(verdict("x", 100.0, 111.0, 0.0, down), "OUTSIDE");
        assert_eq!(verdict("x", 100.0, f64::NAN, 0.0, down), "OUTSIDE");
        assert_eq!(
            verdict("x", 100.0, 101.0, 0.2, down),
            "unresolved",
            "scatter wider than the bound"
        );
        assert_eq!(verdict("x", 1.0, 2.0, 0.0, None), "-");
    }

    #[test]
    fn spread_is_the_drivers() {
        // Expected values are Python's, from `statistics.quantiles(v, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert!((spread(&[3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        assert!((spread(&[10.0, 11.0, 12.0, 20.0]) - 7.75 / 11.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn exact_counts_must_match() {
        assert_eq!(verdict("engine.sim_cycles", 5.0, 5.0, 0.0, None), "identical");
        assert_eq!(verdict("sweep.disk_hits", 200.0, 199.0, 0.0, None), "DIFFERS");
    }

    #[test]
    fn benchmark_json_lists_every_metric_once() {
        let spec = BenchSpec::load(&crate::proc::repo_root()).unwrap();
        assert!(spec.run_seconds >= 1 && spec.run_seconds <= 60);
        assert!(spec.end_to_end.contains(&"setup_s".to_owned()));
        let mut all: Vec<&String> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "a metric name is used once");
        assert_eq!(spec.bounds.len(), spec.end_to_end.len());
    }
}
