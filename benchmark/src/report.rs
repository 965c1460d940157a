//! What a run produces: named metrics with unit, spread and sample count,
//! the attempted/failed operation tally, and the JSON forms of both (the
//! per-run result file `compare` reads, and the one-line summary the
//! driver reads from the end of stdout).

use std::collections::BTreeMap;

use subcore_persist::Json;

use crate::stats;

/// One measured quantity.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind `value` (1 for exact counts and derived figures).
    pub n: usize,
    /// Inter-quartile range of those samples, in `unit`.
    pub iqr: f64,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value: stats::median(samples),
            n: samples.len(),
            iqr: stats::iqr(samples),
        }
    }

    /// Quantile `q` of `samples` (spread still reported as their IQR).
    pub fn quantile(name: &str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        Metric { value: stats::quantile(samples, q), ..Metric::median(name, unit, samples) }
    }

    /// A count or a figure derived from other metrics: no spread of its own.
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.to_owned(), unit, value, n: 1, iqr: 0.0 }
    }

    /// A `value` worked out from `samples` by the caller (a rate, a sum of
    /// per-case medians): the spread is carried over as the same share of
    /// the value as the samples' IQR is of their median.
    pub fn estimate(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        let share = stats::iqr(samples) / stats::median(samples);
        Metric { name: name.to_owned(), unit, value, n: samples.len(), iqr: value * share }
    }

    /// `scale ÷ median(walls_s)` — a rate from repeated wall times.
    pub fn rate(name: &str, unit: &'static str, scale: f64, walls_s: &[f64]) -> Metric {
        Metric::estimate(name, unit, scale / stats::median(walls_s), walls_s)
    }
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Operations attempted (simulations, child processes, served jobs,
    /// resubmits, correctness checks on them).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or produced a wrong
    /// answer. Any nonzero value makes the command exit nonzero.
    pub failed: u64,
    /// One line per failure, naming the case.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Outcome {
        Outcome { workload: workload.to_owned(), seed, traced, ..Outcome::default() }
    }

    /// Counts one attempted operation; a false `ok` counts it failed and
    /// records `what` so the run fails loudly instead of timing a wrong
    /// answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("FAILED [{}]: {msg}", self.workload);
            self.errors.push(msg);
        }
    }

    /// Adds the tally of a client thread: `attempted` operations, of which
    /// one failed per entry of `errors`.
    pub fn absorb(&mut self, attempted: u64, errors: Vec<String>) {
        self.attempted += attempted - errors.len() as u64;
        errors.into_iter().for_each(|e| self.check(false, || e));
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `name unit value` lines (plus spread and sample count).
    pub fn render(&self) -> String {
        let mut s = format!(
            "== {} (seed {}, {})\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            s.push_str(&format!(
                "{:<34} {:<10} {:>16.6}  iqr {:>12.6}  n {}\n",
                m.name, m.unit, m.value, m.iqr, m.n
            ));
        }
        s.push_str(&format!(
            "{:<34} {:<10} {:>16.6}  ({} failed of {} attempted)\n",
            "failed_share",
            "share",
            self.failed_share(),
            self.failed,
            self.attempted
        ));
        s
    }

    /// The result-file form: everything measured, for `compare`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Uint(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Uint(self.attempted)),
            ("failed", Json::Uint(self.failed)),
            ("errors", Json::Arr(self.errors.iter().cloned().map(Json::Str).collect())),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::Str(m.name.clone())),
                                ("unit", Json::Str(m.unit.to_owned())),
                                ("value", Json::Num(m.value)),
                                ("iqr", Json::Num(m.iqr)),
                                ("n", Json::Uint(m.n as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The driver's line: exactly the metrics `names` lists (the
    /// `end_to_end` set of an untraced run, the `per_layer` set of a traced
    /// one). A listed metric the run did not produce is a harness bug and
    /// counts as a failure.
    pub fn driver_line(&mut self, names: &[String]) -> String {
        let mut metrics = BTreeMap::new();
        for name in names {
            match self.get(name).filter(|m| m.value.is_finite()) {
                Some(m) => {
                    let entry = [("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))];
                    metrics.insert(name.clone(), Json::obj(entry));
                }
                None => self.check(false, || format!("metric `{name}` was not measured")),
            }
        }
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Uint(self.attempted.max(1))),
            ("failed", Json::Uint(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}
