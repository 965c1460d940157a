//! Probe-trace capture and design-diff tooling (`repro trace` and
//! `repro trace-diff`).
//!
//! A *trace* here is the windowed time-series the engine's probe points
//! aggregate for one SM ([`WindowedSeries`], attached to
//! `RunStats::windowed` when `trace_window > 0`). This module captures
//! such series through the memoizing session, persists them as JSON
//! artifacts under `results/traces/`, optionally streams the raw event
//! feed to a JSONL file for bounded deep dives, and renders a report of
//! where two designs' bank-queue and issue-imbalance trajectories diverge.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::runner::run_design;
use subcore_engine::{
    simulate, GpuConfig, JsonlSink, StallKind, WindowedSeries, Workload, ENGINE_BUILD,
};
use subcore_isa::App;
use subcore_persist::record::Stamp;
use subcore_persist::{Json, JsonCodec, JsonError};
use subcore_sched::Design;

/// The record stamp of a saved trace artifact: an artifact captured by
/// another engine build is refused, not misinterpreted.
const ARTIFACT: Stamp = Stamp { kind: "trace-artifact", version: 1, engine: Some(ENGINE_BUILD) };

/// A captured windowed trace plus the identity needed to interpret it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifact {
    /// Workload name the trace was captured from.
    pub app: String,
    /// Design label (see `Design::label`).
    pub design: String,
    /// The windowed series itself.
    pub series: WindowedSeries,
}

impl JsonCodec for TraceArtifact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.clone())),
            ("design", Json::Str(self.design.clone())),
            ("series", self.series.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(TraceArtifact {
            app: json.field("app")?.as_str()?.to_owned(),
            design: json.field("design")?.as_str()?.to_owned(),
            series: WindowedSeries::from_json(json.field("series")?)?,
        })
    }
}

impl TraceArtifact {
    /// Canonical artifact file name: `<app>.<design>.w<window>.json`.
    pub fn file_name(app: &str, design: &str, window: u64) -> String {
        format!("{app}.{design}.w{window}.json")
    }

    /// Writes the artifact under `dir` (created as needed) as a durable
    /// record stamped with the engine build, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(Self::file_name(&self.app, &self.design, self.series.window));
        ARTIFACT.store(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads an artifact previously written by [`TraceArtifact::save`] of
    /// this engine build.
    ///
    /// # Errors
    ///
    /// Fails if the file is absent, unreadable, corrupt, or was captured
    /// by another engine build.
    pub fn load(path: &Path) -> io::Result<TraceArtifact> {
        ARTIFACT.load_as(path).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a trace artifact of this engine build", path.display()),
            )
        })
    }

    /// One-paragraph human summary of the series.
    pub fn summary(&self) -> String {
        let s = &self.series;
        format!(
            "{} under {}: {} cycles in {} windows of {} (SM {}, {} domains × {} banks)\n  \
             mean bank-queue depth {:.3}, max {}, {} issues, mean issue CV {}\n",
            self.app,
            self.design,
            s.total_cycles,
            s.windows.len(),
            s.window,
            s.sm,
            s.domains,
            s.banks,
            s.mean_bank_depth(),
            s.max_bank_depth(),
            s.total_issued(),
            s.mean_issue_cv().map_or("n/a".into(), |cv| format!("{cv:.3}")),
        )
    }
}

/// Captures the windowed trace of `app` under `design`, routed through the
/// memoizing session (the probe config is part of the run's fingerprint, so
/// traced and untraced runs never alias).
///
/// # Panics
///
/// Panics if `window == 0` or the simulation errors.
pub fn capture(base: &GpuConfig, design: Design, app: &App, window: u32) -> TraceArtifact {
    assert!(window > 0, "a zero window disables tracing");
    let mut cfg = base.clone();
    cfg.stats.trace_window = window;
    cfg.stats.trace_sm = 0;
    let stats = run_design(&cfg, design, app);
    let series =
        stats.windowed.clone().expect("trace_window > 0 always attaches a windowed series");
    TraceArtifact { app: app.name().to_owned(), design: design.label(), series }
}

/// Streams the raw probe-event feed of one (uncached, freshly simulated)
/// run to `out` as JSONL, at most `limit` events. Returns the number of
/// events written.
///
/// # Errors
///
/// Fails on filesystem errors or if the simulation errors.
pub fn capture_events(
    base: &GpuConfig,
    design: Design,
    app: &App,
    window: u32,
    limit: u64,
    out: &Path,
) -> io::Result<u64> {
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut cfg = design.config(base);
    cfg.stats.trace_window = window;
    cfg.stats.trace_sm = 0;
    let file = io::BufWriter::new(std::fs::File::create(out)?);
    let mut sink = JsonlSink::with_limit(file, limit);
    simulate(&cfg, &design.policies(), Workload::App(app), vec![&mut sink])
        .map_err(|e| io::Error::other(format!("simulation failed: {e:?}")))?;
    let written = sink.written();
    let failed = sink.failed();
    crate::session::session().telemetry().note_trace_drops(sink.dropped());
    let mut file = sink.into_inner();
    file.flush()?;
    if failed {
        return Err(io::Error::other("event sink hit an I/O error mid-run"));
    }
    Ok(written)
}

/// Number of most-divergent windows `diff_report` details.
const DIFF_TOP_WINDOWS: usize = 8;

/// Renders a report aligning two traces window-by-window: summary deltas,
/// the stall-mix of each side, and the windows where the bank-queue and
/// issue-imbalance trajectories diverge the most.
pub fn diff_report(a: &TraceArtifact, b: &TraceArtifact) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace diff: {} [{}] vs {} [{}] (window {})",
        a.app, a.design, b.app, b.design, a.series.window
    );
    if a.series.window != b.series.window {
        let _ = writeln!(
            out,
            "!! window widths differ ({} vs {}) — per-window rows are not comparable",
            a.series.window, b.series.window
        );
    }
    if a.series.domains != b.series.domains || a.series.banks != b.series.banks {
        let _ = writeln!(
            out,
            "!! shapes differ ({}x{} vs {}x{} domains×banks) — depth means still comparable",
            a.series.domains, a.series.banks, b.series.domains, b.series.banks
        );
    }

    let fmt_cv = |cv: Option<f64>| cv.map_or("n/a".to_string(), |v| format!("{v:.3}"));
    let _ = writeln!(out, "\nsummary ({} vs {}):", a.design, b.design);
    let _ = writeln!(
        out,
        "  total cycles        {:>12} vs {:>12}  ({:+.2}%)",
        a.series.total_cycles,
        b.series.total_cycles,
        pct_delta(a.series.total_cycles as f64, b.series.total_cycles as f64),
    );
    let _ = writeln!(
        out,
        "  mean bank depth     {:>12.3} vs {:>12.3}  ({:+.2}%)",
        a.series.mean_bank_depth(),
        b.series.mean_bank_depth(),
        pct_delta(a.series.mean_bank_depth(), b.series.mean_bank_depth()),
    );
    let _ = writeln!(
        out,
        "  max bank depth      {:>12} vs {:>12}",
        a.series.max_bank_depth(),
        b.series.max_bank_depth()
    );
    let _ = writeln!(
        out,
        "  total issues        {:>12} vs {:>12}",
        a.series.total_issued(),
        b.series.total_issued()
    );
    let _ = writeln!(
        out,
        "  mean issue CV       {:>12} vs {:>12}",
        fmt_cv(a.series.mean_issue_cv()),
        fmt_cv(b.series.mean_issue_cv())
    );

    let _ = writeln!(out, "\nstall mix (cycles, {} vs {}):", a.design, b.design);
    for kind in StallKind::ALL {
        let sum = |t: &TraceArtifact| {
            t.series.windows.iter().map(|w| w.stalls[kind.index()]).sum::<u64>()
        };
        let _ = writeln!(out, "  {:<18} {:>12} vs {:>12}", kind.label(), sum(a), sum(b));
    }

    // Align by window index (both series start at cycle 0) and rank by
    // divergence in mean depth, tie-broken by issue-count divergence.
    let n = a.series.windows.len().min(b.series.windows.len());
    let mut ranked: Vec<(usize, f64)> = (0..n)
        .map(|i| {
            let wa = &a.series.windows[i];
            let wb = &b.series.windows[i];
            let da = wa.mean_depth().unwrap_or(0.0);
            let db = wb.mean_depth().unwrap_or(0.0);
            let issue_gap = (wa.total_issued() as f64 - wb.total_issued() as f64).abs() / 1e6;
            (i, (da - db).abs() + issue_gap)
        })
        .collect();
    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
    let _ =
        writeln!(out, "\ntop divergent windows (of {n} aligned; depth = mean bank-queue depth):");
    let _ = writeln!(
        out,
        "  {:>10}  {:>9} {:>9}  {:>8} {:>8}  {:>7} {:>7}",
        "cycle", "depth.a", "depth.b", "issue.a", "issue.b", "cv.a", "cv.b"
    );
    for &(i, score) in ranked.iter().take(DIFF_TOP_WINDOWS) {
        if score == 0.0 {
            break;
        }
        let wa = &a.series.windows[i];
        let wb = &b.series.windows[i];
        let _ = writeln!(
            out,
            "  {:>10}  {:>9.3} {:>9.3}  {:>8} {:>8}  {:>7} {:>7}",
            wa.start,
            wa.mean_depth().unwrap_or(0.0),
            wb.mean_depth().unwrap_or(0.0),
            wa.total_issued(),
            wb.total_issued(),
            fmt_cv(wa.issue_cv()),
            fmt_cv(wb.issue_cv()),
        );
    }
    out
}

/// Percentage change from `a` to `b` (negative = `b` lower).
fn pct_delta(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::resolve_app;
    use crate::runner::suite_base;

    #[test]
    fn capture_yields_nonempty_series_and_artifact_round_trips() {
        let app = resolve_app("fma").unwrap();
        let base = suite_base();
        let art = capture(&base, Design::Baseline, &app, 512);
        assert!(!art.series.windows.is_empty(), "traced run must produce windows");
        assert!(art.series.total_issued() > 0, "the FMA kernel issues instructions");

        let decoded = TraceArtifact::from_json(&art.to_json()).expect("round trip");
        assert_eq!(decoded, art);

        let dir = std::env::temp_dir().join(format!("subcore-trace-art-{}", std::process::id()));
        let path = art.save(&dir).expect("save artifact");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            format!("{}.baseline.w512.json", app.name())
        );
        let loaded = TraceArtifact::load(&path).expect("load artifact");
        assert_eq!(loaded, art);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_from_another_engine_build_are_refused() {
        let art = capture(&suite_base(), Design::Baseline, &resolve_app("fma").unwrap(), 4096);
        let dir = std::env::temp_dir().join(format!("subcore-trace-stale-{}", std::process::id()));
        let path = art.save(&dir).expect("save artifact");
        let stamp = format!("\"engine_version\":\"{}\"", subcore_engine::ENGINE_VERSION);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&stamp), "the artifact names its engine build");
        std::fs::write(&path, text.replace(&stamp, "\"engine_version\":\"0.0.0-other\"")).unwrap();
        assert!(TraceArtifact::load(&path).is_err(), "a foreign build's trace must be refused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_report_shows_rba_relieving_bank_queues() {
        // Use a register-file-limited registry app: the FMA microbenchmark
        // stresses sub-core *assignment*, but RBA's lever is the bank
        // queues, so its depth reduction only shows on RF-bound workloads.
        let app = resolve_app("pb-sgemm").unwrap();
        let base = suite_base();
        let a = capture(&base, Design::Baseline, &app, 1024);
        let b = capture(&base, Design::Rba, &app, 1024);
        // The paper's core claim, visible straight from the windowed
        // series: RBA scheduling drains bank queues faster than GTO.
        assert!(
            b.series.mean_bank_depth() < a.series.mean_bank_depth() * 0.99,
            "RBA mean depth {:.3} should clearly undercut baseline {:.3}",
            b.series.mean_bank_depth(),
            a.series.mean_bank_depth()
        );
        let report = diff_report(&a, &b);
        for needle in ["baseline", "rba", "mean bank depth", "stall mix", "top divergent"] {
            assert!(report.contains(needle), "report missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn event_capture_writes_jsonl() {
        let app = resolve_app("fma").unwrap();
        let dir = std::env::temp_dir().join(format!("subcore-trace-ev-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let written = capture_events(&suite_base(), Design::Baseline, &app, 512, 100, &path)
            .expect("capture");
        assert_eq!(written, 100, "the run emits far more than the limit");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 100);
        let first = Json::parse(text.lines().next().unwrap()).expect("each line is JSON");
        assert!(first.field("ev").is_ok(), "events carry their tag");
        std::fs::remove_dir_all(&dir).ok();
    }
}
