//! `sweep_fig10`: the researcher's path through every harness layer, at
//! the process boundary.
//!
//! `repro fig10 --jobs <nproc> --out <fresh dir>` cold runs 200 cells
//! through registry build, cost-model prediction, LPT ordering,
//! `SimSession`, disk-cache store, journal, supervisor and telemetry; the
//! same command over the populated `.simcache` is 200 disk hits and almost
//! no engine work; with `--resume` it is 200 journal skips. The engine is
//! ~95 % of the cold wall and ~0 % of the warm one, so harness-layer work
//! moves the warm numbers and engine work the cold one.
//!
//! The same code with [`PROBE`] (`fig11`, 52 cells) is the sweep-layer
//! probe of the other workloads' traced runs.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::engine::overhead_pct;
use crate::golden::{Golden, SweepGolden};
use crate::hostref::{self, Sampler};
use crate::proc::{fnv1a, Proc, TempDir};
use crate::report::{Metric, Outcome};
use crate::trace::SpanId;
use crate::Ctx;

/// A `repro` experiment and the CSV it writes.
#[derive(Debug, Clone, Copy)]
pub struct Fig {
    pub name: &'static str,
    pub csv: &'static str,
}

pub const MAIN: Fig = Fig { name: "fig10", csv: "fig10_sensitive.csv" };
pub const PROBE: Fig = Fig { name: "fig11", csv: "fig11_fc_rba.csv" };

/// Longest a single `repro` child may run before it counts as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Warm,
    Resume,
}

/// One finished `repro <fig>` process, with what it reported.
struct Run {
    wall_s: f64,
    /// Host speed sampled while the process ran (cold passes only; else 1).
    speed: f64,
    rss_mb: f64,
    digest: u64,
    fresh: u64,
    disk_hits: u64,
    journal_skips: u64,
    /// Σ `wall_ms` and Σ `cycles` over the telemetry rows with source `sim`.
    sim_wall_s: f64,
    sim_cycles: u64,
}

/// First integer after `label` on the line of `text` that contains it.
fn count_after(text: &str, label: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.contains(label))?;
    line[line.find(label)? + label.len()..].split_whitespace().next()?.parse().ok()
}

/// Sums the `wall_ms` and `cycles` columns of `run_telemetry.csv` rows
/// whose `source` is `sim`.
fn telemetry_sims(csv: &str) -> (f64, u64) {
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (Some(source), Some(wall), Some(cycles)) = (col("source"), col("wall_ms"), col("cycles"))
    else {
        return (0.0, 0);
    };
    lines.map(|l| l.split(',').collect::<Vec<_>>()).filter(|f| f.get(source) == Some(&"sim")).fold(
        (0.0, 0),
        |(w, c), f| {
            let ms: f64 = f.get(wall).and_then(|v| v.parse().ok()).unwrap_or(0.0);
            let cy: u64 = f.get(cycles).and_then(|v| v.parse().ok()).unwrap_or(0);
            (w + ms / 1e3, c + cy)
        },
    )
}

/// Spawns `repro <fig> --jobs <nproc> --out <dir> [--resume]`, waits, and
/// reads back what it wrote. `Err` names what went wrong.
fn repro_fig(ctx: &Ctx, fig: Fig, dir: &Path, kind: Kind, parent: SpanId) -> Result<Run, String> {
    let mut cmd = Command::new(ctx.repro()?);
    cmd.arg(fig.name).arg("--jobs").arg(ctx.jobs.to_string()).arg("--out").arg(dir);
    if kind == Kind::Resume {
        cmd.arg("--resume");
    }
    // A cold pass is ~97 % simulation on every vCPU for seconds, so its
    // wall is reported at reference host speed, sampled while it runs.
    let sampler = (kind == Kind::Cold).then(Sampler::start);
    let span = ctx.tracer.begin(parent.is_some(), "repro", 0, parent);
    let t0 = Instant::now();
    let spawned = Proc::spawn(&mut cmd, dir, "repro").map_err(|e| format!("spawn repro: {e}"));
    let waited = spawned.map(|mut child| child.wait(CHILD_TIMEOUT.min(ctx.time_left())));
    let wall_s = t0.elapsed().as_secs_f64();
    ctx.tracer.end(span);
    let speed = sampler.map_or(1.0, |s| hostref::speed(&s.finish()));
    let (ok, rss_mb) = waited?;
    if !ok {
        return Err(format!(
            "repro {} ({kind:?}) failed or timed out after {wall_s:.1}s",
            fig.name
        ));
    }
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let report = read("repro.stdout")? + &read("repro.stderr")?;
    let (sim_wall_s, sim_cycles) = telemetry_sims(&read("run_telemetry.csv")?);
    Ok(Run {
        wall_s,
        speed,
        rss_mb,
        digest: fnv1a(read(fig.csv)?.as_bytes()),
        fresh: count_after(&report, "fresh simulations").ok_or("no `fresh simulations` line")?,
        disk_hits: count_after(&report, "disk-cache hits").ok_or("no `disk-cache hits` line")?,
        journal_skips: count_after(&report, "journal skips").unwrap_or(0),
        sim_wall_s,
        sim_cycles,
    })
}

/// State built by set-up: a scratch directory, the golden outputs, and a
/// `repro` that answers.
pub struct Ready {
    dir: TempDir,
    golden: Golden,
}

pub fn setup(ctx: &Ctx) -> Result<Ready, String> {
    let dir = TempDir::new(&ctx.root, "sweep").map_err(|e| format!("scratch dir: {e}"))?;
    let golden = Golden::load(&ctx.root)?;
    process_floor(ctx, dir.path())?;
    Ok(Ready { dir, golden })
}

/// Wall of `repro status` over an empty directory: process start, argument
/// parsing and exit, nothing else.
fn process_floor(ctx: &Ctx, dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut cmd = Command::new(ctx.repro()?);
    let mut child = Proc::spawn(cmd.arg("status").arg("--out").arg(dir), dir, "status")
        .map_err(|e| format!("spawn repro status: {e}"))?;
    if !child.wait(CHILD_TIMEOUT.min(ctx.time_left())).0 {
        return Err("`repro status` failed".to_owned());
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// How long a sweep session runs.
pub struct Plan {
    /// Keep starting cold passes while the next would end before this.
    pub cold_until: Instant,
    /// Keep alternating warm and `--resume` passes until this, and at least
    /// `min_pairs` of each (the `--resume` pass is also the third leg of
    /// the byte-identical check).
    pub until: Instant,
    pub min_pairs: usize,
}

#[derive(Default)]
struct Walls {
    cold: Vec<f64>,
    /// Cold walls at reference host speed.
    cold_ref: Vec<f64>,
    warm: Vec<f64>,
    resume: Vec<f64>,
    warm_traced: Vec<f64>,
    warm_untraced: Vec<f64>,
}

/// Runs cold, warm and `--resume` passes of `fig` per `plan`, checks every
/// process's output, and pushes the sweep metrics. `own_workload` adds the
/// end-to-end metrics; the `sweep.*` per-layer ones are pushed when traced.
pub fn session(
    ctx: &Ctx,
    fig: Fig,
    ready: &Ready,
    plan: &Plan,
    own_workload: bool,
    out: &mut Outcome,
) {
    let Some(golden) = ready.golden.sweep(fig.name) else {
        out.check(false, || format!("golden.json has no sweep `{}`", fig.name));
        return;
    };
    let mut walls = Walls::default();
    let mut last_cold: Option<Run> = None;
    let mut rss_mb = 0.0f64;
    let pass = |kind: Kind, dir: &Path, spans: bool, out: &mut Outcome| -> Option<Run> {
        let name = match kind {
            Kind::Cold => "cold_pass",
            Kind::Warm => "warm_pass",
            Kind::Resume => "resume_pass",
        };
        let span = ctx.tracer.begin(spans, name, 0, None);
        let run = repro_fig(ctx, fig, dir, kind, span);
        let verdict = run.as_ref().map_err(Clone::clone).and_then(|r| verify(r, kind, &golden));
        ctx.tracer.end(span);
        out.check(verdict.is_ok(), || format!("{} {kind:?}: {}", fig.name, verdict.unwrap_err()));
        run.ok()
    };

    // Cold passes, each over a fresh directory.
    let mut cold_dir = ready.dir.path().to_owned();
    for n in 0.. {
        let next = Duration::from_secs_f64(walls.cold.last().copied().unwrap_or(0.0));
        if n > 0 && (Instant::now() + next > plan.cold_until || ctx.time_left().is_zero()) {
            break;
        }
        cold_dir = ready.dir.path().join(format!("cold-{n}"));
        if let Err(e) = std::fs::create_dir_all(&cold_dir) {
            out.check(false, || format!("{}: {e}", cold_dir.display()));
            return;
        }
        let Some(run) = pass(Kind::Cold, &cold_dir, ctx.traced, out) else { return };
        walls.cold.push(run.wall_s);
        walls.cold_ref.push(run.wall_s * run.speed);
        rss_mb = rss_mb.max(run.rss_mb);
        last_cold = Some(run);
    }
    let cold = last_cold.expect("the loop ran a cold pass or returned");

    // Warm and --resume passes over the directory the last cold pass filled.
    let mut counts = (0u64, 0u64);
    while (walls.resume.len() < plan.min_pairs || Instant::now() < plan.until)
        && !ctx.time_left().is_zero()
    {
        let spans = ctx.traced && walls.warm.len().is_multiple_of(2);
        let Some(run) = pass(Kind::Warm, &cold_dir, spans, out) else { break };
        if ctx.traced {
            if spans { &mut walls.warm_traced } else { &mut walls.warm_untraced }.push(run.wall_s);
        }
        walls.warm.push(run.wall_s);
        counts.0 = run.disk_hits;
        let Some(run) = pass(Kind::Resume, &cold_dir, ctx.traced, out) else { break };
        walls.resume.push(run.wall_s);
        counts.1 = run.journal_skips;
    }
    if walls.warm.is_empty() || walls.resume.is_empty() {
        out.check(false, || format!("{}: no warm or --resume pass completed", fig.name));
        return;
    }

    let cells = golden.cells as f64;
    if own_workload {
        // The bounded numbers come from the cold process: it is CPU-bound,
        // so its wall can be put at reference host speed. Warm and
        // `--resume` passes are 200 small-file creates and renames each; on
        // the builder's sandbox the disk's latency for those moves 2-3x
        // between runs, so they are reported, never bounded.
        let mcycles = golden.sim_cycles as f64 / 1e6;
        let cold_ms: Vec<f64> = walls.cold_ref.iter().map(|w| w * 1e3).collect();
        out.push(Metric::rate("sim_mcycles_per_s", "Mcycles/s", mcycles, &walls.cold_ref));
        out.push(Metric::median("op_ms", "ms", &cold_ms));
        out.push(Metric::value("host_speed", "ratio", cold.speed));
        out.push(Metric::rate("sim_mcycles_per_s_wall", "Mcycles/s", mcycles, &walls.cold));
        out.push(Metric::value("peak_rss_mb", "MB", rss_mb));
        out.push(Metric::rate("sweep_cold_cells_per_s", "1/s", cells, &walls.cold));
        out.push(Metric::rate("sweep_warm_cells_per_s", "1/s", cells, &walls.warm));
    }
    if ctx.traced {
        if own_workload {
            out.push(overhead_pct(&walls.warm_traced, &walls.warm_untraced));
        }
        let floors: Result<Vec<f64>, String> =
            (0..10).map(|_| process_floor(ctx, ready.dir.path()).map(|s| s * 1e3)).collect();
        match floors {
            Ok(ms) => out.push(Metric::median("sweep.process_floor_ms", "ms", &ms)),
            Err(e) => out.check(false, || e),
        }
        let per_worker_s = cold.sim_wall_s / ctx.jobs as f64;
        out.push(Metric::value("sweep.sim_busy_share", "share", per_worker_s / cold.wall_s));
        out.push(Metric::value("sweep.overhead_s", "s", cold.wall_s - per_worker_s));
        out.push(Metric::rate("sweep.cold_cells_per_s", "1/s", cells, &walls.cold));
        out.push(Metric::rate("sweep.warm_cells_per_s", "1/s", cells, &walls.warm));
        out.push(Metric::rate("sweep.resume_cells_per_s", "1/s", cells, &walls.resume));
        out.push(Metric::value("sweep.fresh_sims", "count", cold.fresh as f64));
        out.push(Metric::value("sweep.disk_hits", "count", counts.0 as f64));
        out.push(Metric::value("sweep.journal_skips", "count", counts.1 as f64));
    }
}

/// One process's outputs against the golden: the CSV byte-for-byte (by
/// digest), and the exact hit/miss split its kind must show.
fn verify(run: &Run, kind: Kind, golden: &SweepGolden) -> Result<(), String> {
    if run.digest != golden.digest {
        return Err(format!("CSV digest {:#x}, golden {:#x}", run.digest, golden.digest));
    }
    let n = golden.cells;
    let (got, want) = (
        (run.fresh, run.disk_hits, run.journal_skips),
        match kind {
            Kind::Cold => (n, 0, 0),
            Kind::Warm => (0, n, 0),
            Kind::Resume => (0, 0, n),
        },
    );
    if got != want {
        return Err(format!("(fresh, disk hits, journal skips) {got:?}, expected {want:?}"));
    }
    if kind == Kind::Cold && run.sim_cycles != golden.sim_cycles {
        return Err(format!("simulated {} cycles, golden {}", run.sim_cycles, golden.sim_cycles));
    }
    Ok(())
}

/// The `sweep_fig10` workload.
pub fn run(ctx: &Ctx, ready: &Ready, out: &mut Outcome) {
    // One cold pass is most of either run's budget (a second starts only
    // if it would end inside its share); warm and `--resume` passes
    // alternate over what is left.
    let (cold_share, share) = if ctx.traced { (0.0, 0.7) } else { (0.55, 1.0) };
    let plan =
        Plan { cold_until: ctx.phase_end(cold_share), until: ctx.phase_end(share), min_pairs: 5 };
    session(ctx, MAIN, ready, &plan, true, out);
}

/// The sweep-layer probe of the other workloads' traced runs: one cold,
/// four warm and four `--resume` passes of the small figure.
pub fn probe(ctx: &Ctx, out: &mut Outcome) {
    let now = Instant::now();
    let plan = Plan { cold_until: now, until: now, min_pairs: 4 };
    match setup(ctx) {
        Ok(ready) => session(ctx, PROBE, &ready, &plan, false, out),
        Err(e) => out.check(false, || format!("sweep probe set-up: {e}")),
    }
}

/// `record-golden`: one cold pass, reporting what it produced.
pub fn record(ctx: &Ctx, fig: Fig, out: &mut Outcome) -> Result<SweepGolden, String> {
    let dir = TempDir::new(&ctx.root, "sweep").map_err(|e| format!("scratch dir: {e}"))?;
    let run = repro_fig(ctx, fig, dir.path(), Kind::Cold, None)?;
    out.check(run.fresh > 0 && run.disk_hits == 0, || format!("{}: not a cold pass", fig.name));
    Ok(SweepGolden { cells: run.fresh, digest: run.digest, sim_cycles: run.sim_cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str =
        "session telemetry\n  runs                   200\n    fresh simulations    0\n\
        \x20   disk-cache hits      200\n  journal skips          52 cells already complete\n";

    #[test]
    fn counts_are_read_from_the_telemetry_block() {
        assert_eq!(count_after(REPORT, "fresh simulations"), Some(0));
        assert_eq!(count_after(REPORT, "disk-cache hits"), Some(200));
        assert_eq!(count_after(REPORT, "journal skips"), Some(52));
        assert_eq!(count_after(REPORT, "memo hits"), None);
    }

    #[test]
    fn telemetry_sums_only_simulated_rows() {
        let csv = "# schema\nkey,app,design,source,traced,wall_ms,cycles\n\
                   a,x,baseline,sim,false,1500.0,100\nb,x,rba,disk,false,0.1,100\n\
                   c,y,rba,sim,false,500.0,23\n";
        assert_eq!(telemetry_sims(csv), (2.0, 123));
        assert_eq!(telemetry_sims("no,such,columns\n1,2,3\n"), (0.0, 0));
    }
}
