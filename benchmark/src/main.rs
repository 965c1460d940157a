//! The repo's system benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//!     record-golden
//!     compare A.json B.json
//! ```
//!
//! `run` measures one workload (all four when `--workload` is absent) for
//! `--seconds`, checks every output against `golden.json`, prints each
//! metric as `name unit value` (with spread and sample count), writes the
//! same to `<out>/<workload>.<untraced|traced>.seed<N>.json`, and ends
//! stdout with the one-line JSON summary `BENCHMARK.json` describes: the
//! end-to-end metrics of an untraced run, the per-layer metrics of a traced
//! one.
//! See `benchmark/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]

mod compare;
mod engine;
mod golden;
mod hostref;
mod layers;
mod proc;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use subcore_persist::Json;

use report::{Metric, Outcome};

pub const WORKLOADS: [&str; 4] = ["engine_dense", "engine_sparse", "sweep_fig10", "serve_closed"];

/// Wall-clock cap per workload run: past it, waits stop and whatever is
/// still outstanding counts as failed operations, so a wedged child or
/// daemon ends the run instead of hanging it.
const WALL_CAP: Duration = Duration::from_secs(150);

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 25;

/// What every part of a run needs to know.
pub struct Ctx {
    pub root: PathBuf,
    pub seed: u64,
    pub traced: bool,
    /// Worker threads, clients and `--jobs` are all sized to this.
    pub jobs: usize,
    pub tracer: trace::Tracer,
    repro: Option<PathBuf>,
    budget: Duration,
    /// Set once, when set-up is done and the measured `--seconds` begin.
    measure_start: OnceLock<Instant>,
    hard_deadline: Instant,
}

impl Ctx {
    /// The `repro` binary (absent only in `cargo test`).
    pub fn repro(&self) -> Result<&Path, String> {
        self.repro.as_deref().ok_or_else(|| "the repro binary was not built".to_owned())
    }

    fn new(root: &Path, seed: u64, traced: bool, repro: Option<PathBuf>, budget: Duration) -> Ctx {
        Ctx {
            root: root.to_owned(),
            seed,
            traced,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            tracer: trace::Tracer::new(),
            repro,
            budget,
            measure_start: OnceLock::new(),
            hard_deadline: Instant::now() + WALL_CAP,
        }
    }

    fn start_measuring(&self) {
        let _ = self.measure_start.set(Instant::now());
    }

    /// The instant `share` of the way through the measured `--seconds`
    /// (which begin when set-up ends; before that, now).
    pub fn phase_end(&self, share: f64) -> Instant {
        *self.measure_start.get().unwrap_or(&Instant::now()) + self.budget.mul_f64(share)
    }

    /// Time left under the wall-clock cap (zero once it has passed).
    pub fn time_left(&self) -> Duration {
        self.hard_deadline.saturating_duration_since(Instant::now())
    }
}

/// One workload's set-up times: as measured, and at reference host speed.
struct SetupWalls {
    wall_s: Vec<f64>,
    ref_s: Vec<f64>,
}

/// Runs `setup` [`SETUP_REPS`] times (each earlier state is dropped, which
/// tears it down), returning the last state and every repetition's time.
/// Each repetition is put at reference speed by the two kernel samples
/// around it: the whole of set-up lasts a fraction of a second, and a host
/// that changes speed in the middle of it would otherwise pair the walls of
/// one half with the speed of the other.
fn timed_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, SetupWalls), String> {
    let mut kernel = hostref::RefKernel::new();
    let mut walls = SetupWalls { wall_s: Vec::new(), ref_s: Vec::new() };
    let mut state = None;
    let mut before_ms = kernel.sample();
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        let wall_s = t0.elapsed().as_secs_f64();
        let after_ms = kernel.sample();
        walls.wall_s.push(wall_s);
        walls.ref_s.push(wall_s * hostref::speed(&[before_ms, after_ms]));
        before_ms = after_ms;
    }
    Ok((state.expect("SETUP_REPS > 0"), walls))
}

struct RunArgs {
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: PathBuf,
}

fn run_workload(name: &str, args: &RunArgs, root: &Path, repro: Option<&Path>) -> Outcome {
    let mut out = Outcome::new(name, args.seed, args.traced);
    let budget = Duration::from_secs(args.seconds);
    let ctx = Ctx::new(root, args.seed, args.traced, repro.map(Path::to_owned), budget);
    let mut load = None;
    // Engine set-up (building the apps of the case set) is CPU-bound in
    // this process, so it is reported at reference host speed like the
    // passes; the other two are a process spawn and a daemon's first
    // accept-loop tick, which a slow core barely stretches.
    let setup = match name {
        "engine_dense" | "engine_sparse" => {
            timed_setup(|| engine::setup(&ctx, name)).map(|(ready, walls)| {
                ctx.start_measuring();
                load = engine::run(&ctx, &ready, &mut out);
                out.push(Metric::value("peak_rss_mb", "MB", proc::self_peak_rss_mb()));
                out.push(Metric::median("setup_s_wall", "s", &walls.wall_s));
                walls.ref_s
            })
        }
        "sweep_fig10" => timed_setup(|| sweep::setup(&ctx)).map(|(ready, walls)| {
            ctx.start_measuring();
            sweep::run(&ctx, &ready, &mut out);
            walls.wall_s
        }),
        "serve_closed" => timed_setup(|| serve::setup(&ctx)).map(|(ready, walls)| {
            ctx.start_measuring();
            serve::run(&ctx, ready, &mut out);
            walls.wall_s
        }),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    };
    match setup {
        Ok(setup_s) => {
            out.push(Metric::median("setup_s", "s", &setup_s));
            if ctx.traced {
                layers::probe_all(&ctx, name, load, &mut out);
                match ctx.tracer.write(&args.out_dir, name) {
                    Ok(table) => println!("-- self time by span, {name}\n{table}"),
                    Err(e) => out.check(false, || format!("writing the trace: {e}")),
                }
            }
        }
        Err(e) => out.check(false, || format!("set-up: {e}")),
    }
    out
}

/// Writes `<dir>/<label>.<mode>.seed<N>.json`: one file per run, so that a
/// directory of them is one side of a `compare`.
fn write_results(
    dir: &Path,
    label: &str,
    args: &RunArgs,
    outcomes: &[Outcome],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mode = if args.traced { "traced" } else { "untraced" };
    let path = dir.join(format!("{label}.{mode}.seed{}.json", args.seed));
    let json = Json::obj([("results", Json::Arr(outcomes.iter().map(Outcome::to_json).collect()))]);
    std::fs::write(&path, json.render() + "\n")?;
    Ok(path)
}

/// Removes `flag VALUE` from `args` and returns the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>, default: T) -> Result<T, String> {
    value.map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")))
}

fn cmd_run(mut args: Vec<String>, root: &Path) -> Result<bool, String> {
    let spec = compare::BenchSpec::load(root)?;
    let workload = take_value(&mut args, "--workload")?;
    let run_args = RunArgs {
        seed: parse("--seed", take_value(&mut args, "--seed")?, 1)?,
        seconds: parse("--seconds", take_value(&mut args, "--seconds")?, spec.run_seconds)?,
        traced: match take_value(&mut args, "--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got `{v}`")),
        },
        out_dir: take_value(&mut args, "--out")?
            .map_or_else(|| root.join(".bench_tmp").join("out"), PathBuf::from),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    let names: Vec<&str> = workload.as_deref().map_or(WORKLOADS.to_vec(), |w| vec![w]);
    // Untraced engine runs never leave this process; everything else
    // drives the `repro` binary, built before any clock starts.
    let needs_repro = run_args.traced || names.iter().any(|n| !n.starts_with("engine_"));
    let repro = if needs_repro { Some(proc::build_repro(root)?) } else { None };
    let listed = if run_args.traced { &spec.per_layer } else { &spec.end_to_end };
    let mut outcomes = Vec::new();
    for name in names {
        let mut out = run_workload(name, &run_args, root, repro.as_deref());
        let line = out.driver_line(listed);
        print!("{}", out.render());
        println!("{line}");
        outcomes.push(out);
    }
    let label = workload.as_deref().unwrap_or("all");
    let path = write_results(&run_args.out_dir, label, &run_args, &outcomes)
        .map_err(|e| format!("writing results: {e}"))?;
    eprintln!("results → {}", path.display());
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn cmd_record_golden(root: &Path) -> Result<bool, String> {
    let ctx = Ctx::new(root, 1, false, Some(proc::build_repro(root)?), Duration::ZERO);
    golden::record(&ctx).map(|()| true)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let root = proc::repo_root();
    let result = match (!args.is_empty()).then(|| args.remove(0)).as_deref() {
        Some("run") => cmd_run(args, &root),
        Some("record-golden") => cmd_record_golden(&root),
        Some("compare") => compare::run(&args, &root),
        _ => Err("usage: benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
                  [--out DIR] | record-golden | compare A.json B.json"
            .to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
