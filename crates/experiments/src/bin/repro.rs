//! `repro` — regenerates the paper's tables and figures, and fronts every
//! tool built around them.
//!
//! `repro --help` prints the synopsis: one entry per subcommand, the
//! global flags, and the experiment names. It is rendered from the command
//! and experiment tables below — the same tables `main` dispatches on — so
//! it is the only synopsis and cannot drift from what the binary accepts.
//!
//! Each experiment prints its table(s) and writes `<out>/<name>.csv`
//! (default `results/`). Pass `--bars` to also render each table's first
//! column as an ASCII bar chart. Every experiment name on the line is
//! checked before anything runs; `all` runs the whole table and `summary`
//! prints the paper-vs-measured digest over an existing `<out>`.
//!
//! `trace` captures the windowed probe time-series of the target workload
//! under each `--design` (default `baseline`) into
//! `<out>/traces/<app>.<design>.w<N>.json`; `--events LIMIT` additionally
//! streams up to LIMIT raw probe events to a JSONL file next to it.
//! `trace-diff` captures two designs (default `baseline` vs `rba`) and
//! prints where their bank-queue and issue-imbalance trajectories diverge.
//!
//! `lint` statically analyzes workloads (dataflow, bank pressure,
//! divergence, configuration) without simulating; `--all` covers the full
//! registry and is the verify-gate invocation. `lint --calibrate` ranks
//! apps by static bank pressure and correlates the ranking against traced
//! mean bank-queue depths.
//!
//! `estimate` prints the static cost model's per-design cycle predictions
//! (issue-, bank-, and divergence-bound decomposition) without
//! simulating. `estimate --calibrate` sweeps the 112-app registry,
//! simulating each app to score the predictions: it writes
//! `<out>/estimate_calibration.json` and exits nonzero if the Spearman
//! rank correlation falls below the 0.8 floor (the verify-gate
//! invocation). `opt` prints the conflict-free register remapper's
//! per-kernel evidence — the fix `lint`'s L036 advisory names.
//!
//! `tenants` is the multi-tenant spatial-partitioning sweep: every
//! registered tenant mix (or the `--mix` selection) is co-scheduled under
//! {baseline, rba, srr, shuffle} × {rigid, contention-aware} partitions,
//! producing one interference matrix per mix
//! (`<out>/tenants_<mix>.csv`, tenant slowdown vs solo full-GPU run) and
//! a deadline-slack table (`<out>/tenants_deadlines.csv`). Cells journal
//! under the `tenants` campaign, so `--resume` replays finished cells;
//! per-tenant rows land in the telemetry CSV's `tenant`/`deadline_slack`/
//! `partition_sms` columns and `tenant.*` metrics feed `repro top`.
//!
//! `serve` runs the long-lived simulation daemon: a durable job queue
//! with lease-based ownership, bounded admission with structured
//! backpressure, and cross-client coalescing by `SimKey` (see DESIGN.md's
//! service-architecture section). `submit` posts jobs to it (`--wait`
//! polls to settlement) and `jobs` lists the queue or probes
//! `--healthz`/`--metrics`/`--drain`. `chaos --serve` is the
//! process-level recovery drill: SIGKILL a real daemon child
//! mid-campaign, restart it over the same queue, and verify the campaign
//! settles bit-exact with no lost or duplicated jobs.
//!
//! Sweeps start their longest-predicted cells first (cost-aware LPT
//! ordering; predictions also land in the telemetry CSV's
//! `predicted_cycles`/`estimate_error` columns). `--no-reorder` restores
//! submission order.
//!
//! `bench-engine` is the engine-mode perf smoke: it runs the headline
//! workload subset under both the shipping adaptive engine and the
//! polled reference (bypassing the session cache so timings are honest),
//! fails if any stats diverge, and writes the measured speedups to
//! `<out>/BENCH_engine.json`. With `--check` it instead compares the
//! fresh measurements against the committed baseline (default
//! `<out>/BENCH_engine.json`, override with `--baseline PATH`) and exits
//! nonzero if any case loses to the reference or the geomean falls below
//! the baseline's recorded floor (0.88 x the recorded geomean: the same
//! 12% noise band as the per-case check); the baseline file is left
//! untouched.
//!
//! Simulations are memoized on disk under `<out>/.simcache/` (keyed by a
//! content fingerprint and stamped with the engine version), so re-running
//! an experiment replays cached results instead of simulating; pass
//! `--no-cache` for a purely in-memory session. The session's telemetry
//! is the run's one account — its own runs plus the pool usage, failures
//! and journal skips of every sweep that ran on it: its summary is
//! printed on exit and the per-run breakdown (failed cells included)
//! written to `<out>/run_telemetry.csv`, on every way out of a command
//! that can simulate (experiments, `tenants`, `trace`, `trace-diff`,
//! `lint --calibrate`, `estimate --calibrate`). The other commands open no
//! session, print no summary and leave an earlier run's CSV as it is.
//! `--jobs N` (or the `SUBCORE_JOBS` environment variable) caps the worker
//! pool's thread count; the cap in force is recorded in the telemetry
//! summary and CSV.
//!
//! Sweeps run supervised: a panicking, erroring, or wedged (app, design)
//! cell costs exactly that cell, rendered as an annotated gap. `--retries N`
//! grants transient failures extra attempts, `--job-timeout SECS` overrides
//! the derived per-cell watchdog deadline (0 disables it), and the exit
//! code stays zero on partial results unless `--fail-fast` or
//! `--max-failures N` says otherwise. Completed cells are journaled under
//! `<out>/.journal/<campaign>/`; `--resume` replays journaled cells instead
//! of recomputing them and `repro status` prints per-campaign progress.
//! `repro chaos` runs the deterministic fault-injection drill: a faulted,
//! mid-campaign-killed sweep followed by a `--resume` completion, verified
//! bit-exact against a fault-free reference.
//!
//! Experiment runs also stream periodic metrics snapshots (counters,
//! gauges, histograms, and the campaign → job → phase span tree) to
//! `<out>/.metrics/<stream>.jsonl`. `repro top` tails the newest stream
//! as a live dashboard (`--once` prints a single frame and exits),
//! `repro metrics` dumps the latest snapshot — human-readable by
//! default, Prometheus text exposition with `--prom` — and
//! `repro status --watch` re-renders campaign progress on an interval.

#![forbid(unsafe_code)]

use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use subcore_experiments::{chaos, engine_bench, estimate, figs, journal, lint, serve, trace};
use subcore_experiments::{init_global, suite_base, tpch_base, RunContext, SessionOptions};
use subcore_experiments::{SimSession, SupervisorPolicy, Table};
use subcore_isa::{App, Suite};
use subcore_persist::{Json, JsonCodec};
use subcore_sched::Design;
use subcore_serve::{JobSpec, ServeOptions, Server};

/// The argument cursor: every command takes what it understands off the
/// line and errors on what is left.
struct Args(Vec<String>);

impl Args {
    /// Takes the boolean `flag`, reporting whether it was present.
    fn flag(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Takes `flag VALUE` and parses VALUE as `T`; `what` says what the
    /// flag needs when the value is missing or does not parse.
    fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs {what}"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        v.parse().map(Some).map_err(|_| format!("{flag} needs {what}, got `{v}`"))
    }

    /// Takes every occurrence of a repeatable `flag VALUE`, in line order.
    fn values<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Vec<T>, String> {
        let mut all = Vec::new();
        while let Some(v) = self.value(flag, what)? {
            all.push(v);
        }
        Ok(all)
    }

    /// Takes the rest of the line as operands; a leftover `--flag` is one
    /// the command does not have.
    fn operands(&mut self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unknown flag `{flag}`")),
            None => Ok(std::mem::take(&mut self.0)),
        }
    }

    /// Errors if anything is left on the line of a command without operands.
    fn finish(&self, command: &str) -> Result<(), String> {
        if self.0.is_empty() {
            return Ok(());
        }
        Err(format!("{command} takes no further arguments, got: {:?}", self.0))
    }
}

/// What the global flags decide, for every command.
struct Global {
    /// `--out DIR`: where tables, caches, journals and streams live.
    out: PathBuf,
    /// `--bars`: also render each table's first column as a bar chart.
    bars: bool,
    /// The run context simulating commands install.
    ctx: RunContext,
}

const GLOBAL_FLAGS: [&str; 2] = [
    "[--out DIR] [--bars] [--no-cache] [--no-reorder] [--jobs N] [--resume]",
    "[--retries N] [--job-timeout SECS] [--fail-fast] [--max-failures N]",
];

/// Takes the global flags, wherever they sit on the line.
fn parse_global(args: &mut Args) -> Result<Global, String> {
    let out: PathBuf =
        args.value("--out", "a directory argument")?.unwrap_or_else(|| "results".into());
    let no_cache = args.flag("--no-cache");
    let jobs = args.value::<NonZeroUsize>("--jobs", "a positive worker count")?;
    let timeout = args.value("--job-timeout", "a deadline in seconds (0 disables)")?;
    let defaults = SupervisorPolicy::default();
    let policy = SupervisorPolicy {
        retries: args.value("--retries", "a retry count")?.unwrap_or(defaults.retries),
        job_timeout: timeout.map(Duration::from_secs).or(defaults.job_timeout),
        fail_fast: args.flag("--fail-fast"),
        max_failures: args.value("--max-failures", "a failure count")?,
        ..defaults
    };
    let ctx = RunContext {
        session: SessionOptions { disk_cache: (!no_cache).then(|| out.join(".simcache")) },
        // Sweeps journal their cells under `<out>/.journal/` so an
        // interrupted campaign is resumable; `--resume` replays them.
        journal_root: Some(out.join(".journal")),
        resume: args.flag("--resume"),
        policy,
        jobs: jobs.map(NonZeroUsize::get),
        reorder: !args.flag("--no-reorder"),
    };
    Ok(Global { out, bars: args.flag("--bars"), ctx })
}

/// One subcommand: its synopsis and its implementation. The first word of
/// the synopsis is the name `main` dispatches on; a usage line that does
/// not start with it continues the line before.
struct Command {
    usage: &'static [&'static str],
    run: fn(&mut Args, &Global) -> Result<ExitCode, String>,
}

impl Command {
    fn name(&self) -> &'static str {
        self.usage[0].split(' ').next().unwrap_or_default()
    }
}

/// Every subcommand. The first row is the fall-through: a line that names
/// no other row is a list of experiments.
const COMMANDS: &[Command] = &[
    Command { usage: &["<experiment>... | all [--out DIR] [--bars]"], run: experiments },
    Command { usage: &["summary [--out DIR]"], run: summary },
    Command { usage: &["status [--out DIR] [--watch] [--interval MS] [--frames N]"], run: status },
    Command { usage: &["top [--out DIR] [--once] [--interval MS] [--frames N]"], run: top },
    Command { usage: &["metrics [--out DIR] [--prom]"], run: metrics },
    Command { usage: &["chaos [--seed S] [--fault-rate P] [--serve]"], run: chaos_drill },
    Command {
        usage: &[
            "serve [--out DIR] [--port P] [--dir DIR] [--addr-file PATH] [--capacity N]",
            "[--serve-workers N] [--lease-ms MS] [--max-attempts N]",
        ],
        run: serve_daemon,
    },
    Command {
        usage: &[
            "submit <app>... [--design D] [--sms N] [--max-cycles N]",
            "(--addr HOST:PORT | --addr-file PATH) [--wait] [--timeout SECS]",
        ],
        run: submit,
    },
    Command {
        usage: &["jobs (--addr HOST:PORT | --addr-file PATH) [--healthz|--metrics|--drain]"],
        run: jobs,
    },
    Command {
        usage: &["trace <fig|app> [--out DIR] [--design D]... [--window N] [--events LIMIT]"],
        run: |args, global| trace_command(args, global, false),
    },
    Command {
        usage: &["trace-diff <fig|app> [--out DIR] [--design A --design B] [--window N]"],
        run: |args, global| trace_command(args, global, true),
    },
    Command {
        usage: &[
            "lint <app>... | --all [--design D] [--json] [--deny-warnings]",
            "lint --calibrate [<app>...] [--window N] [--json]",
        ],
        run: lint_command,
    },
    Command {
        usage: &[
            "estimate <app>... | --all [--design D] [--json]",
            "estimate --calibrate [--out DIR] [--json]",
        ],
        run: estimate_command,
    },
    Command { usage: &["opt <app>... | --all"], run: opt_command },
    Command { usage: &["tenants [--mix NAME]... [--out DIR] [--resume]"], run: tenants_command },
    Command { usage: &["bench-engine [--out DIR] [--check] [--baseline PATH]"], run: bench_engine },
];

/// An experiment: the name that selects it and what regenerates its tables.
type Experiment = (&'static str, fn() -> Vec<Table>);

/// The paper's figures, the §VI ablations and the extensions — the one list
/// that both names and runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig1", || vec![figs::fig01::run()]),
    ("fig3", || vec![figs::fig03::run()]),
    ("fig8", || vec![figs::fig08::run()]),
    ("fig9", || vec![figs::fig09::run()]),
    ("fig10", || vec![figs::fig10::run()]),
    ("fig11", || vec![figs::fig11::run()]),
    ("fig12", || vec![figs::fig12::run()]),
    ("fig13", || vec![figs::fig13::run()]),
    ("fig14", || std::iter::once(figs::fig14::run()).chain(figs::fig14::traces(256)).collect()),
    ("fig15", || vec![figs::fig15_16::run(true)]),
    ("fig16", || vec![figs::fig15_16::run(false)]),
    ("fig17", || vec![figs::fig17::run()]),
    ("fig18", || vec![figs::fig18::run()]),
    ("latency", || vec![figs::ablations::score_latency()]),
    ("banks", || vec![figs::ablations::bank_scaling()]),
    ("hashtable", || vec![figs::ablations::hash_table_size()]),
    ("contribution", || vec![figs::ablations::contribution()]),
    ("ext-imbalance", || vec![figs::extensions::imbalance_mechanisms()]),
    ("ext-dual-issue", || vec![figs::extensions::dual_issue()]),
    ("ext-memory", || vec![figs::extensions::memory_model_robustness()]),
    ("ext-schedulers", || vec![figs::extensions::scheduler_comparison()]),
    ("characterize", || vec![figs::characterization::run()]),
    ("topdown", figs::topdown::run),
];

/// The synopsis of `rows`: one `repro …` line per usage line, continuation
/// lines aligned under the first flag.
fn usage<'a>(rows: impl Iterator<Item = &'a Command>) -> String {
    let mut text = String::new();
    for row in rows {
        for line in row.usage {
            let lead = if text.is_empty() { "usage:" } else { "      " };
            let indent = if line.starts_with(row.name()) { 0 } else { row.name().len() + 1 };
            let repro = if indent == 0 { "repro" } else { "     " };
            text += &format!("{lead} {repro} {:indent$}{line}\n", "");
        }
    }
    text
}

/// The usage error of the subcommand `name`.
fn usage_of(name: &str) -> String {
    usage(COMMANDS.iter().filter(|c| c.name() == name)).trim_end().to_owned()
}

/// Every experiment name, space-separated, in table order.
fn experiment_names() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// What `--help` (stdout, exit 0) and a bare `repro` (stderr, exit 1) print.
fn help() -> String {
    let [flags, more_flags] = GLOBAL_FLAGS;
    format!(
        "{}global flags, anywhere on the line:\n       {flags}\n       {more_flags}\n\
         experiments: {}\n",
        usage(COMMANDS.iter()),
        experiment_names()
    )
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    let wants_help = args.flag("--help") | args.flag("-h");
    let result = parse_global(&mut args).and_then(|global| {
        if wants_help {
            print!("{}", help());
            return Ok(ExitCode::SUCCESS);
        }
        let Some(first) = args.0.first() else { return Err(help().trim_end().to_owned()) };
        let named = COMMANDS.iter().find(|c| c.name() == first);
        if named.is_some() {
            args.0.remove(0);
        }
        (named.unwrap_or(&COMMANDS[0]).run)(&mut args, &global)
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The streaming half of the run lifecycle: opens the metrics gate and
/// streams a snapshot every 500 ms to `<out>/.metrics/<stream>.jsonl`
/// while `body` runs — so `repro top` / `repro metrics` can watch from
/// another terminal — then flushes the final snapshot, however `body`
/// came back.
fn with_metrics_stream<T>(out: &Path, stream: &str, body: impl FnOnce() -> T) -> T {
    subcore_metrics::set_enabled(true);
    let every = Duration::from_millis(500);
    let flusher = subcore_metrics::spawn_periodic(out.join(".metrics"), stream, every)
        .map_err(|e| eprintln!("metrics stream disabled: {e}"))
        .ok();
    let result = body();
    if let Some(f) = flusher {
        match f.finish() {
            Ok(path) => eprintln!("metrics → {}", path.display()),
            Err(e) => eprintln!("failed to flush metrics stream: {e}"),
        }
    }
    result
}

/// The run lifecycle of every command that simulates through the
/// process-wide session: install the run context, stream metrics as
/// `stream` if the command has one, run `body`, then — on every way out
/// of `body` — print the session's telemetry block and write
/// `<out>/run_telemetry.csv`. Commands that cannot simulate never come
/// here, so they print no block and leave an earlier run's CSV alone.
fn simulate(
    global: &Global,
    stream: Option<&str>,
    body: impl FnOnce(&SimSession) -> Result<ExitCode, String>,
) -> Result<ExitCode, String> {
    let session = init_global(global.ctx.clone());
    let result = match stream {
        Some(stream) => with_metrics_stream(&global.out, stream, || body(session)),
        None => body(session),
    };
    eprint!("{}", session.telemetry().snapshot().summary());
    let csv = global.out.join("run_telemetry.csv");
    match session.telemetry().write_csv(&csv) {
        Ok(()) => eprintln!("telemetry → {}", csv.display()),
        Err(e) => eprintln!("failed to write {}: {e}", csv.display()),
    }
    result
}

/// Prints `table` (and its bar chart under `--bars`) and writes its CSV.
fn emit(table: &Table, out: &Path, bars: bool) -> Result<(), String> {
    println!("{}", table.render());
    if bars && !table.columns.is_empty() {
        println!("{}", table.render_bars(0));
    }
    table.save_csv(out).map_err(|e| format!("failed to write {}: {e}", out.display()))
}

/// Writes `text` to `path`, creating its directory.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("failed to create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Implements `repro <experiment>... | all`. Every name is checked against
/// the table before anything runs.
fn experiments(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let names = args.operands()?;
    let selected: Vec<_> = if names.iter().any(|n| n == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        let pick = |n: &String| {
            EXPERIMENTS
                .iter()
                .find(|(name, _)| name == n)
                .ok_or_else(|| format!("unknown experiment `{n}`; known: {}", experiment_names()))
        };
        names.iter().map(pick).collect::<Result<_, _>>()?
    };
    let stream = if let [(name, _)] = selected[..] { name } else { "campaign" };
    simulate(global, Some(stream), |_| {
        for (name, run) in &selected {
            let start = Instant::now();
            for table in run() {
                emit(&table, &global.out, global.bars)?;
            }
            let secs = start.elapsed().as_secs_f64();
            eprintln!("[{name}] done in {secs:.1}s → {}", global.out.display());
        }
        Ok(ExitCode::SUCCESS)
    })?;
    // Partial results exit zero by default — failed cells are already
    // surfaced as gaps, annotations, and telemetry. The exit code only
    // turns nonzero when the user asked for a failure budget.
    let failed = subcore_experiments::session().telemetry().snapshot().failed;
    let policy = &global.ctx.policy;
    if (policy.fail_fast && failed > 0) || policy.max_failures.is_some_and(|cap| failed > cap) {
        return Err(format!("failing exit: {failed} failed jobs exceed the requested budget"));
    }
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro summary`: the paper-vs-measured digest over `<out>`.
fn summary(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    args.finish("summary")?;
    print!("{}", subcore_experiments::summary::render(&global.out));
    Ok(ExitCode::SUCCESS)
}

/// Takes the shared `--interval MS` / `--frames N` watch knobs of
/// `repro top` and `repro status --watch`. `--frames` defaults to
/// unbounded (loop until interrupted).
fn watch_knobs(args: &mut Args, default_interval_ms: u64) -> Result<(Duration, u64), String> {
    let interval_ms = args.value::<NonZeroU64>("--interval", "positive milliseconds")?;
    let frames = args.value::<NonZeroU64>("--frames", "a positive frame count")?;
    Ok((
        Duration::from_millis(interval_ms.map_or(default_interval_ms, NonZeroU64::get)),
        frames.map_or(u64::MAX, NonZeroU64::get),
    ))
}

/// Prints `frame()` `frames` times, `interval` apart; `clear` redraws in
/// place instead of scrolling.
fn watch(clear: bool, frames: u64, interval: Duration, frame: impl Fn() -> String) {
    for shown in 1..=frames {
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", frame());
        if shown < frames {
            std::thread::sleep(interval);
        }
    }
}

/// Implements `repro status`: per-campaign journal progress.
fn status(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let watching = args.flag("--watch");
    let (interval, frames) = watch_knobs(args, 2000)?;
    args.finish("status")?;
    let root = global.out.join(".journal");
    let frames = if watching { frames } else { 1 };
    watch(watching, frames, interval, || journal::render_status(&root));
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro top`: the live dashboard over the newest metrics
/// stream under `<out>/.metrics/`.
fn top(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let once = args.flag("--once");
    let (interval, frames) = watch_knobs(args, 1000)?;
    args.finish("top")?;
    let dir = global.out.join(".metrics");
    watch(!once, if once { 1 } else { frames }, interval, || {
        let snaps = subcore_metrics::latest_stream(&dir)
            .map(|p| subcore_metrics::load_snapshots(&p))
            .unwrap_or_default();
        subcore_experiments::render_frame(&snaps)
    });
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro metrics`: the latest snapshot of the newest stream,
/// human-readable or (`--prom`) as validated Prometheus text.
fn metrics(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let prom = args.flag("--prom");
    args.finish("metrics")?;
    let dir = global.out.join(".metrics");
    let path = subcore_metrics::latest_stream(&dir).ok_or_else(|| {
        format!("no metrics snapshots under {} (run an experiment first)", dir.display())
    })?;
    let snaps = subcore_metrics::load_snapshots(&path);
    let last =
        snaps.last().ok_or_else(|| format!("{} holds no decodable snapshots", path.display()))?;
    if prom {
        let text = subcore_metrics::render_prometheus(last);
        let samples = subcore_metrics::validate_prometheus(&text)
            .map_err(|e| format!("internal error: Prometheus rendering failed validation: {e}"))?;
        print!("{text}");
        eprintln!("# {samples} samples from {}", path.display());
    } else {
        print!("{}", subcore_experiments::render_metrics_summary(last));
    }
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro chaos`: the fault-injection drill, or (`--serve`)
/// the process-level daemon recovery drill.
fn chaos_drill(args: &mut Args, _: &Global) -> Result<ExitCode, String> {
    let serve_drill = args.flag("--serve");
    let seed = args.value::<u64>("--seed", "an integer seed")?.unwrap_or(42);
    let rate = args.value::<f64>("--fault-rate", "a probability in [0, 1]")?.unwrap_or(0.3);
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate needs a probability in [0, 1], got `{rate}`"));
    }
    args.finish("chaos")?;
    if serve_drill {
        // SIGKILL a real daemon child mid-campaign, restart it over the
        // same durable queue, and verify a bit-exact settle against an
        // in-process reference.
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the repro binary: {e}"))?;
        let dir =
            std::env::temp_dir().join(format!("subcore-serve-drill-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = serve::run_serve_drill(&serve::ServeDrillOptions::headline(exe, dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        print!("{}", report.render());
        return Ok(exit_code(report.ok()));
    }
    // The drill runs against private sessions and a scratch journal — it
    // never touches `<out>` or the global session.
    let report = chaos::run_chaos(&chaos::ChaosOptions::headline(seed, rate));
    print!("{}", report.render());
    Ok(exit_code(report.ok()))
}

/// Resolves the daemon address for `repro submit` / `repro jobs`: an
/// explicit `--addr`, or an `--addr-file` polled briefly (the daemon may
/// still be starting and writes the file atomically once bound).
fn resolve_addr(addr: Option<String>, addr_file: Option<PathBuf>) -> Result<String, String> {
    if let Some(addr) = addr {
        return Ok(addr);
    }
    let path = addr_file.ok_or("need --addr HOST:PORT or --addr-file PATH")?;
    subcore_serve::read_addr_file(&path, Duration::from_secs(30))
        .ok_or_else(|| format!("no daemon address at {} after 30s", path.display()))
}

/// Implements `repro serve`: the long-running simulation daemon — a
/// durable job queue with lease-based ownership, bounded admission, and
/// cross-client coalescing over the `subcore-serve` HTTP front.
fn serve_daemon(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let d = ServeOptions::default();
    let opts = ServeOptions {
        dir: args.value("--dir", "a queue directory")?.unwrap_or_else(|| global.out.join(".serve")),
        capacity: args
            .value("--capacity", "a queue-depth cap")?
            .map_or(d.capacity, |n: usize| n.max(1)),
        workers: args
            .value("--serve-workers", "a worker count")?
            .map_or(d.workers, |n: usize| n.max(1)),
        lease: args
            .value("--lease-ms", "a lease duration in ms")?
            .map_or(d.lease, |ms: u64| Duration::from_millis(ms.max(1))),
        max_attempts: args
            .value("--max-attempts", "an attempt cap")?
            .map_or(d.max_attempts, |n: u32| n.max(1)),
        ..d
    };
    let port = args.value::<u16>("--port", "a TCP port")?.unwrap_or(0);
    let addr_file = args.value::<PathBuf>("--addr-file", "a path")?;
    args.finish("serve")?;
    with_metrics_stream(&global.out, "serve", || {
        // The daemon's executor owns a private session: results are kept by
        // the job map and (unless --no-cache) on disk, shared across restarts.
        let exec = std::sync::Arc::new(serve::SimExecutor::new(global.ctx.session.clone()));
        let server = Server::open(opts, exec);
        let recovery = server.recovery().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("serve: cannot bind 127.0.0.1:{port}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("serve: no local address: {e}"))?;
        if let Some(path) = &addr_file {
            subcore_serve::write_addr_file(path, &addr.to_string())
                .map_err(|e| format!("serve: cannot write {}: {e}", path.display()))?;
        }
        eprintln!(
            "serve: listening on {addr} (queue {}; recovered {} record(s): {} reclaimed, \
             {} replayed, {} skipped)",
            server.options().dir.display(),
            recovery.restored,
            recovery.reclaimed,
            recovery.replayed,
            recovery.skipped
        );
        subcore_serve::http::run(&server, listener)
            .map_err(|e| format!("serve: accept loop failed: {e}"))
    })?;
    eprintln!("serve: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro submit`: posts one job per app to a running daemon,
/// optionally waiting for settlement.
fn submit(args: &mut Args, _: &Global) -> Result<ExitCode, String> {
    let wait = args.flag("--wait");
    let design =
        args.value::<String>("--design", "a design label")?.unwrap_or_else(|| "baseline".into());
    let defaults = JobSpec::default();
    let sms = args.value("--sms", "an SM count")?.unwrap_or(defaults.sms);
    let max_cycles = args.value("--max-cycles", "a cycle cap")?.unwrap_or(defaults.max_cycles);
    let timeout = args.value::<u64>("--timeout", "seconds")?.unwrap_or(900);
    let addr = args.value("--addr", "HOST:PORT")?;
    let addr_file = args.value("--addr-file", "a path")?;
    let apps = args.operands()?;
    if apps.is_empty() {
        return Err(usage_of("submit"));
    }
    let addr = resolve_addr(addr, addr_file)?;
    let mut code = ExitCode::SUCCESS;
    let mut accepted: Vec<(u64, String)> = Vec::new();
    for app in apps {
        let spec = JobSpec { app: app.clone(), design: design.clone(), sms, max_cycles };
        let label = format!("{app}/{design}");
        match subcore_serve::http_call(&addr, "POST", "/submit", Some(&spec.to_json().render())) {
            Ok((200, body)) => {
                let fields = Json::parse(&body).ok().map(|j| {
                    let u = |n: &str| j.field(n).ok().and_then(|v| v.as_u64().ok()).unwrap_or(0);
                    let coalesced =
                        j.field("coalesced").ok().and_then(|v| v.as_bool().ok()).unwrap_or(false);
                    (u("id"), u("key"), u("predicted_cycles"), u("budget_ms"), coalesced)
                });
                let Some((id, key, predicted, budget_ms, coalesced)) = fields else {
                    eprintln!("unparsable submit response for {label}: {body}");
                    code = ExitCode::FAILURE;
                    continue;
                };
                println!(
                    "job {id}: {label} accepted (key {key:016x}, predicted {predicted} cycles, \
                     budget {budget_ms} ms){}",
                    if coalesced { " — coalesced with an in-flight duplicate" } else { "" }
                );
                accepted.push((id, label));
            }
            Ok((429, body)) => {
                eprintln!("{label} shed by the daemon (queue full): {body}");
                code = ExitCode::FAILURE;
            }
            Ok((status, body)) => {
                eprintln!("{label} rejected ({status}): {body}");
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("submit of {label} failed: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    if !wait {
        return Ok(code);
    }
    let deadline = Instant::now() + Duration::from_secs(timeout);
    for (id, label) in accepted {
        // The settled record, as soon as the daemon reports one.
        let left = deadline.saturating_duration_since(Instant::now());
        let settled = subcore_serve::poll_until(left, || {
            let (status, body) =
                subcore_serve::http_call(&addr, "GET", &format!("/jobs/{id}"), None).ok()?;
            let record = Json::parse(&body).ok().filter(|_| status == 200)?;
            let state = record.field("state").ok()?.as_str().ok()?.to_owned();
            matches!(state.as_str(), "done" | "failed").then_some((state, record))
        });
        match settled {
            Some((state, record)) if state == "done" => {
                let cycles =
                    record.field("stats").and_then(|s| s.field("cycles")?.as_u64()).unwrap_or(0);
                println!("job {id}: {label} done ({cycles} cycles)");
            }
            Some((_, record)) => {
                let error = record.field("error").map(Json::render).unwrap_or_default();
                eprintln!("job {id}: {label} failed: {error}");
                code = ExitCode::FAILURE;
            }
            None => return Err(format!("job {id}: {label} still unsettled after {timeout}s")),
        }
    }
    Ok(code)
}

/// Implements `repro jobs`: queue listing plus the `--healthz`,
/// `--metrics`, and `--drain` probes against a running daemon.
fn jobs(args: &mut Args, _: &Global) -> Result<ExitCode, String> {
    let drain = args.flag("--drain");
    let healthz = args.flag("--healthz");
    let metrics = args.flag("--metrics");
    let addr = args.value("--addr", "HOST:PORT")?;
    let addr_file = args.value("--addr-file", "a path")?;
    args.finish("jobs")?;
    let addr = resolve_addr(addr, addr_file)?;
    let call = |method: &str, path: &str| match subcore_serve::http_call(&addr, method, path, None)
    {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("{method} {path} → {status}: {body}")),
        Err(e) => Err(format!("{method} {path} failed: {e}")),
    };
    if drain {
        println!("drain requested: {}", call("POST", "/drain")?);
        return Ok(ExitCode::SUCCESS);
    }
    if healthz {
        println!("{}", call("GET", "/healthz")?);
        return Ok(ExitCode::SUCCESS);
    }
    if metrics {
        let text = call("GET", "/metrics")?;
        let samples = subcore_metrics::validate_prometheus(&text)
            .map_err(|e| format!("daemon /metrics failed validation: {e}"))?;
        print!("{text}");
        eprintln!("# {samples} samples from {addr}");
        return Ok(ExitCode::SUCCESS);
    }
    let body = call("GET", "/jobs")?;
    let jobs = Json::parse(&body)
        .ok()
        .and_then(|j| j.field("jobs").ok().map(|a| a.as_arr().map(<[Json]>::to_vec)));
    let Some(Ok(jobs)) = jobs else { return Err(format!("unparsable /jobs response: {body}")) };
    if jobs.is_empty() {
        println!("no jobs");
    }
    for job in &jobs {
        let u = |n: &str| job.field(n).ok().and_then(|v| v.as_u64().ok()).unwrap_or(0);
        let s = |n: &str| {
            job.field(n).ok().and_then(|v| v.as_str().ok().map(str::to_owned)).unwrap_or_default()
        };
        let cycles = job
            .field("cycles")
            .ok()
            .and_then(|c| c.as_u64().ok())
            .map_or_else(|| "-".to_owned(), |c| c.to_string());
        let error = job
            .field("error")
            .ok()
            .filter(|e| !matches!(e, Json::Null))
            .map(|e| format!("  {}", e.render()))
            .unwrap_or_default();
        println!(
            "#{:<5} {:<7} {:<24} attempts={} predicted={} budget={}ms cycles={}{}",
            u("id"),
            s("state"),
            format!("{}/{}", s("app"), s("design")),
            u("attempts"),
            u("predicted_cycles"),
            u("budget_ms"),
            cycles,
            error
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro bench-engine`: the engine-mode perf smoke and, with
/// `--check`, the gate against the committed baseline.
fn bench_engine(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let check = args.flag("--check");
    let path = args
        .value::<PathBuf>("--baseline", "a path")?
        .unwrap_or_else(|| global.out.join("BENCH_engine.json"));
    args.finish("bench-engine")?;
    // Direct simulate_app calls — no session, so no telemetry block.
    let report = engine_bench::run_cases(engine_bench::headline_cases())
        .map_err(|e| format!("bench-engine FAILED: {e}"))?;
    print!("{}", report.render());
    if !check {
        write_file(&path, &report.to_json().render())?;
        eprintln!("bench → {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    // Gate mode: compare against the committed baseline and leave it
    // untouched, so a passing run can't quietly lower the bar.
    let at = path.display();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("bench-engine --check: cannot read baseline {at}: {e}"))?;
    let baseline = Json::parse(&text)
        .map_err(|e| format!("bench-engine --check: baseline {at} is not valid JSON: {e}"))?;
    report
        .check_against_baseline(&baseline, engine_bench::NOISE_BAND)
        .map_err(|v| format!("bench-engine --check FAILED vs {at}:\n{v}"))?;
    eprintln!("bench-engine --check: no regression vs {at}");
    Ok(ExitCode::SUCCESS)
}

/// A `--design` value: a label [`trace::parse_design`] knows.
struct DesignArg(Design);

impl FromStr for DesignArg {
    type Err = ();
    fn from_str(label: &str) -> Result<Self, ()> {
        trace::parse_design(label).map(DesignArg).ok_or(())
    }
}

/// Takes the single `--design D` of `lint` / `estimate` (default baseline).
fn design_flag(args: &mut Args) -> Result<Design, String> {
    let design = args.value::<DesignArg>("--design", "a known design label")?;
    Ok(design.map_or(Design::Baseline, |d| d.0))
}

/// Takes `--window N`, the probe window in cycles.
fn window_flag(args: &mut Args, default: u32) -> Result<u32, String> {
    let window = args.value::<NonZeroU32>("--window", "a positive cycle count")?;
    Ok(window.map_or(default, NonZeroU32::get))
}

/// Resolves app operands (or `--all` → the whole registry) the way
/// `lint`/`estimate`/`opt` share: registry names plus the `fma`/`fig3`/
/// `fig8` synthetic targets.
fn resolve_apps(all: bool, names: &[String], command: &str) -> Result<Vec<App>, String> {
    if all && !names.is_empty() {
        return Err(format!("--all covers the whole registry; drop the app arguments: {names:?}"));
    }
    if all {
        return Ok(subcore_workloads::all_apps());
    }
    if names.is_empty() {
        return Err(usage_of(command));
    }
    names.iter().map(|name| resolve_target(name)).collect()
}

/// Resolves one workload operand.
fn resolve_target(name: &str) -> Result<App, String> {
    trace::resolve_target(name).ok_or_else(|| {
        format!("unknown target `{name}` (use a registry app name, `fma`, `fig3`, or `fig8`)")
    })
}

/// Implements `repro lint` (and `repro lint --calibrate`).
fn lint_command(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let all = args.flag("--all");
    let json = args.flag("--json");
    let deny_warnings = args.flag("--deny-warnings");
    let calibrate = args.flag("--calibrate");
    let design = design_flag(args)?;
    let window = window_flag(args, 2048)?;
    let names = args.operands()?;

    if calibrate {
        let names: Vec<&str> = if names.is_empty() {
            lint::CALIBRATION_APPS.to_vec()
        } else {
            names.iter().map(String::as_str).collect()
        };
        if let Some(name) = names.iter().find(|n| trace::resolve_target(n).is_none()) {
            return Err(format!("unknown calibration app `{name}`"));
        }
        // Calibration captures traces through the session; plain lint
        // never touches the simulator.
        return simulate(global, None, |_| {
            let report = lint::calibrate(&names, window);
            if json {
                println!("{}", report.to_json().render());
            } else {
                print!("{}", report.render());
            }
            Ok(ExitCode::SUCCESS)
        });
    }

    let apps = resolve_apps(all, &names, "lint")?;
    let mut totals = lint::LintTotals::default();
    let mut reports_json = Vec::new();
    for app in &apps {
        let report = lint::lint_app(design, app);
        totals.add(&report);
        if json {
            reports_json.push(report.to_json());
        } else {
            // In registry-wide mode, skip apps with nothing above info
            // level and keep info findings out of the way.
            let show_info = !all;
            let body = report.render(show_info);
            if !body.is_empty() || !all {
                println!(
                    "== {} (design {}): {} errors, {} warnings, {} allowed, {} info",
                    report.app,
                    report.design,
                    report.errors(),
                    report.unallowed_warnings(),
                    report.allowed(),
                    report.infos()
                );
                print!("{body}");
            }
        }
    }
    // Registry-wide runs also gate the tenant-mix partitions (L040–L042):
    // allocator output for every registered mix under both policies.
    let mut tenant_findings = 0usize;
    if all {
        for (label, diags) in lint::lint_tenant_mixes() {
            for d in &diags {
                match d.severity {
                    subcore_lint::Severity::Error => totals.errors += 1,
                    subcore_lint::Severity::Warning => totals.warnings += 1,
                    subcore_lint::Severity::Info => totals.infos += 1,
                }
                tenant_findings += 1;
            }
            if json {
                reports_json.push(Json::obj([
                    ("tenant_mix", Json::Str(label.clone())),
                    (
                        "diagnostics",
                        Json::Arr(diags.iter().map(|d| Json::Str(d.render())).collect()),
                    ),
                ]));
            } else {
                println!("== tenant mix {label}");
                for d in &diags {
                    println!("{}", d.render());
                }
            }
        }
    }
    if json {
        println!("{}", Json::Arr(reports_json).render());
    } else {
        let verdict = if totals.passes(deny_warnings) { "PASS" } else { "FAIL" };
        if all {
            println!(
                "tenant mixes: {} findings across {} mixes x {} policies",
                tenant_findings,
                subcore_workloads::tenant_mixes().len(),
                subcore_sched::PARTITION_POLICIES.len()
            );
        }
        println!("lint {}: {}", verdict, totals.render());
    }
    Ok(exit_code(totals.passes(deny_warnings)))
}

/// Implements `repro estimate` (and `repro estimate --calibrate`).
fn estimate_command(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let all = args.flag("--all");
    let json = args.flag("--json");
    let calibrate = args.flag("--calibrate");
    let design = design_flag(args)?;
    let names = args.operands()?;

    if calibrate {
        if !names.is_empty() {
            return Err(format!("estimate --calibrate sweeps the whole registry; got: {names:?}"));
        }
        // Calibration simulates the registry through the session; plain
        // estimates are static.
        return simulate(global, None, |session| {
            let report = estimate::calibrate(session);
            let artifact = global.out.join("estimate_calibration.json");
            write_file(&artifact, &report.to_json().render())?;
            eprintln!("calibration → {}", artifact.display());
            if json {
                println!("{}", report.to_json().render());
            } else {
                print!("{}", report.render());
            }
            Ok(exit_code(report.passes()))
        });
    }

    let mut reports_json = Vec::new();
    for app in &resolve_apps(all, &names, "estimate")? {
        let e = subcore_opt::estimate_app(app, &lint::base_for(app), design);
        if json {
            reports_json.push(estimate::estimate_to_json(&e));
        } else {
            print!("{}", estimate::render_estimate(&e));
        }
    }
    if json {
        println!("{}", Json::Arr(reports_json).render());
    }
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro opt`: the conflict-free register remapper's
/// per-kernel evidence (the fix `lint`'s L036 advisory names).
fn opt_command(args: &mut Args, _: &Global) -> Result<ExitCode, String> {
    let all = args.flag("--all");
    for app in &resolve_apps(all, &args.operands()?, "opt")? {
        print!("{}", estimate::render_remap(app));
    }
    Ok(ExitCode::SUCCESS)
}

/// Implements `repro tenants`: the multi-tenant spatial-partitioning
/// sweep over the registered tenant mixes (or a `--mix` selection).
fn tenants_command(args: &mut Args, global: &Global) -> Result<ExitCode, String> {
    let selected = args.values::<String>("--mix", "a tenant-mix name")?;
    args.finish("tenants")?;
    let mixes = if selected.is_empty() {
        subcore_workloads::tenant_mixes()
    } else {
        let pick = |name: &String| {
            subcore_workloads::tenant_mix_by_name(name).ok_or_else(|| {
                let known: Vec<&str> =
                    subcore_workloads::tenant_mixes().iter().map(|m| m.name).collect();
                format!("unknown tenant mix `{name}`; known: {}", known.join(" "))
            })
        };
        selected.iter().map(pick).collect::<Result<_, _>>()?
    };
    let cells = mixes.len()
        * subcore_experiments::tenant_designs().len()
        * subcore_sched::PARTITION_POLICIES.len();

    simulate(global, Some("tenants"), |_| {
        let start = Instant::now();
        let outcome = subcore_experiments::run_tenant_sweep(&suite_base(), &mixes);
        for mix in &outcome.mixes {
            emit(&mix.table, &global.out, global.bars)?;
            let wins = mix.contention_aware_wins();
            if wins.is_empty() {
                println!("[{}] contention-aware placement never beat rigid", mix.name);
            } else {
                let labels: Vec<String> = wins.iter().map(|d| d.label()).collect();
                println!(
                    "[{}] contention-aware beats rigid (geomean slowdown) under: {}",
                    mix.name,
                    labels.join(" ")
                );
            }
        }
        if !outcome.deadlines.rows.is_empty() {
            emit(&outcome.deadlines, &global.out, false)?;
        }
        if outcome.journal_skips > 0 {
            eprintln!("[tenants] {} cell(s) resumed from the journal", outcome.journal_skips);
        }
        for e in &outcome.failures {
            eprintln!("[tenants] failed cell: {e}");
        }
        let secs = start.elapsed().as_secs_f64();
        eprintln!("[tenants] done in {secs:.1}s → {}", global.out.display());
        Ok(exit_code(outcome.failures.len() < cells))
    })
}

/// Implements `repro trace` and (`diff`) `repro trace-diff`.
fn trace_command(args: &mut Args, global: &Global, diff: bool) -> Result<ExitCode, String> {
    let designs = args.values::<DesignArg>("--design", "a known design label")?;
    let mut designs: Vec<Design> = designs.into_iter().map(|d| d.0).collect();
    let window = window_flag(args, 1024)?;
    let events = args.value::<u64>("--events", "an event count")?;
    let operands = args.operands()?;
    let [target] = operands.as_slice() else {
        return Err(usage_of(if diff { "trace-diff" } else { "trace" }));
    };
    let app = resolve_target(target)?;
    if designs.is_empty() {
        designs = if diff { vec![Design::Baseline, Design::Rba] } else { vec![Design::Baseline] };
    }
    if diff && designs.len() != 2 {
        return Err(format!("trace-diff compares exactly two designs, got {}", designs.len()));
    }
    let base = match app.suite() {
        Suite::TpchUncompressed | Suite::TpchCompressed => tpch_base(),
        _ => suite_base(),
    };
    let traces_dir = global.out.join("traces");

    simulate(global, None, |_| {
        let mut artifacts = Vec::new();
        for &design in &designs {
            let art = trace::capture(&base, design, &app, window);
            print!("{}", art.summary());
            let path = art
                .save(&traces_dir)
                .map_err(|e| format!("failed to write trace artifact: {e}"))?;
            eprintln!("trace → {}", path.display());
            if let Some(limit) = events {
                let out = traces_dir.join(format!(
                    "{}.{}.w{window}.events.jsonl",
                    app.name(),
                    design.label()
                ));
                let n = trace::capture_events(&base, design, &app, window, limit, &out)
                    .map_err(|e| format!("failed to write event trace: {e}"))?;
                eprintln!("{n} events → {}", out.display());
            }
            artifacts.push(art);
        }
        if let (true, [a, b]) = (diff, artifacts.as_slice()) {
            let report = trace::diff_report(a, b);
            print!("{report}");
            let name = format!("{}.{}-vs-{}.w{window}.diff.txt", app.name(), a.design, b.design);
            let path = traces_dir.join(name);
            std::fs::write(&path, report)
                .map_err(|e| format!("failed to write diff report: {e}"))?;
            eprintln!("diff → {}", path.display());
        }
        Ok(ExitCode::SUCCESS)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn flags_report_presence_and_leave_the_line() {
        let mut a = args("fig8 --bars fig9");
        assert!(!a.flag("--resume"), "absent flag");
        assert!(a.flag("--bars"), "present flag");
        assert!(!a.flag("--bars"), "taken flags are gone");
        assert_eq!(a.operands().unwrap(), ["fig8", "fig9"]);
    }

    #[test]
    fn values_parse_or_name_the_flag() {
        let mut a = args("--jobs 4 status --retries x --out");
        assert_eq!(a.value::<usize>("--jobs", "a worker count"), Ok(Some(4)));
        assert_eq!(a.value::<usize>("--jobs", "a worker count"), Ok(None), "taken with its value");
        assert_eq!(a.value::<u64>("--seed", "an integer seed"), Ok(None), "absent flag");
        let unparsable = a.value::<u32>("--retries", "a retry count").unwrap_err();
        assert_eq!(unparsable, "--retries needs a retry count, got `x`");
        let missing = a.value::<PathBuf>("--out", "a directory argument").unwrap_err();
        assert_eq!(missing, "--out needs a directory argument");
        let zero = args("--interval 0").value::<NonZeroU64>("--interval", "positive milliseconds");
        assert_eq!(zero.unwrap_err(), "--interval needs positive milliseconds, got `0`");
    }

    #[test]
    fn repeated_flags_come_back_in_line_order() {
        let mut a = args("--design rba fma --design baseline --window 64");
        assert_eq!(a.values::<String>("--design", "a design label").unwrap(), ["rba", "baseline"]);
        assert!(a.values::<String>("--mix", "a tenant-mix name").unwrap().is_empty());
        assert_eq!(a.0, ["fma", "--window", "64"]);
        let cut_short = args("--mix a --mix").values::<String>("--mix", "a tenant-mix name");
        assert_eq!(cut_short.unwrap_err(), "--mix needs a tenant-mix name");
    }

    #[test]
    fn leftovers_are_reported() {
        assert_eq!(args("").finish("status"), Ok(()));
        let extra = args("extra").finish("status").unwrap_err();
        assert_eq!(extra, "status takes no further arguments, got: [\"extra\"]");
        assert_eq!(args("fma --bogus").operands().unwrap_err(), "unknown flag `--bogus`");
    }

    #[test]
    fn every_command_row_is_named_and_help_lists_it() {
        let text = help();
        for command in COMMANDS {
            assert!(!command.name().is_empty());
            assert!(text.contains(&format!("repro {}", command.name())), "{}", command.name());
        }
        assert_eq!(usage_of("opt"), "usage: repro opt <app>... | --all");
        let serve = usage_of("serve");
        let (first, second) = serve.split_once('\n').expect("two usage lines");
        assert_eq!(first.find("[--out"), second.find("[--serve-workers"), "aligned:\n{serve}");
    }
}
