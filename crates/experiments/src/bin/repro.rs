//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>... | all [--out DIR] [--jobs N] [--resume]
//!       [--retries N] [--job-timeout SECS] [--fail-fast] [--max-failures N]
//! repro status [--out DIR] [--watch] [--interval MS] [--frames N]
//! repro top [--out DIR] [--once] [--interval MS] [--frames N]
//! repro metrics [--out DIR] [--prom]
//! repro chaos [--seed S] [--fault-rate P] [--out DIR] [--serve]
//! repro serve [--port P] [--dir DIR] [--addr-file PATH] [--capacity N]
//!             [--serve-workers N] [--lease-ms MS] [--max-attempts N]
//! repro submit <app>... [--design D] [--sms N] [--max-cycles N]
//!             (--addr HOST:PORT | --addr-file PATH) [--wait] [--timeout SECS]
//! repro jobs (--addr HOST:PORT | --addr-file PATH) [--healthz|--metrics|--drain]
//! repro trace <fig|app> [--design D]... [--window N] [--events LIMIT]
//! repro trace-diff <fig|app> [--design A --design B] [--window N]
//! repro lint <app>... | --all [--design D] [--json] [--deny-warnings]
//! repro lint --calibrate [<app>...] [--window N] [--json]
//! repro estimate <app>... | --all [--design D] [--json]
//! repro estimate --calibrate [--json]
//! repro opt <app>... | --all
//! repro tenants [--mix NAME]... [--out DIR] [--resume]
//! repro bench-engine [--out DIR] [--check] [--baseline PATH]
//!
//! experiments: fig1 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!              fig16 fig17 fig18 latency banks hashtable contribution
//! ```
//!
//! Each experiment prints its table(s) and writes `<out>/<name>.csv`
//! (default `results/`). Pass `--bars` to also render each table's first
//! column as an ASCII bar chart.
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
//! written to `<out>/run_telemetry.csv`. `--jobs N` (or the `SUBCORE_JOBS`
//! environment variable) caps the worker pool's thread count; the cap in
//! force is recorded in the telemetry summary and CSV.
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

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use subcore_experiments::{chaos, engine_bench, estimate, figs, journal, lint, serve, trace};
use subcore_experiments::{init_global, suite_base, tpch_base, SessionOptions, SimSession, Table};
use subcore_experiments::{set_policy, SupervisorPolicy};
use subcore_isa::Suite;
use subcore_persist::{Json, JsonCodec};
use subcore_sched::Design;
use subcore_serve::{JobSpec, ServeOptions, Server};

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "latency",
    "banks",
    "hashtable",
    "contribution",
    "ext-imbalance",
    "ext-dual-issue",
    "ext-memory",
    "ext-schedulers",
    "characterize",
    "topdown",
];

fn run_one(name: &str) -> Option<Vec<Table>> {
    let tables = match name {
        "fig1" => vec![figs::fig01::run()],
        "fig3" => vec![figs::fig03::run()],
        "fig8" => vec![figs::fig08::run()],
        "fig9" => vec![figs::fig09::run()],
        "fig10" => vec![figs::fig10::run()],
        "fig11" => vec![figs::fig11::run()],
        "fig12" => vec![figs::fig12::run()],
        "fig13" => vec![figs::fig13::run()],
        "fig14" => {
            let mut ts = vec![figs::fig14::run()];
            ts.extend(figs::fig14::traces(256));
            ts
        }
        "fig15" => vec![figs::fig15_16::run(true)],
        "fig16" => vec![figs::fig15_16::run(false)],
        "fig17" => vec![figs::fig17::run()],
        "fig18" => vec![figs::fig18::run()],
        "latency" => vec![figs::ablations::score_latency()],
        "banks" => vec![figs::ablations::bank_scaling()],
        "hashtable" => vec![figs::ablations::hash_table_size()],
        "contribution" => vec![figs::ablations::contribution()],
        "ext-imbalance" => vec![figs::extensions::imbalance_mechanisms()],
        "ext-dual-issue" => vec![figs::extensions::dual_issue()],
        "ext-memory" => vec![figs::extensions::memory_model_robustness()],
        "ext-schedulers" => vec![figs::extensions::scheduler_comparison()],
        "characterize" => vec![figs::characterization::run()],
        "topdown" => figs::topdown::run(),
        _ => return None,
    };
    Some(tables)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    let bars = if let Some(i) = args.iter().position(|a| a == "--bars") {
        args.remove(i);
        true
    } else {
        false
    };
    let no_cache = if let Some(i) = args.iter().position(|a| a == "--no-cache") {
        args.remove(i);
        true
    } else {
        false
    };
    if let Some(i) = args.iter().position(|a| a == "--no-reorder") {
        args.remove(i);
        subcore_experiments::set_reorder(false);
    }
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if i + 1 >= args.len() {
            eprintln!("--out needs a directory argument");
            return ExitCode::FAILURE;
        }
        out_dir = PathBuf::from(args.remove(i + 1));
        args.remove(i);
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        if i + 1 >= args.len() {
            eprintln!("--jobs needs a positive worker count");
            return ExitCode::FAILURE;
        }
        let v = args.remove(i + 1);
        args.remove(i);
        match v.parse::<usize>() {
            Ok(n) if n > 0 => {
                subcore_experiments::set_jobs(n);
            }
            _ => {
                eprintln!("--jobs needs a positive worker count, got `{v}`");
                return ExitCode::FAILURE;
            }
        }
    }
    // Supervision knobs: every flag feeds the process-wide policy the
    // supervised sweeps resolve on first use.
    let take_flag = |args: &mut Vec<String>, flag: &str| -> bool {
        if let Some(i) = args.iter().position(|a| a == flag) {
            args.remove(i);
            true
        } else {
            false
        }
    };
    let take_value = |args: &mut Vec<String>, flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs an argument"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    let fail_fast = take_flag(&mut args, "--fail-fast");
    let resume = take_flag(&mut args, "--resume");
    let max_failures = match take_value(&mut args, "--max-failures") {
        Ok(v) => match v.map(|v| v.parse::<u64>().map_err(|_| v)).transpose() {
            Ok(n) => n,
            Err(v) => {
                eprintln!("--max-failures needs a failure count, got `{v}`");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let retries = match take_value(&mut args, "--retries") {
        Ok(v) => match v.map(|v| v.parse::<u32>().map_err(|_| v)).transpose() {
            Ok(n) => n,
            Err(v) => {
                eprintln!("--retries needs a retry count, got `{v}`");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let job_timeout = match take_value(&mut args, "--job-timeout") {
        Ok(v) => match v.map(|v| v.parse::<u64>().map_err(|_| v)).transpose() {
            Ok(n) => n.map(Duration::from_secs),
            Err(v) => {
                eprintln!("--job-timeout needs a deadline in seconds (0 disables), got `{v}`");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if fail_fast || resume || max_failures.is_some() || retries.is_some() || job_timeout.is_some() {
        let defaults = SupervisorPolicy::default();
        set_policy(SupervisorPolicy {
            retries: retries.unwrap_or(defaults.retries),
            job_timeout: job_timeout.or(defaults.job_timeout),
            fail_fast,
            max_failures,
            ..defaults
        });
    }
    journal::set_resume(resume);
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: repro <experiment>... | all | summary [--out DIR] [--bars] [--no-cache] [--jobs N]"
        );
        eprintln!("             [--resume] [--retries N] [--job-timeout SECS] [--fail-fast] [--max-failures N]");
        eprintln!("       repro status [--out DIR] [--watch] [--interval MS] [--frames N]");
        eprintln!("       repro top [--out DIR] [--once] [--interval MS] [--frames N]");
        eprintln!("       repro metrics [--out DIR] [--prom]");
        eprintln!("       repro chaos [--seed S] [--fault-rate P] [--out DIR] [--serve]");
        eprintln!("       repro serve [--port P] [--dir DIR] [--addr-file PATH] [--capacity N]");
        eprintln!("                   [--serve-workers N] [--lease-ms MS] [--max-attempts N]");
        eprintln!("       repro submit <app>... [--design D] [--sms N] [--max-cycles N]");
        eprintln!(
            "                   (--addr HOST:PORT | --addr-file PATH) [--wait] [--timeout SECS]"
        );
        eprintln!(
            "       repro jobs (--addr HOST:PORT | --addr-file PATH) [--healthz|--metrics|--drain]"
        );
        eprintln!("       repro trace <fig|app> [--design D]... [--window N] [--events LIMIT]");
        eprintln!("       repro trace-diff <fig|app> [--design A --design B] [--window N]");
        eprintln!("       repro lint <app>... | --all [--design D] [--json] [--deny-warnings]");
        eprintln!("       repro lint --calibrate [<app>...] [--window N] [--json]");
        eprintln!("       repro estimate <app>... | --all | --calibrate [--design D] [--json]");
        eprintln!("       repro opt <app>... | --all");
        eprintln!("       repro tenants [--mix NAME]... [--out DIR] [--resume]");
        eprintln!("       repro bench-engine [--out DIR] [--check] [--baseline PATH]");
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        return if args.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    if args.iter().any(|a| a == "summary") {
        print!("{}", subcore_experiments::summary::render(&out_dir));
        return ExitCode::SUCCESS;
    }
    if args[0] == "status" {
        args.remove(0);
        let watch = take_flag(&mut args, "--watch");
        let (interval, frames) = match take_watch_knobs(&mut args, 2000) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if !args.is_empty() {
            eprintln!("status takes no further arguments, got: {args:?}");
            return ExitCode::FAILURE;
        }
        let journal_root = out_dir.join(".journal");
        if !watch {
            print!("{}", journal::render_status(&journal_root));
            return ExitCode::SUCCESS;
        }
        let mut shown = 0u64;
        loop {
            print!("\x1b[2J\x1b[H{}", journal::render_status(&journal_root));
            shown += 1;
            if shown >= frames {
                return ExitCode::SUCCESS;
            }
            std::thread::sleep(interval);
        }
    }
    if args[0] == "top" {
        args.remove(0);
        let once = take_flag(&mut args, "--once");
        let (interval, frames) = match take_watch_knobs(&mut args, 1000) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if !args.is_empty() {
            eprintln!("top takes no further arguments, got: {args:?}");
            return ExitCode::FAILURE;
        }
        let dir = out_dir.join(".metrics");
        let frames = if once { 1 } else { frames };
        let mut shown = 0u64;
        loop {
            let snaps = subcore_metrics::latest_stream(&dir)
                .map(|p| subcore_metrics::load_snapshots(&p))
                .unwrap_or_default();
            if !once {
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", subcore_experiments::render_frame(&snaps));
            shown += 1;
            if shown >= frames {
                return ExitCode::SUCCESS;
            }
            std::thread::sleep(interval);
        }
    }
    if args[0] == "metrics" {
        args.remove(0);
        let prom = take_flag(&mut args, "--prom");
        if !args.is_empty() {
            eprintln!("metrics takes no further arguments, got: {args:?}");
            return ExitCode::FAILURE;
        }
        let dir = out_dir.join(".metrics");
        let Some(path) = subcore_metrics::latest_stream(&dir) else {
            eprintln!("no metrics snapshots under {} (run an experiment first)", dir.display());
            return ExitCode::FAILURE;
        };
        let snaps = subcore_metrics::load_snapshots(&path);
        let Some(last) = snaps.last() else {
            eprintln!("{} holds no decodable snapshots", path.display());
            return ExitCode::FAILURE;
        };
        if prom {
            let text = subcore_metrics::render_prometheus(last);
            return match subcore_metrics::validate_prometheus(&text) {
                Ok(samples) => {
                    print!("{text}");
                    eprintln!("# {samples} samples from {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("internal error: Prometheus rendering failed validation: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        print!("{}", subcore_experiments::render_metrics_summary(last));
        return ExitCode::SUCCESS;
    }
    if args[0] == "chaos" {
        args.remove(0);
        let serve_drill = take_flag(&mut args, "--serve");
        let mut seed: u64 = 42;
        let mut rate: f64 = 0.3;
        match take_value(&mut args, "--seed") {
            Ok(Some(s)) => match s.parse::<u64>() {
                Ok(s) => seed = s,
                Err(_) => {
                    eprintln!("--seed needs an integer seed, got `{s}`");
                    return ExitCode::FAILURE;
                }
            },
            Ok(None) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        match take_value(&mut args, "--fault-rate") {
            Ok(Some(r)) => match r.parse::<f64>() {
                Ok(r) if (0.0..=1.0).contains(&r) => rate = r,
                _ => {
                    eprintln!("--fault-rate needs a probability in [0, 1], got `{r}`");
                    return ExitCode::FAILURE;
                }
            },
            Ok(None) => {}
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        if !args.is_empty() {
            eprintln!("chaos takes no further arguments, got: {args:?}");
            return ExitCode::FAILURE;
        }
        if serve_drill {
            // Process-level recovery drill: SIGKILL a real daemon child
            // mid-campaign, restart it over the same durable queue, and
            // verify a bit-exact settle against an in-process reference.
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot locate the repro binary: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let dir = std::env::temp_dir()
                .join(format!("subcore-serve-drill-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let report =
                serve::run_serve_drill(&serve::ServeDrillOptions::headline(exe, dir.clone()));
            let _ = std::fs::remove_dir_all(&dir);
            print!("{}", report.render());
            return if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
        // The drill runs against private sessions and a scratch journal —
        // it never touches `<out>` or the global session.
        let report = chaos::run_chaos(&chaos::ChaosOptions::headline(seed, rate));
        print!("{}", report.render());
        return if report.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if args[0] == "serve" {
        args.remove(0);
        return run_serve_command(args, &out_dir, no_cache);
    }
    if args[0] == "submit" {
        args.remove(0);
        return run_submit_command(args);
    }
    if args[0] == "jobs" {
        args.remove(0);
        return run_jobs_command(args);
    }
    if args[0] == "bench-engine" {
        args.remove(0);
        let check = take_flag(&mut args, "--check");
        let baseline_path = match take_value(&mut args, "--baseline") {
            Ok(p) => p.map(PathBuf::from),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if !args.is_empty() {
            eprintln!("bench-engine takes no further arguments, got: {args:?}");
            return ExitCode::FAILURE;
        }
        // Direct simulate_app calls — no session, so no telemetry block.
        let report = match engine_bench::run_cases(engine_bench::headline_cases()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-engine FAILED: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.render());
        if check {
            // Gate mode: compare against the committed baseline and leave
            // it untouched, so a passing run can't quietly lower the bar.
            let path = baseline_path.unwrap_or_else(|| out_dir.join("BENCH_engine.json"));
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("bench-engine --check: cannot read baseline {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let baseline = match Json::parse(&text) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!(
                        "bench-engine --check: baseline {} is not valid JSON: {e}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            return match report.check_against_baseline(&baseline, engine_bench::NOISE_BAND) {
                Ok(()) => {
                    eprintln!("bench-engine --check: no regression vs {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(v) => {
                    eprintln!("bench-engine --check FAILED vs {}:\n{v}", path.display());
                    ExitCode::FAILURE
                }
            };
        }
        let path = baseline_path.unwrap_or_else(|| out_dir.join("BENCH_engine.json"));
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
        return match std::fs::write(&path, report.to_json().render()) {
            Ok(()) => {
                eprintln!("bench → {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    if args[0] == "lint" {
        args.remove(0);
        // `--calibrate` simulates through the session; plain lint never
        // touches the simulator, so the cache simply stays cold.
        let session = init_global(SessionOptions {
            disk_cache: (!no_cache).then(|| out_dir.join(".simcache")),
        });
        let code = run_lint_command(args);
        finish_telemetry(session, &out_dir);
        return code;
    }
    if args[0] == "estimate" {
        args.remove(0);
        // `--calibrate` simulates the registry through the session; plain
        // estimates are static and leave the cache cold.
        let session = init_global(SessionOptions {
            disk_cache: (!no_cache).then(|| out_dir.join(".simcache")),
        });
        let code = run_estimate_command(args, &out_dir);
        finish_telemetry(session, &out_dir);
        return code;
    }
    if args[0] == "opt" {
        args.remove(0);
        return run_opt_command(args);
    }
    if args[0] == "tenants" {
        args.remove(0);
        let session = init_global(SessionOptions {
            disk_cache: (!no_cache).then(|| out_dir.join(".simcache")),
        });
        journal::set_root(out_dir.join(".journal"));
        subcore_metrics::set_enabled(true);
        let flusher = match subcore_metrics::spawn_periodic(
            out_dir.join(".metrics"),
            "tenants",
            Duration::from_millis(500),
        ) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("metrics stream disabled: {e}");
                None
            }
        };
        let code = run_tenants_command(args, &out_dir, bars);
        if let Some(f) = flusher {
            match f.finish() {
                Ok(path) => eprintln!("metrics → {}", path.display()),
                Err(e) => eprintln!("failed to flush metrics stream: {e}"),
            }
        }
        finish_telemetry(session, &out_dir);
        return code;
    }
    if args[0] == "trace" || args[0] == "trace-diff" {
        let cmd = args.remove(0);
        let session = init_global(SessionOptions {
            disk_cache: (!no_cache).then(|| out_dir.join(".simcache")),
        });
        let code = run_trace_command(&cmd, args, &out_dir);
        finish_telemetry(session, &out_dir);
        return code;
    }
    let session =
        init_global(SessionOptions { disk_cache: (!no_cache).then(|| out_dir.join(".simcache")) });
    // Sweeps journal their cells under `<out>/.journal/` so an interrupted
    // campaign is resumable; `--resume` (handled above) replays them.
    journal::set_root(out_dir.join(".journal"));
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Live observability: stream periodic metrics snapshots under
    // `<out>/.metrics/` so `repro top` / `repro metrics` can watch the
    // campaign from another terminal.
    subcore_metrics::set_enabled(true);
    let stream: String =
        if selected.len() == 1 { selected[0].to_owned() } else { "campaign".to_owned() };
    let flusher = match subcore_metrics::spawn_periodic(
        out_dir.join(".metrics"),
        &stream,
        Duration::from_millis(500),
    ) {
        Ok(f) => Some(f),
        Err(e) => {
            eprintln!("metrics stream disabled: {e}");
            None
        }
    };
    for name in &selected {
        let start = Instant::now();
        let Some(tables) = run_one(name) else {
            eprintln!("unknown experiment `{name}`; known: {}", EXPERIMENTS.join(" "));
            return ExitCode::FAILURE;
        };
        for table in &tables {
            println!("{}", table.render());
            if bars && !table.columns.is_empty() {
                println!("{}", table.render_bars(0));
            }
            if let Err(e) = table.save_csv(&out_dir) {
                eprintln!("failed to write {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[{name}] done in {:.1}s → {}", start.elapsed().as_secs_f64(), out_dir.display());
    }
    if let Some(f) = flusher {
        match f.finish() {
            Ok(path) => eprintln!("metrics → {}", path.display()),
            Err(e) => eprintln!("failed to flush metrics stream: {e}"),
        }
    }
    finish_telemetry(session, &out_dir);
    // Partial results exit zero by default — failed cells are already
    // surfaced as gaps, annotations, and telemetry. The exit code only
    // turns nonzero when the user asked for a failure budget.
    let failed = session.telemetry().snapshot().failed;
    if (fail_fast && failed > 0) || max_failures.is_some_and(|cap| failed > cap) {
        eprintln!("failing exit: {failed} failed jobs exceed the requested budget");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Implements `repro tenants`: the multi-tenant spatial-partitioning
/// sweep over the registered tenant mixes (or a `--mix` selection).
fn run_tenants_command(mut args: Vec<String>, out_dir: &Path, bars: bool) -> ExitCode {
    let mut selected: Vec<String> = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--mix") {
        if i + 1 >= args.len() {
            eprintln!("--mix needs a tenant-mix name");
            return ExitCode::FAILURE;
        }
        selected.push(args.remove(i + 1));
        args.remove(i);
    }
    if !args.is_empty() {
        eprintln!("tenants takes only --mix NAME arguments, got: {args:?}");
        return ExitCode::FAILURE;
    }
    let mixes: Vec<subcore_workloads::TenantMix> = if selected.is_empty() {
        subcore_workloads::tenant_mixes()
    } else {
        let mut mixes = Vec::new();
        for name in &selected {
            let Some(mix) = subcore_workloads::tenant_mix_by_name(name) else {
                let known: Vec<&str> =
                    subcore_workloads::tenant_mixes().iter().map(|m| m.name).collect();
                eprintln!("unknown tenant mix `{name}`; known: {}", known.join(" "));
                return ExitCode::FAILURE;
            };
            mixes.push(mix);
        }
        mixes
    };

    let start = Instant::now();
    let base = suite_base();
    let outcome = subcore_experiments::run_tenant_sweep(&base, &mixes);
    for mix in &outcome.mixes {
        println!("{}", mix.table.render());
        if bars && !mix.table.columns.is_empty() {
            println!("{}", mix.table.render_bars(0));
        }
        if let Err(e) = mix.table.save_csv(out_dir) {
            eprintln!("failed to write {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
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
        println!("{}", outcome.deadlines.render());
        if let Err(e) = outcome.deadlines.save_csv(out_dir) {
            eprintln!("failed to write {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    }
    if outcome.journal_skips > 0 {
        eprintln!("[tenants] {} cell(s) resumed from the journal", outcome.journal_skips);
    }
    for e in &outcome.failures {
        eprintln!("[tenants] failed cell: {e}");
    }
    eprintln!("[tenants] done in {:.1}s → {}", start.elapsed().as_secs_f64(), out_dir.display());
    if !outcome.failures.is_empty() && outcome.failures.len() as u64 >= total_cells(&mixes) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Number of cells the tenant sweep schedules for `mixes`.
fn total_cells(mixes: &[subcore_workloads::TenantMix]) -> u64 {
    (mixes.len()
        * subcore_experiments::tenant_designs().len()
        * subcore_sched::PARTITION_POLICIES.len()) as u64
}

/// Parses `--flag VALUE` into `T` for the serve-family commands,
/// reporting missing or unparsable values.
fn cli_parse<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs {what}"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    v.parse::<T>().map(Some).map_err(|_| format!("{flag} needs {what}, got `{v}`"))
}

/// Removes `--flag` from `args`, reporting whether it was present.
fn cli_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Resolves the daemon address for `repro submit` / `repro jobs`: an
/// explicit `--addr`, or an `--addr-file` polled briefly (the daemon may
/// still be starting and writes the file atomically once bound).
fn resolve_addr(addr: Option<String>, addr_file: Option<PathBuf>) -> Result<String, String> {
    if let Some(addr) = addr {
        return Ok(addr);
    }
    let Some(path) = addr_file else {
        return Err("need --addr HOST:PORT or --addr-file PATH".to_owned());
    };
    subcore_serve::read_addr_file(&path, Duration::from_secs(30))
        .ok_or_else(|| format!("no daemon address at {} after 30s", path.display()))
}

/// Implements `repro serve`: the long-running simulation daemon — a
/// durable job queue with lease-based ownership, bounded admission, and
/// cross-client coalescing over the `subcore-serve` HTTP front.
fn run_serve_command(mut args: Vec<String>, out_dir: &Path, no_cache: bool) -> ExitCode {
    let mut opts = ServeOptions { dir: out_dir.join(".serve"), ..ServeOptions::default() };
    let parsed = (|| -> Result<(u16, Option<PathBuf>), String> {
        if let Some(dir) = cli_parse::<PathBuf>(&mut args, "--dir", "a queue directory")? {
            opts.dir = dir;
        }
        if let Some(cap) = cli_parse::<usize>(&mut args, "--capacity", "a queue-depth cap")? {
            opts.capacity = cap.max(1);
        }
        if let Some(w) = cli_parse::<usize>(&mut args, "--serve-workers", "a worker count")? {
            opts.workers = w.max(1);
        }
        if let Some(ms) = cli_parse::<u64>(&mut args, "--lease-ms", "a lease duration in ms")? {
            opts.lease = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = cli_parse::<u32>(&mut args, "--max-attempts", "an attempt cap")? {
            opts.max_attempts = n.max(1);
        }
        let port = cli_parse::<u16>(&mut args, "--port", "a TCP port")?.unwrap_or(0);
        let addr_file = cli_parse::<PathBuf>(&mut args, "--addr-file", "a path")?;
        Ok((port, addr_file))
    })();
    let (port, addr_file) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.is_empty() {
        eprintln!("serve takes no further arguments, got: {args:?}");
        return ExitCode::FAILURE;
    }
    subcore_metrics::set_enabled(true);
    let flusher = match subcore_metrics::spawn_periodic(
        out_dir.join(".metrics"),
        "serve",
        Duration::from_millis(500),
    ) {
        Ok(f) => Some(f),
        Err(e) => {
            eprintln!("metrics stream disabled: {e}");
            None
        }
    };
    // The daemon's executor owns a private session: results are kept by
    // the job map and (unless --no-cache) on disk, shared across restarts.
    let exec = std::sync::Arc::new(serve::SimExecutor::new(SessionOptions {
        disk_cache: (!no_cache).then(|| out_dir.join(".simcache")),
    }));
    let server = Server::open(opts, exec);
    let recovery = server.recovery().clone();
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("serve: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &addr_file {
        if let Err(e) = subcore_serve::write_addr_file(path, &addr) {
            eprintln!("serve: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
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
    let code = match subcore_serve::http::run(&server, listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    };
    if let Some(f) = flusher {
        match f.finish() {
            Ok(path) => eprintln!("metrics → {}", path.display()),
            Err(e) => eprintln!("failed to flush metrics stream: {e}"),
        }
    }
    eprintln!("serve: drained, exiting");
    code
}

/// Implements `repro submit`: posts one job per app to a running daemon,
/// optionally waiting for settlement.
/// Flags accepted by `repro submit`, parsed ahead of the app-name operands.
struct SubmitFlags {
    addr: Option<String>,
    addr_file: Option<PathBuf>,
    design: String,
    sms: u32,
    max_cycles: u64,
    timeout: u64,
}

fn run_submit_command(mut args: Vec<String>) -> ExitCode {
    let wait = cli_flag(&mut args, "--wait");
    let parsed = (|| -> Result<SubmitFlags, String> {
        let addr = cli_parse::<String>(&mut args, "--addr", "HOST:PORT")?;
        let addr_file = cli_parse::<PathBuf>(&mut args, "--addr-file", "a path")?;
        let design = cli_parse::<String>(&mut args, "--design", "a design label")?
            .unwrap_or_else(|| "baseline".to_owned());
        let defaults = JobSpec::default();
        let sms = cli_parse::<u32>(&mut args, "--sms", "an SM count")?.unwrap_or(defaults.sms);
        let max_cycles = cli_parse::<u64>(&mut args, "--max-cycles", "a cycle cap")?
            .unwrap_or(defaults.max_cycles);
        let timeout = cli_parse::<u64>(&mut args, "--timeout", "seconds")?.unwrap_or(900);
        Ok(SubmitFlags { addr, addr_file, design, sms, max_cycles, timeout })
    })();
    let SubmitFlags { addr, addr_file, design, sms, max_cycles, timeout } = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("submit needs app names (and only app names) after the flags, got: {args:?}");
        return ExitCode::FAILURE;
    }
    let addr = match resolve_addr(addr, addr_file) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    let mut accepted: Vec<(u64, String)> = Vec::new();
    for app in args {
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
        return code;
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
            None => {
                eprintln!("job {id}: {label} still unsettled after {timeout}s");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Implements `repro jobs`: queue listing plus the `--healthz`,
/// `--metrics`, and `--drain` probes against a running daemon.
fn run_jobs_command(mut args: Vec<String>) -> ExitCode {
    let drain = cli_flag(&mut args, "--drain");
    let healthz = cli_flag(&mut args, "--healthz");
    let metrics = cli_flag(&mut args, "--metrics");
    let parsed = (|| -> Result<(Option<String>, Option<PathBuf>), String> {
        let addr = cli_parse::<String>(&mut args, "--addr", "HOST:PORT")?;
        let addr_file = cli_parse::<PathBuf>(&mut args, "--addr-file", "a path")?;
        Ok((addr, addr_file))
    })();
    let (addr, addr_file) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.is_empty() {
        eprintln!("jobs takes no further arguments, got: {args:?}");
        return ExitCode::FAILURE;
    }
    let addr = match resolve_addr(addr, addr_file) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let call = |method: &str, path: &str| match subcore_serve::http_call(&addr, method, path, None)
    {
        Ok((200, body)) => Some(body),
        Ok((status, body)) => {
            eprintln!("{method} {path} → {status}: {body}");
            None
        }
        Err(e) => {
            eprintln!("{method} {path} failed: {e}");
            None
        }
    };
    if drain {
        return match call("POST", "/drain") {
            Some(body) => {
                println!("drain requested: {body}");
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        };
    }
    if healthz {
        return match call("GET", "/healthz") {
            Some(body) => {
                println!("{body}");
                ExitCode::SUCCESS
            }
            None => ExitCode::FAILURE,
        };
    }
    if metrics {
        let Some(text) = call("GET", "/metrics") else { return ExitCode::FAILURE };
        return match subcore_metrics::validate_prometheus(&text) {
            Ok(samples) => {
                print!("{text}");
                eprintln!("# {samples} samples from {addr}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("daemon /metrics failed validation: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(body) = call("GET", "/jobs") else { return ExitCode::FAILURE };
    let jobs = Json::parse(&body)
        .ok()
        .and_then(|j| j.field("jobs").ok().map(|a| a.as_arr().map(<[Json]>::to_vec)));
    let Some(Ok(jobs)) = jobs else {
        eprintln!("unparsable /jobs response: {body}");
        return ExitCode::FAILURE;
    };
    if jobs.is_empty() {
        println!("no jobs");
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
}

/// Parses the shared `--interval MS` / `--frames N` watch knobs of
/// `repro top` and `repro status --watch`. `--frames` defaults to
/// unbounded (loop until interrupted).
fn take_watch_knobs(
    args: &mut Vec<String>,
    default_interval_ms: u64,
) -> Result<(Duration, u64), String> {
    let take_value = |args: &mut Vec<String>, flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs an argument"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    let interval_ms = match take_value(args, "--interval")? {
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => ms,
            _ => return Err(format!("--interval needs positive milliseconds, got `{v}`")),
        },
        None => default_interval_ms,
    };
    let frames = match take_value(args, "--frames")? {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--frames needs a positive frame count, got `{v}`")),
        },
        None => u64::MAX,
    };
    Ok((Duration::from_millis(interval_ms), frames))
}

/// Prints the session telemetry summary and writes the per-run CSV.
fn finish_telemetry(session: &SimSession, out_dir: &Path) {
    eprint!("{}", session.telemetry().snapshot().summary());
    let telemetry_csv = out_dir.join("run_telemetry.csv");
    match session.telemetry().write_csv(&telemetry_csv) {
        Ok(()) => eprintln!("telemetry → {}", telemetry_csv.display()),
        Err(e) => eprintln!("failed to write {}: {e}", telemetry_csv.display()),
    }
}

/// Implements `repro lint` (and `repro lint --calibrate`).
fn run_lint_command(mut args: Vec<String>) -> ExitCode {
    let take_flag = |args: &mut Vec<String>, flag: &str| -> bool {
        if let Some(i) = args.iter().position(|a| a == flag) {
            args.remove(i);
            true
        } else {
            false
        }
    };
    let take_value = |args: &mut Vec<String>, flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs an argument"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    let all = take_flag(&mut args, "--all");
    let json = take_flag(&mut args, "--json");
    let deny_warnings = take_flag(&mut args, "--deny-warnings");
    let calibrate = take_flag(&mut args, "--calibrate");
    let mut design = Design::Baseline;
    match take_value(&mut args, "--design") {
        Ok(Some(label)) => match trace::parse_design(&label) {
            Some(d) => design = d,
            None => {
                eprintln!("unknown design `{label}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let mut window: u32 = 2048;
    match take_value(&mut args, "--window") {
        Ok(Some(w)) => match w.parse::<u32>() {
            Ok(w) if w > 0 => window = w,
            _ => {
                eprintln!("--window needs a positive cycle count, got `{w}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    if calibrate {
        let names: Vec<&str> = if args.is_empty() {
            lint::CALIBRATION_APPS.to_vec()
        } else {
            args.iter().map(String::as_str).collect()
        };
        for name in &names {
            if trace::resolve_target(name).is_none() {
                eprintln!("unknown calibration app `{name}`");
                return ExitCode::FAILURE;
            }
        }
        let report = lint::calibrate(&names, window);
        if json {
            println!("{}", report.to_json().render());
        } else {
            print!("{}", report.render());
        }
        return ExitCode::SUCCESS;
    }

    let apps: Vec<subcore_isa::App> = if all {
        if !args.is_empty() {
            eprintln!("--all lints the whole registry; drop the app arguments: {args:?}");
            return ExitCode::FAILURE;
        }
        subcore_workloads::all_apps()
    } else {
        if args.is_empty() {
            eprintln!("usage: repro lint <app>... | --all [--design D] [--json] [--deny-warnings]");
            return ExitCode::FAILURE;
        }
        let mut apps = Vec::new();
        for name in &args {
            let Some(app) = trace::resolve_target(name) else {
                eprintln!(
                    "unknown lint target `{name}` (use a registry app name, `fma`, `fig3`, or `fig8`)"
                );
                return ExitCode::FAILURE;
            };
            apps.push(app);
        }
        apps
    };

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
    if totals.passes(deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves positional app arguments (or `--all` → the whole registry)
/// the way `lint`/`estimate`/`opt` share: registry names plus the `fma`/
/// `fig3`/`fig8` synthetic targets.
fn resolve_apps(all: bool, args: &[String], usage: &str) -> Result<Vec<subcore_isa::App>, String> {
    if all {
        if !args.is_empty() {
            return Err(format!(
                "--all covers the whole registry; drop the app arguments: {args:?}"
            ));
        }
        return Ok(subcore_workloads::all_apps());
    }
    if args.is_empty() {
        return Err(usage.to_owned());
    }
    let mut apps = Vec::new();
    for name in args {
        let Some(app) = trace::resolve_target(name) else {
            return Err(format!(
                "unknown target `{name}` (use a registry app name, `fma`, `fig3`, or `fig8`)"
            ));
        };
        apps.push(app);
    }
    Ok(apps)
}

/// Implements `repro estimate` (and `repro estimate --calibrate`).
fn run_estimate_command(mut args: Vec<String>, out_dir: &Path) -> ExitCode {
    let take_flag = |args: &mut Vec<String>, flag: &str| -> bool {
        if let Some(i) = args.iter().position(|a| a == flag) {
            args.remove(i);
            true
        } else {
            false
        }
    };
    let take_value = |args: &mut Vec<String>, flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs an argument"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    let all = take_flag(&mut args, "--all");
    let json = take_flag(&mut args, "--json");
    let calibrate = take_flag(&mut args, "--calibrate");
    let mut design = Design::Baseline;
    match take_value(&mut args, "--design") {
        Ok(Some(label)) => match trace::parse_design(&label) {
            Some(d) => design = d,
            None => {
                eprintln!("unknown design `{label}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    if calibrate {
        if !args.is_empty() {
            eprintln!("estimate --calibrate sweeps the whole registry; got: {args:?}");
            return ExitCode::FAILURE;
        }
        let report = estimate::calibrate(subcore_experiments::session());
        let artifact = out_dir.join("estimate_calibration.json");
        if let Some(dir) = artifact.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        match std::fs::write(&artifact, report.to_json().render()) {
            Ok(()) => eprintln!("calibration → {}", artifact.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", artifact.display());
                return ExitCode::FAILURE;
            }
        }
        if json {
            println!("{}", report.to_json().render());
        } else {
            print!("{}", report.render());
        }
        return if report.passes() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let apps = match resolve_apps(
        all,
        &args,
        "usage: repro estimate <app>... | --all | --calibrate [--design D] [--json]",
    ) {
        Ok(apps) => apps,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports_json = Vec::new();
    for app in &apps {
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
    ExitCode::SUCCESS
}

/// Implements `repro opt`: the conflict-free register remapper's
/// per-kernel evidence (the fix `lint`'s L036 advisory names).
fn run_opt_command(mut args: Vec<String>) -> ExitCode {
    let all = if let Some(i) = args.iter().position(|a| a == "--all") {
        args.remove(i);
        true
    } else {
        false
    };
    let apps = match resolve_apps(all, &args, "usage: repro opt <app>... | --all") {
        Ok(apps) => apps,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for app in &apps {
        print!("{}", estimate::render_remap(app));
    }
    ExitCode::SUCCESS
}

/// Implements `repro trace` and `repro trace-diff`.
fn run_trace_command(cmd: &str, mut args: Vec<String>, out_dir: &Path) -> ExitCode {
    let mut window: u32 = 1024;
    let mut events: Option<u64> = None;
    let mut designs: Vec<String> = Vec::new();
    let take_value = |args: &mut Vec<String>, flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs an argument"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    loop {
        match take_value(&mut args, "--design") {
            Ok(Some(d)) => designs.push(d),
            Ok(None) => break,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match take_value(&mut args, "--window") {
        Ok(Some(w)) => match w.parse::<u32>() {
            Ok(w) if w > 0 => window = w,
            _ => {
                eprintln!("--window needs a positive cycle count, got `{w}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match take_value(&mut args, "--events") {
        Ok(Some(n)) => match n.parse::<u64>() {
            Ok(n) => events = Some(n),
            Err(_) => {
                eprintln!("--events needs an event count, got `{n}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let [target] = args.as_slice() else {
        eprintln!("usage: repro {cmd} <fig|app> [--design D]... [--window N] [--events LIMIT]");
        return ExitCode::FAILURE;
    };
    let Some(app) = trace::resolve_target(target) else {
        eprintln!(
            "unknown trace target `{target}` (use a registry app name, `fma`, `fig3`, or `fig8`)"
        );
        return ExitCode::FAILURE;
    };
    if designs.is_empty() {
        designs = match cmd {
            "trace-diff" => vec!["baseline".into(), "rba".into()],
            _ => vec!["baseline".into()],
        };
    }
    if cmd == "trace-diff" && designs.len() != 2 {
        eprintln!("trace-diff compares exactly two designs, got {}", designs.len());
        return ExitCode::FAILURE;
    }
    let mut parsed = Vec::new();
    for label in &designs {
        match trace::parse_design(label) {
            Some(d) => parsed.push(d),
            None => {
                eprintln!("unknown design `{label}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let base = match app.suite() {
        Suite::TpchUncompressed | Suite::TpchCompressed => tpch_base(),
        _ => suite_base(),
    };
    let traces_dir = out_dir.join("traces");
    let mut artifacts = Vec::new();
    for &design in &parsed {
        let art = trace::capture(&base, design, &app, window);
        print!("{}", art.summary());
        match art.save(&traces_dir) {
            Ok(path) => eprintln!("trace → {}", path.display()),
            Err(e) => {
                eprintln!("failed to write trace artifact: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(limit) = events {
            let out = traces_dir.join(format!(
                "{}.{}.w{window}.events.jsonl",
                app.name(),
                design.label()
            ));
            match trace::capture_events(&base, design, &app, window, limit, &out) {
                Ok(n) => eprintln!("{n} events → {}", out.display()),
                Err(e) => {
                    eprintln!("failed to write event trace: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        artifacts.push(art);
    }
    if cmd == "trace-diff" {
        let report = trace::diff_report(&artifacts[0], &artifacts[1]);
        print!("{report}");
        let path = traces_dir.join(format!(
            "{}.{}-vs-{}.w{window}.diff.txt",
            app.name(),
            artifacts[0].design,
            artifacts[1].design
        ));
        match std::fs::write(&path, report) {
            Ok(()) => eprintln!("diff → {}", path.display()),
            Err(e) => {
                eprintln!("failed to write diff report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
