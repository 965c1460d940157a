//! Per-layer probes of the traced run: every call the benchmark makes into
//! a layer's public functions — beyond the end-to-end binding surface —
//! lives in this file, so a refactor that restructures a layer has one
//! place to keep compiling. Each probe times a layer from outside; nothing
//! under `crates/` is instrumented.
//!
//! Probe inputs are generated from `--seed`. A probe reports the median of
//! repeated batches; the counts are fixed, so the work is the same on
//! every commit.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use subcore_engine::{
    simulate_app, GtoSelector, IssueCandidate, IssueView, RunStats, SubcoreAssigner, WarpSelector,
};
use subcore_experiments::cache::DiskCache;
use subcore_experiments::journal::Journal;
use subcore_experiments::supervisor::{supervise_map, JobTag, SupervisorPolicy};
use subcore_experiments::{suite_base, SessionOptions, SimExecutor, SimKey, SimSession};
use subcore_isa::{App, MemPattern, Pipeline, ProgramBuilder, Reg};
use subcore_mem::{coalesce, MemConfig, MemSystem, StreamCtx};
use subcore_opt::estimate_app;
use subcore_persist::{Json, JsonCodec};
use subcore_sched::{Design, RbaSelector, ShuffleAssigner};
use subcore_serve::{DurableQueue, Executor, JobRecord, JobSpec, JobState};
use subcore_workloads::{all_apps, fma_unbalanced_scaled, sensitive_apps};

use crate::engine::{self, MemLoad};
use crate::proc::TempDir;
use crate::report::{Metric, Outcome};
use crate::stats::XorShift;
use crate::{serve, sweep, Ctx};

const BATCHES: usize = 15;

/// Times `BATCHES` batches of `calls` invocations of `f`; one per-call
/// sample (in `unit_ns`-sized units) per batch.
fn time_batches(calls: usize, unit_ns: f64, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64 / unit_ns
        })
        .collect()
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

/// `crates/mem`: a miss-path access, an L1-hit access, one coalescer call.
fn mem(seed: u64, out: &mut Outcome) {
    let mut rng = XorShift::new(seed);
    let mut sys = MemSystem::new(MemConfig::volta_like(), 2);
    let mut now = 0u64;
    // Fresh lines spread over 2^32: practically every access misses L1 and L2.
    let miss = time_batches(4000, NS, |i| {
        now += 1;
        black_box(sys.access_global(i % 2, now, &[rng.next_u64() >> 32], false));
    });
    out.push(Metric::median("mem.global_miss_ns", "ns", &miss));
    let hot: Vec<u64> = (0..32).map(|_| rng.next_u64() >> 32).collect();
    for line in &hot {
        sys.access_global(0, now, &[*line], false);
    }
    let hit = time_batches(4000, NS, |i| {
        now += 1;
        black_box(sys.access_global(0, now, &[hot[i % hot.len()]], false));
    });
    out.push(Metric::median("mem.l1_hit_ns", "ns", &hit));
    let mut lines = Vec::with_capacity(64);
    let stream_id = rng.below(256);
    let co = time_batches(4000, NS, |i| {
        lines.clear();
        let ctx = StreamCtx { stream_id, dynamic_index: i as u64 };
        black_box(coalesce(MemPattern::Strided { region: 1, stride: 32 }, ctx, 128, &mut lines));
    });
    out.push(Metric::median("mem.coalesce_ns", "ns", &co));
}

/// `crates/core` + `crates/isa` + `crates/workloads`: warp selection over a
/// 16-candidate ready set, block assignment, instruction-cursor replay,
/// and building the 112-app registry.
fn sched_isa_workloads(seed: u64, out: &mut Outcome) {
    let mut rng = XorShift::new(seed);
    let candidates: Vec<IssueCandidate> = (0..16u32)
        .map(|i| IssueCandidate {
            warp_slot: i,
            age: rng.below(1 << 20),
            num_srcs: 3,
            banks: [rng.below(2) as u8, rng.below(2) as u8, rng.below(2) as u8],
            pipeline: Pipeline::Fma,
        })
        .collect();
    let lens = [rng.below(4) as u16, rng.below(4) as u16];
    let view = || IssueView { candidates: &candidates, bank_queue_lens: &lens, last_issued: None };
    let mut gto = GtoSelector::new();
    let mut rba = RbaSelector::new();
    let g = time_batches(20_000, NS, |_| {
        black_box(gto.select(&view()));
    });
    let r = time_batches(20_000, NS, |_| {
        black_box(rba.select(&view()));
    });
    out.push(Metric::median("sched.gto_select_ns", "ns", &g));
    out.push(Metric::median("sched.rba_select_ns", "ns", &r));
    let mut assigner = ShuffleAssigner::with_seed(seed);
    let a = time_batches(20_000, NS, |_| {
        black_box(assigner.assign_block(16, 4));
    });
    out.push(Metric::median("sched.assign_ns", "ns", &a));

    let program = ProgramBuilder::new()
        .repeat(4096, |b| {
            b.fma(Reg(0), Reg(0), Reg(1), Reg(2));
        })
        .build();
    let c = time_batches(4, NS, |_| {
        let mut cursor = program.cursor();
        while let Some(instr) = cursor.next_instruction() {
            black_box(instr);
        }
    });
    let per_instr: Vec<f64> = c.iter().map(|ns| ns / 4097.0).collect();
    out.push(Metric::median("isa.cursor_ns_per_instr", "ns", &per_instr));

    let build: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(all_apps());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(Metric::median("workloads.registry_build_ms", "ms", &build));
}

/// The (app, design) cells of `repro fig10`, in a seeded order.
fn fig10_cells(seed: u64) -> Vec<(App, Design)> {
    let mut cells: Vec<(App, Design)> = sensitive_apps()
        .into_iter()
        .flat_map(|app| {
            std::iter::once(Design::Baseline)
                .chain(Design::FIGURE10)
                .map(move |design| (app.clone(), design))
        })
        .collect();
    XorShift::new(seed).shuffle(&mut cells);
    cells
}

fn time_once<T>(unit_ns: f64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_nanos() as f64 / unit_ns)
}

/// `crates/persist` + `crates/opt`: fingerprinting and static prediction
/// per fig10 cell (one sample per cell), and the `RunStats` codec.
fn persist_opt(seed: u64, sample: &RunStats, out: &mut Outcome) {
    let base = suite_base();
    let cells = fig10_cells(seed);
    let fp: Vec<f64> = cells
        .iter()
        .map(|(app, d)| time_once(US, || black_box(SimKey::compute(&base, *d, app))).1)
        .collect();
    out.push(Metric::median("persist.fingerprint_us", "us", &fp));
    let predict: Vec<f64> = cells
        .iter()
        .map(|(app, d)| time_once(US, || black_box(estimate_app(app, &base, *d))).1)
        .collect();
    out.push(Metric::median("opt.predict_us", "us", &predict));
    let text = sample.to_json().render();
    let enc = time_batches(50, US, |_| {
        black_box(sample.to_json().render());
    });
    let dec = time_batches(50, US, |_| {
        black_box(
            Json::parse(&text).and_then(|j| RunStats::from_json(&j)).expect("own encoding decodes"),
        );
    });
    out.push(Metric::median("persist.stats_encode_us", "us", &enc));
    out.push(Metric::median("persist.stats_decode_us", "us", &dec));
}

/// `crates/metrics`: one by-name counter increment with the gate off.
fn metrics_gate(out: &mut Outcome) {
    subcore_metrics::set_enabled(false);
    let inc = time_batches(100_000, NS, |_| subcore_metrics::inc(black_box("bench.counter")));
    out.push(Metric::median("metrics.disabled_inc_ns", "ns", &inc));
}

/// The small job the session, cache, journal and queue probes move around
/// (~1 ms of simulation, so layer costs are not lost in engine noise).
fn small_app(salt: u32) -> App {
    fma_unbalanced_scaled(2, 16, 4 + salt)
}

/// `crates/experiments`: `SimSession` (memo hit, disk hit, cold overhead
/// over a raw `simulate_app`), `DiskCache`, `Journal`, and `supervise_map`.
fn experiments(ctx: &Ctx, sample: &RunStats, out: &mut Outcome) -> Result<(), String> {
    let dir = TempDir::new(&ctx.root, "layers").map_err(|e| format!("scratch dir: {e}"))?;
    let base = engine::base_config();
    let design = Design::Baseline;
    let salt = (ctx.seed % 64) as u32;

    let memo = SimSession::in_memory();
    let app = small_app(salt);
    memo.try_run(&base, design, &app).map_err(|e| e.to_string())?;
    let memo_hit = time_batches(200, US, |_| {
        black_box(memo.try_run(&base, design, &app).is_ok());
    });
    out.push(Metric::median("session.memo_hit_us", "us", &memo_hit));

    // Cold overhead and disk hit: per sample a distinct app, run raw, then
    // through a fresh disk-backed session (cold: simulates and stores),
    // then through a second fresh session over the same directory (hit).
    let cache_dir = dir.path().join("simcache");
    let opts = || SessionOptions { disk_cache: Some(cache_dir.clone()) };
    let (mut overhead, mut disk_hit) = (Vec::new(), Vec::new());
    for i in 0..BATCHES as u32 {
        let app = small_app(salt + 64 * (i + 1));
        let cfg = design.config(&base);
        let (_, raw) = time_once(US, || black_box(simulate_app(&cfg, &design.policies(), &app)));
        let cold = SimSession::new(opts());
        let (r, via) = time_once(US, || black_box(cold.try_run(&base, design, &app)));
        r.map_err(|e| e.to_string())?;
        overhead.push(via - raw);
        let warm = SimSession::new(opts());
        let (r, hit) = time_once(US, || black_box(warm.try_run(&base, design, &app)));
        r.map_err(|e| e.to_string())?;
        disk_hit.push(hit);
    }
    out.push(Metric::median("session.cold_overhead_us", "us", &overhead));
    out.push(Metric::median("session.disk_hit_us", "us", &disk_hit));

    let cache = DiskCache::new(dir.path().join("cache"));
    let store = time_batches(20, US, |i| {
        black_box(cache.store(SimKey::from_raw(i as u64), sample));
    });
    let load = time_batches(20, US, |i| {
        black_box(cache.load(SimKey::from_raw(i as u64)));
    });
    out.push(Metric::median("cache.store_us", "us", &store));
    out.push(Metric::median("cache.load_us", "us", &load));

    let journal = Journal::open(dir.path().join("journal"), "bench");
    let record = time_batches(20, US, |i| {
        black_box(journal.record_done(SimKey::from_raw(i as u64), "app", "baseline", sample));
    });
    let jload = time_batches(20, US, |i| {
        black_box(journal.load(SimKey::from_raw(i as u64)));
    });
    out.push(Metric::median("journal.record_us", "us", &record));
    out.push(Metric::median("journal.load_us", "us", &jload));

    let policy = SupervisorPolicy::default();
    let noop = |n: usize| {
        let items = vec![(); n];
        let tags = (0..n).map(|_| JobTag::default()).collect();
        black_box(supervise_map(&items, tags, |(), _| Ok(()), &policy).failed)
    };
    let many: Vec<f64> = (0..7).map(|_| time_once(US, || noop(64)).1 / 64.0).collect();
    let single: Vec<f64> = (0..BATCHES).map(|_| time_once(MS, || noop(1)).1).collect();
    out.push(Metric::median("supervisor.job_overhead_us", "us", &many));
    out.push(Metric::median("supervisor.single_job_floor_ms", "ms", &single));

    let queue = DurableQueue::new(dir.path().join("queue"));
    let persist = time_batches(20, US, |i| {
        let rec = JobRecord {
            id: i as u64,
            spec: JobSpec { app: "fma".into(), ..JobSpec::default() },
            key: i as u64,
            predicted_cycles: sample.cycles,
            budget_ms: 120_000,
            state: JobState::Done,
            attempts: 1,
            stats: Some(Box::new(sample.clone())),
            error: None,
        };
        black_box(queue.persist(&rec));
    });
    out.push(Metric::median("serve.queue_persist_us", "us", &persist));
    Ok(())
}

/// `serve.exec_inproc_ms`: the served job's spec through
/// `SimExecutor::execute` in this process — what the daemon's worker does,
/// without the daemon. Returns the median; the job must produce
/// `want_cycles`.
pub fn exec_inproc_ms(spec: &Json, want_cycles: u64, out: &mut Outcome) -> f64 {
    let spec = JobSpec::from_json(spec).expect("the harness's own spec decodes");
    let exec = SimExecutor::new(SessionOptions::default());
    let ms: Vec<f64> = (0..BATCHES as u64)
        .map(|i| {
            // A distinct cycle cap per call defeats the executor's memo.
            let unique = JobSpec { max_cycles: spec.max_cycles + (1 << 20) + i, ..spec.clone() };
            let (result, ms) = time_once(MS, || exec.execute(&unique));
            out.check(result.as_ref().is_ok_and(|s| s.cycles == want_cycles), || {
                format!("in-process job: {:?}, golden {want_cycles}", result.map(|s| s.cycles))
            });
            ms
        })
        .collect();
    let metric = Metric::median("serve.exec_inproc_ms", "ms", &ms);
    let median = metric.value;
    out.push(metric);
    median
}

/// `serve.recover_ms`: `DurableQueue::load` over the job records a drained
/// daemon left in `dir` — the cost of a restart.
pub fn queue_recover(dir: &Path, out: &mut Outcome) {
    let queue = DurableQueue::new(dir);
    let mut records = 0;
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let ((recs, report), ms) = time_once(MS, || queue.load());
            records = recs.len();
            out.check(report.skipped == 0, || {
                format!("{} unreadable queue records", report.skipped)
            });
            ms
        })
        .collect();
    out.push(Metric::median("serve.recover_ms", "ms", &ms));
    out.push(Metric::value("serve.recovered_records", "count", records as f64));
}

/// Everything a traced run measures besides the workload's own phases:
/// the in-process probes of every layer, and — for the layers `workload`
/// did not itself exercise — a small engine, sweep or serve session, so
/// that every per-layer metric is measured on every workload. `load` is
/// what the engine workload's own passes did (else the probe set's).
pub fn probe_all(ctx: &Ctx, workload: &str, load: Option<MemLoad>, out: &mut Outcome) {
    let load = load.or_else(|| {
        let ready = engine::setup(ctx, "engine_probe").map_err(|e| out.check(false, || e)).ok()?;
        let v = engine::run_variants(ctx, &ready, Instant::now(), out);
        Some(engine::layer_metrics(&v, &ready, out))
    });
    match engine::tenants_probe() {
        Ok(ns) => out.push(Metric::median("engine.tenants_ns_per_sm_cycle", "ns", &ns)),
        Err(e) => out.check(false, || e),
    }
    mem(ctx.seed, out);
    if let (Some(load), Some(miss)) = (load, out.get("mem.global_miss_ns").map(|m| m.value)) {
        // An estimate, not a measurement: every access priced as the probed
        // miss-path call, against the pass's wall.
        let share = load.accesses as f64 * miss / 1e9 / load.pass_wall_s;
        out.push(Metric::value("mem.est_share", "share", share));
    }
    sched_isa_workloads(ctx.seed, out);
    metrics_gate(out);
    let cfg = engine::base_config();
    match simulate_app(&cfg, &Design::Baseline.policies(), &small_app(0)) {
        Ok(sample) => {
            persist_opt(ctx.seed, &sample, out);
            if let Err(e) = experiments(ctx, &sample, out) {
                out.check(false, || format!("experiments probes: {e}"));
            }
        }
        Err(e) => out.check(false, || format!("probe sample simulation: {e}")),
    }
    if workload != "sweep_fig10" {
        sweep::probe(ctx, out);
    }
    if workload != "serve_closed" {
        serve::probe(ctx, out);
    }
}
