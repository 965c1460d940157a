//! The two engine workloads: `simulate_app` / `simulate_tenants` called
//! directly (no session, no cache), pass after pass over a fixed case set.
//!
//! `engine_dense` and `engine_sparse` use the same entry points in opposite
//! ways. Dense cases (IPC 2.3–5.5, no memory traffic) keep every ready set
//! saturated, so issue/collector/arbiter scanning does all the work and
//! skip-ahead and `MemSystem` none. Sparse cases (≈130 k L1 misses or
//! heavy sub-core imbalance, IPC < 1) spend their time in `MemSystem`,
//! stall wake-ups and skip-ahead. A dense-scan speed-up that taxes the
//! ready-set path, or the reverse, shows as one workload up and the other
//! down.

use std::time::{Duration, Instant};

use subcore_engine::{
    simulate_app, simulate_app_reported, simulate_tenants, simulate_tenants_reported, EngineMode,
    EngineReport, GpuConfig, RunStats, SmSet, TenantRun,
};
use subcore_isa::App;
use subcore_sched::Design;
use subcore_workloads::{app_by_name, fma_unbalanced_scaled, tenant_mix_by_name};

use crate::golden::Golden;
use crate::hostref::{self, RefKernel};
use crate::report::{Metric, Outcome};
use crate::stats::{self, XorShift};
use crate::trace::Tracer;
use crate::Ctx;

/// The configuration every engine case runs on (the same one
/// `results/BENCH_engine.json` history was recorded with).
pub fn base_config() -> GpuConfig {
    GpuConfig::volta_v100().with_sms(2).with_max_cycles(20_000_000)
}

/// What a case simulates.
pub enum Input {
    App(App),
    /// Tenants co-scheduled on disjoint SM partitions (`simulate_tenants`,
    /// the multi-lane dispatch path).
    Tenants(Vec<TenantRun>),
}

/// One simulation of the case set.
pub struct Case {
    pub label: String,
    pub input: Input,
    pub design: Design,
}

fn app_cases(apps: &[App], designs: &[Design]) -> Vec<Case> {
    apps.iter()
        .flat_map(|app| {
            designs.iter().map(move |&design| Case {
                label: format!("{}/{}", app.name(), design.label()),
                input: Input::App(app.clone()),
                design,
            })
        })
        .collect()
}

fn registry(names: &[&str]) -> Result<Vec<App>, String> {
    names.iter().map(|n| app_by_name(n).ok_or(format!("no registry app `{n}`"))).collect()
}

/// `micro-skewed` under a rigid split: one SM per tenant.
fn skewed_tenants_case() -> Result<Case, String> {
    let mix = tenant_mix_by_name("micro-skewed").ok_or("no tenant mix `micro-skewed`")?;
    let runs = mix
        .tenants
        .into_iter()
        .zip(0u32..)
        .map(|(spec, sm)| TenantRun { spec, sm_set: SmSet::contiguous(sm, 1) })
        .collect();
    Ok(Case {
        label: "tenants:micro-skewed/baseline".to_owned(),
        input: Input::Tenants(runs),
        design: Design::Baseline,
    })
}

/// The case set of an engine workload.
pub fn cases(workload: &str) -> Result<Vec<Case>, String> {
    match workload {
        "engine_dense" => Ok(app_cases(
            &registry(&[
                "pb-sgemm",
                "rod-bp",
                "db-rnn-tr",
                "rod-heartwall",
                "rod-lavaMD",
                "pb-mriq",
            ])?,
            &[Design::Baseline, Design::Rba],
        )),
        "engine_sparse" => {
            let mut apps = registry(&["pb-spmv", "rod-btree", "rod-bfs"])?;
            apps.extend([
                fma_unbalanced_scaled(4, 512, 12),
                fma_unbalanced_scaled(4, 512, 32),
                fma_unbalanced_scaled(2, 256, 48),
            ]);
            let mut cases = app_cases(&apps, &[Design::Baseline, Design::ShuffleRba]);
            cases.push(skewed_tenants_case()?);
            Ok(cases)
        }
        // The engine-layer probe of the workloads that reach the engine
        // only through `repro`: one dense, one memory-bound, one imbalanced
        // case, small enough to run under every variant in a few seconds.
        "engine_probe" => {
            let mut cases = app_cases(&registry(&["pb-mriq"])?, &[Design::Rba]);
            cases.extend(app_cases(&registry(&["rod-bfs"])?, &[Design::ShuffleRba]));
            cases.extend(app_cases(&[fma_unbalanced_scaled(2, 256, 48)], &[Design::Baseline]));
            Ok(cases)
        }
        other => Err(format!("`{other}` is not an engine case set")),
    }
}

/// How a pass configures the engine. Everything except `Adaptive` exists
/// for the traced run's per-layer ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The shipping engine, as a user calls it.
    Adaptive,
    /// `EngineMode::Reference`, the polled executable spec.
    Reference,
    /// `StatsConfig.trace_window` on (the engine's own windowed probes).
    Windowed,
    /// `subcore_metrics::set_enabled(true)` around the pass.
    MetricsOn,
}

/// One case's result within a pass.
pub struct CaseRun {
    pub stats: RunStats,
    pub report: EngineReport,
    pub wall: Duration,
    /// Host speed by the two kernel samples around the case (1 for a case
    /// run outside a pass).
    pub speed: f64,
}

/// One pass: every case once, in `order`.
pub struct Pass {
    pub wall_s: f64,
    /// Indexed like the case set (not like `order`).
    pub runs: Vec<Result<CaseRun, String>>,
    /// Host-speed kernel samples, one before the first case and one after
    /// each (ms).
    pub ref_ms: Vec<f64>,
}

impl Pass {
    fn done(&self) -> impl Iterator<Item = &CaseRun> {
        self.runs.iter().flatten()
    }

    pub fn sim_cycles(&self) -> u64 {
        self.done().map(|r| r.stats.cycles).sum()
    }
}

fn run_case(case: &Case, variant: Variant, reported: bool) -> Result<CaseRun, String> {
    let mut base = base_config();
    match variant {
        Variant::Reference => base = base.with_engine_mode(EngineMode::Reference),
        Variant::Windowed => base.stats.trace_window = 1024,
        Variant::Adaptive | Variant::MetricsOn => {}
    }
    let cfg = case.design.config(&base);
    let policies = case.design.policies();
    let plain = EngineReport { mode: cfg.engine_mode, adaptive_windows: 0, adaptive_fallbacks: 0 };
    let t0 = Instant::now();
    let result = match (&case.input, reported) {
        (Input::App(app), false) => simulate_app(&cfg, &policies, app).map(|s| (s, plain)),
        (Input::App(app), true) => simulate_app_reported(&cfg, &policies, app),
        (Input::Tenants(t), false) => simulate_tenants(&cfg, &policies, t).map(|s| (s, plain)),
        (Input::Tenants(t), true) => simulate_tenants_reported(&cfg, &policies, t),
    };
    let wall = t0.elapsed();
    let (stats, report) = result.map_err(|e| format!("{}: {e}", case.label))?;
    Ok(CaseRun { stats: std::hint::black_box(stats), report, wall, speed: 1.0 })
}

/// What runs passes: the case set, the span recorder, and the host-speed
/// kernel that is sampled before every case.
pub struct Runner<'a> {
    pub cases: &'a [Case],
    pub tracer: &'a Tracer,
    pub kernel: RefKernel,
}

impl Runner<'_> {
    /// Runs one pass. `reported` switches to the `_reported` entry points
    /// (same statistics, plus the adaptive controller's window counts).
    /// `wall_s` is the pass's wall less the kernel samples between cases.
    pub fn pass(
        &mut self,
        order: &[usize],
        variant: Variant,
        reported: bool,
        spans: bool,
        pass_id: u64,
    ) -> Pass {
        subcore_metrics::set_enabled(variant == Variant::MetricsOn);
        let mut runs: Vec<_> = self.cases.iter().map(|_| None).collect();
        let mut ref_ms = vec![self.kernel.sample()];
        let t0 = Instant::now();
        let span = self.tracer.begin(spans, "pass", pass_id, None);
        for &i in order {
            let case = &self.cases[i];
            let mut run =
                self.tracer.child("case", pass_id, span, || run_case(case, variant, reported));
            let before = ref_ms[ref_ms.len() - 1];
            ref_ms.push(self.kernel.sample());
            if let Ok(run) = &mut run {
                run.speed = hostref::speed(&[before, ref_ms[ref_ms.len() - 1]]);
            }
            runs[i] = Some(run);
        }
        self.tracer.end(span);
        let wall_s = t0.elapsed().as_secs_f64() - ref_ms[1..].iter().sum::<f64>() / 1e3;
        subcore_metrics::set_enabled(false);
        let runs =
            runs.into_iter().map(|r| r.expect("`order` is a permutation of the cases")).collect();
        Pass { wall_s, runs, ref_ms }
    }
}

/// Checks a pass against the golden counts; every case is one attempted
/// operation.
fn check_pass(pass: &Pass, cases: &[Case], golden: &Golden, out: &mut Outcome) {
    for (case, run) in cases.iter().zip(&pass.runs) {
        match run {
            Ok(r) => {
                let got = (r.stats.cycles, r.stats.instructions, r.stats.rf_reads);
                let want = golden.engine_case(&case.label);
                out.check(want == Some(got), || {
                    format!("{}: (cycles, instrs, rf_reads) {got:?}, golden {want:?}", case.label)
                });
            }
            Err(e) => out.check(false, || e.clone()),
        }
    }
}

/// State built by set-up: the case set and the golden counts.
pub struct Ready {
    pub cases: Vec<Case>,
    pub golden: Golden,
}

pub fn setup(ctx: &Ctx, workload: &str) -> Result<Ready, String> {
    Ok(Ready { cases: cases(workload)?, golden: Golden::load(&ctx.root)? })
}

impl Ready {
    fn runner<'a>(&'a self, ctx: &'a Ctx) -> Runner<'a> {
        Runner { cases: &self.cases, tracer: &ctx.tracer, kernel: RefKernel::new() }
    }
}

/// What the traced run learns about the engine layer from one case set.
#[derive(Default)]
pub struct Variants {
    pub adaptive: Vec<Pass>,
    pub reference: Vec<Pass>,
    pub windowed: Vec<Pass>,
    pub metrics_on: Vec<Pass>,
    /// Walls of adaptive passes recorded with harness spans on / off.
    pub traced_walls: Vec<f64>,
    pub untraced_walls: Vec<f64>,
}

/// Runs rounds of {adaptive with spans, adaptive without (reported),
/// reference, windowed, metrics-on} until `until`; at least one round.
pub fn run_variants(ctx: &Ctx, ready: &Ready, until: Instant, out: &mut Outcome) -> Variants {
    let mut v = Variants::default();
    let mut runner = ready.runner(ctx);
    let mut rng = XorShift::new(ctx.seed);
    let mut order: Vec<usize> = (0..ready.cases.len()).collect();
    let mut pass_id = 0u64;
    let mut round_s = 0.0f64;
    while v.adaptive.is_empty() || Instant::now() + Duration::from_secs_f64(round_s) <= until {
        let t0 = Instant::now();
        for (variant, spans) in [
            (Variant::Adaptive, true),
            (Variant::Adaptive, false),
            (Variant::Reference, false),
            (Variant::Windowed, false),
            (Variant::MetricsOn, false),
        ] {
            rng.shuffle(&mut order);
            pass_id += 1;
            let reported = variant == Variant::Adaptive && !spans;
            let pass = runner.pass(&order, variant, reported, spans, pass_id);
            // The windowed series is extra output; every count must still
            // match, so all variants face the same golden check.
            check_pass(&pass, &ready.cases, &ready.golden, out);
            match variant {
                Variant::Adaptive => {
                    if spans { &mut v.traced_walls } else { &mut v.untraced_walls }
                        .push(pass.wall_s);
                    v.adaptive.push(pass);
                }
                Variant::Reference => v.reference.push(pass),
                Variant::Windowed => v.windowed.push(pass),
                Variant::MetricsOn => v.metrics_on.push(pass),
            }
        }
        round_s = t0.elapsed().as_secs_f64();
    }
    v
}

/// Median over `passes` of `of(run)` per case, indexed like the case set.
fn case_medians(passes: &[Pass], n_cases: usize, of: impl Fn(&CaseRun) -> f64) -> Vec<f64> {
    (0..n_cases)
        .map(|i| {
            let values: Vec<f64> =
                passes.iter().filter_map(|p| p.runs[i].as_ref().ok()).map(&of).collect();
            if values.is_empty() {
                f64::NAN
            } else {
                stats::median(&values)
            }
        })
        .collect()
}

fn wall_s(run: &CaseRun) -> f64 {
    run.wall.as_secs_f64()
}

/// Geomean over cases of `numerator` ÷ `denominator` median case walls.
fn case_ratio(numerator: &[Pass], denominator: &[Pass], n_cases: usize) -> f64 {
    let num = case_medians(numerator, n_cases, wall_s);
    let den = case_medians(denominator, n_cases, wall_s);
    stats::geomean(&num.iter().zip(&den).map(|(a, b)| a / b).collect::<Vec<_>>())
}

/// `engine.tenants_ns_per_sm_cycle`: `simulate_tenants` on the two-tenant
/// `micro-skewed` mix, five times; wall nanoseconds per SM-cycle.
pub fn tenants_probe() -> Result<Vec<f64>, String> {
    let case = skewed_tenants_case()?;
    let sms = f64::from(base_config().num_sms);
    (0..5)
        .map(|_| {
            let run = run_case(&case, Variant::Adaptive, false)?;
            Ok(run.wall.as_nanos() as f64 / (run.stats.cycles as f64 * sms))
        })
        .collect()
}

/// What the engine layer did in one adaptive pass, for `mem.est_share`.
pub struct MemLoad {
    /// Global-memory accesses (L1 hits + misses) per pass.
    pub accesses: u64,
    pub pass_wall_s: f64,
}

/// The engine-layer metrics of a traced run (`engine.*`,
/// `metrics.gate_on_ratio`), measured on `ready`'s cases.
pub fn layer_metrics(v: &Variants, ready: &Ready, out: &mut Outcome) -> MemLoad {
    let n = ready.cases.len();
    let first = &v.adaptive[0];
    let sm_cycles = first.sim_cycles() as f64 * f64::from(base_config().num_sms);
    let instrs: u64 = first.done().map(|r| r.stats.instructions).sum();
    let rf_reads: u64 = first.done().map(|r| r.stats.rf_reads).sum();
    let speed = host_speed(&v.adaptive);
    out.push(Metric::value("host.speed", "ratio", speed));
    let walls_ns: Vec<f64> = v.adaptive.iter().map(|p| p.wall_s * speed * 1e9).collect();
    let per = |unit_count: f64| walls_ns.iter().map(|w| w / unit_count).collect::<Vec<_>>();
    out.push(Metric::median("engine.ns_per_sm_cycle", "ns", &per(sm_cycles)));
    out.push(Metric::median("engine.ns_per_warp_instr", "ns", &per(instrs as f64)));
    out.push(Metric::value("engine.sim_cycles", "count", first.sim_cycles() as f64));
    out.push(Metric::value("engine.warp_instrs", "count", instrs as f64));
    out.push(Metric::value("engine.rf_reads", "count", rf_reads as f64));
    let ratio = |name: &str, passes: &[Pass]| Metric {
        n: passes.len(),
        ..Metric::value(name, "ratio", case_ratio(passes, &v.adaptive, n))
    };
    out.push(ratio("engine.reference_ratio", &v.reference));
    out.push(ratio("engine.windowed_trace_ratio", &v.windowed));
    out.push(ratio("metrics.gate_on_ratio", &v.metrics_on));
    let (windows, fallbacks) =
        v.adaptive.iter().flat_map(Pass::done).fold((0, 0), |(w, f), r| {
            (w + r.report.adaptive_windows, f + r.report.adaptive_fallbacks)
        });
    let share = fallbacks as f64 / windows.max(1) as f64;
    out.push(Metric::value("engine.adaptive_fallback_share", "share", share));
    // Whole-`RunStats` equality of reference and metrics-on runs with the
    // adaptive ones (the windowed runs carry an extra series by design).
    let mismatches = v
        .reference
        .iter()
        .chain(&v.metrics_on)
        .flat_map(|p| p.runs.iter().zip(&first.runs))
        .filter(|(a, b)| match (a, b) {
            (Ok(a), Ok(b)) => a.stats != b.stats,
            _ => true,
        })
        .count();
    out.push(Metric::value("engine.mode_parity_mismatches", "count", mismatches as f64));
    MemLoad {
        accesses: first.done().map(|r| r.stats.mem.l1_hits + r.stats.mem.l1_misses).sum(),
        pass_wall_s: stats::median(&v.adaptive.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    }
}

/// `trace.overhead_pct`: median wall of operations recorded with spans on
/// over the median with spans off, minus one, in percent.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> Metric {
    let pct = (stats::median(traced) / stats::median(untraced) - 1.0) * 100.0;
    Metric { n: traced.len() + untraced.len(), ..Metric::value("trace.overhead_pct", "%", pct) }
}

/// An engine workload. Untraced: adaptive passes until the budget ends.
/// Traced: rounds of every variant over the same cases, which also yields
/// the engine-layer metrics (returned load feeds `mem.est_share`).
pub fn run(ctx: &Ctx, ready: &Ready, out: &mut Outcome) -> Option<MemLoad> {
    if ctx.traced {
        let v = run_variants(ctx, ready, ctx.phase_end(OWN_SHARE_TRACED), out);
        push_end_to_end(&v.adaptive, out);
        out.push(overhead_pct(&v.traced_walls, &v.untraced_walls));
        return Some(layer_metrics(&v, ready, out));
    }
    let mut runner = ready.runner(ctx);
    let mut rng = XorShift::new(ctx.seed);
    let mut order: Vec<usize> = (0..ready.cases.len()).collect();
    let mut passes: Vec<Pass> = Vec::new();
    let until = ctx.phase_end(1.0);
    // Stop when the next pass would end past the budget, but never before
    // three passes (a median needs them) unless the wall-clock cap hits.
    loop {
        let next = Duration::from_secs_f64(passes.last().map_or(0.0, |p| p.wall_s));
        if passes.len() >= 3 && Instant::now() + next > until {
            break;
        }
        if ctx.time_left().is_zero() {
            out.check(false, || "wall-clock cap reached before three passes".to_owned());
            break;
        }
        rng.shuffle(&mut order);
        let pass = runner.pass(&order, Variant::Adaptive, false, false, 0);
        check_pass(&pass, &ready.cases, &ready.golden, out);
        passes.push(pass);
    }
    push_end_to_end(&passes, out);
    None
}

/// Share of a traced run's budget the workload's own phases get; the rest
/// pays for the layer probes that follow.
pub const OWN_SHARE_TRACED: f64 = 0.6;

/// Host speed over `passes`, from the kernel samples taken between their
/// cases (see [`hostref`]).
pub fn host_speed(passes: &[Pass]) -> f64 {
    hostref::speed(&passes.iter().flat_map(|p| p.ref_ms.iter().copied()).collect::<Vec<_>>())
}

/// `sim_mcycles_per_s` and `op_ms` from adaptive passes, at reference
/// host speed, with the raw wall figures (`*_wall`) and the speed beside
/// them. An operation is one case's simulation; each case's latency is its
/// median over the passes, and the pass the throughput divides by is the
/// sum of those medians. A burst of interference then spoils one sample of
/// one case, not a whole pass: across repeated runs on the builder's
/// sandbox this summary moved least (medians beat minima and lower
/// quartiles, which chase the luckiest window). Each sample is put at
/// reference speed by the kernel samples around its own case, because the
/// host changes speed within a run; one speed for the whole run spread the
/// results of twelve runs by 9.8 % (dense) and 6.0 % (sparse), this by
/// 7.9 % and 4.3 %, the raw wall by 17 % and 25 %.
fn push_end_to_end(passes: &[Pass], out: &mut Outcome) {
    let n_cases = passes[0].runs.len();
    let mcycles = passes[0].sim_cycles() as f64 / 1e6;
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let case_ms: Vec<f64> = passes.iter().flat_map(Pass::done).map(|r| wall_s(r) * 1e3).collect();
    let mut push = |suffix: &str, medians: Vec<f64>| {
        let rate = mcycles / medians.iter().sum::<f64>();
        let op_ms = stats::median(&medians) * 1e3;
        let name = format!("sim_mcycles_per_s{suffix}");
        out.push(Metric::estimate(&name, "Mcycles/s", rate, &pass_walls));
        out.push(Metric::estimate(&format!("op_ms{suffix}"), "ms", op_ms, &case_ms));
    };
    push("", case_medians(passes, n_cases, |r| wall_s(r) * r.speed));
    push("_wall", case_medians(passes, n_cases, wall_s));
    out.push(Metric::value("host_speed", "ratio", host_speed(passes)));
}
