//! The simulation session: content-addressed memoization of
//! `(config, design, app)` runs.
//!
//! Experiments overlap heavily — every figure re-runs `Design::Baseline`
//! on the same apps, Fig. 10 repeats most of Fig. 9's points, the bank
//! ablation's `Banks(2)` *is* the baseline — so the harness routes every
//! simulation through one process-wide [`SimSession`]. The session
//! fingerprints each request into a [`SimKey`] and guarantees each unique
//! key simulates at most once per process (concurrent duplicates block on
//! the in-flight run instead of duplicating it). With a disk cache
//! attached ([`SessionOptions::disk_cache`]), results also persist across
//! processes under an engine-version stamp.
//!
//! The key is a *content* fingerprint, computed with
//! [`subcore_persist::stable_fingerprint`] over:
//!
//! - the design-final [`GpuConfig`] (i.e. after [`Design::config`] applies
//!   its transformation — two designs that derive the same config hash the
//!   same),
//! - the design's [`PolicyClass`](subcore_sched::PolicyClass) (its
//!   behavioural selector/assigner identity, not the enum variant — so
//!   e.g. `Banks(2)` and `Baseline` under a 2-bank base dedup), and
//! - the full [`App`] contents (kernels, programs, instructions).
//!
//! It is stable across processes and platforms, which is what makes the
//! on-disk cache sound.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::cache::DiskCache;
use crate::supervisor::SupervisorPolicy;
use crate::telemetry::{lock_recover, RunRecord, RunSource, Telemetry};
use subcore_engine::{simulate_app, GpuConfig, RunStats, SimError};
use subcore_isa::App;
use subcore_sched::Design;

/// Content fingerprint of one simulation request.
///
/// Displays (and names its cache files) as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimKey(u64);

impl SimKey {
    /// Fingerprints `(base, design, app)`. See the module docs for what
    /// the fingerprint covers.
    pub fn compute(base: &GpuConfig, design: Design, app: &App) -> SimKey {
        let cfg = design.config(base);
        SimKey(subcore_persist::stable_fingerprint(&(cfg, design.policy_class(), app)))
    }

    /// Wraps a raw fingerprint (for tests and cache tooling).
    pub fn from_raw(raw: u64) -> SimKey {
        SimKey(raw)
    }

    /// The raw 64-bit fingerprint.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SimKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Configuration for a [`SimSession`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Directory for the on-disk result cache; `None` keeps the session
    /// purely in-memory (the default, so tests and library users never
    /// touch the filesystem).
    pub disk_cache: Option<PathBuf>,
}

type MemoCell = Arc<OnceLock<Result<Arc<RunStats>, SimError>>>;

/// A memoizing simulation executor.
///
/// Cheap to share by reference; all methods take `&self` and are safe to
/// call from [`crate::supervisor::supervise_map`] workers.
#[derive(Debug)]
pub struct SimSession {
    memo: Mutex<HashMap<SimKey, MemoCell>>,
    disk: Option<DiskCache>,
    telemetry: Telemetry,
    // Static cost-model cycle predictions by key, registered before the
    // corresponding run so materialization can stamp predicted-vs-actual
    // error into the run's telemetry record.
    predictions: Mutex<HashMap<SimKey, u64>>,
}

impl SimSession {
    /// Builds a session with the given options.
    pub fn new(opts: SessionOptions) -> Self {
        SimSession {
            memo: Mutex::new(HashMap::new()),
            disk: opts.disk_cache.map(DiskCache::new),
            telemetry: Telemetry::default(),
            predictions: Mutex::new(HashMap::new()),
        }
    }

    /// A purely in-memory session (no disk cache).
    pub fn in_memory() -> Self {
        SimSession::new(SessionOptions::default())
    }

    /// The session's telemetry counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The session's disk cache, if one is attached.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The fingerprint [`SimSession::run`] would use for this request.
    pub fn key(&self, base: &GpuConfig, design: Design, app: &App) -> SimKey {
        SimKey::compute(base, design, app)
    }

    /// Registers a static cost-model cycle prediction for `key`. When the
    /// key later materializes (fresh simulation or disk load), its
    /// [`RunRecord`] carries the prediction and the derived
    /// predicted-vs-actual error — the calibration signal cost-aware
    /// scheduling is judged by. Re-registering overwrites.
    pub fn predict(&self, key: SimKey, cycles: u64) {
        lock_recover(&self.predictions).insert(key, cycles);
    }

    /// The registered prediction for `key`, if any.
    pub fn predicted(&self, key: SimKey) -> Option<u64> {
        lock_recover(&self.predictions).get(&key).copied()
    }

    /// Runs `app` under `design` applied to `base`, memoized by content
    /// fingerprint: the first request simulates (or loads from disk);
    /// every later — or concurrent — duplicate shares that result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors, naming the app and design (the
    /// registry workloads are all schedulable; an error here is a harness
    /// bug). Use [`SimSession::try_run`] to handle errors.
    pub fn run(&self, base: &GpuConfig, design: Design, app: &App) -> Arc<RunStats> {
        self.try_run(base, design, app).unwrap_or_else(|e| {
            panic!("simulating `{}` under design `{}` failed: {e}", app.name(), design.label())
        })
    }

    /// [`SimSession::run`], but surfacing simulation errors. Errors are
    /// memoized like successes: a failing key fails once and replays the
    /// same error thereafter.
    pub fn try_run(
        &self,
        base: &GpuConfig,
        design: Design,
        app: &App,
    ) -> Result<Arc<RunStats>, SimError> {
        let key = SimKey::compute(base, design, app);
        self.telemetry.note_run();
        let cell: MemoCell = {
            // Recover from poisoning: a panicking job dies while holding
            // this lock only between `lock` and the `Arc::clone` below, and
            // the map is valid at every point in between. Propagating the
            // poison would instead cascade one bad job's panic into every
            // later `run` on the session.
            let mut memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(memo.entry(key).or_default())
        };
        let mut materialized = false;
        // `get_or_init` runs the closure in exactly one caller; concurrent
        // duplicates block here until the winner finishes, then share its
        // result — in-flight dedup, not just after-the-fact.
        let result = cell.get_or_init(|| {
            materialized = true;
            self.materialize(key, base, design, app, self.predicted(key)).map(|(stats, record)| {
                self.telemetry.note_materialized(record);
                Arc::new(stats)
            })
        });
        if !materialized {
            self.telemetry.note_memo_hit();
        }
        result.clone()
    }

    /// [`SimSession::try_run`] for a caller that is its own memo (the serve
    /// daemon's job map): probes the disk cache, else simulates and writes
    /// back, counting the run like any other — but the session keeps
    /// nothing per key afterwards: no memo entry, no prediction, no
    /// [`RunRecord`]. The caller owns the only copy of the result.
    pub fn try_run_transient(
        &self,
        key: SimKey,
        base: &GpuConfig,
        design: Design,
        app: &App,
        predicted_cycles: Option<u64>,
    ) -> Result<RunStats, SimError> {
        self.telemetry.note_run();
        let (stats, record) = self.materialize(key, base, design, app, predicted_cycles)?;
        self.telemetry.count_materialized(&record);
        Ok(stats)
    }

    /// Per-key entries the session currently holds: memo cells,
    /// registered predictions and telemetry run records. Grows with every
    /// unique [`SimSession::try_run`]; [`SimSession::try_run_transient`]
    /// leaves it where it was.
    pub fn retained_entries(&self) -> usize {
        self.memo.lock().unwrap_or_else(|p| p.into_inner()).len()
            + lock_recover(&self.predictions).len()
            + self.telemetry.records().len()
    }

    /// Cache-misses only: probe the disk cache, else simulate (and
    /// write-back). Returns the result with the [`RunRecord`] describing
    /// how it materialized; the caller decides whether to keep either.
    fn materialize(
        &self,
        key: SimKey,
        base: &GpuConfig,
        design: Design,
        app: &App,
        predicted_cycles: Option<u64>,
    ) -> Result<(RunStats, RunRecord), SimError> {
        let t0 = Instant::now();
        // `cfg` is the configuration the result was (or, off disk, would
        // have been) produced under; the wall clock stops where this is
        // called.
        let record = |source: RunSource, cfg: &GpuConfig, cycles: u64| RunRecord {
            key: key.as_u64(),
            app: app.name().to_owned(),
            design: design.label(),
            source,
            traced: cfg.stats.trace_window > 0,
            wall: t0.elapsed(),
            cycles,
            engine_mode: cfg.engine_mode.tag(),
            predicted_cycles,
            tenant: None,
            deadline_slack: None,
            partition_sms: None,
        };
        if let Some(stats) = self.disk.as_ref().and_then(|d| d.load(key)) {
            let record = record(RunSource::Disk, base, stats.cycles);
            return Ok((stats, record));
        }
        let cfg = design.config(base);
        // Per-SimKey attribution span: `repro top` shows the key while the
        // engine runs; the completed span keeps the run's notes.
        let mut span = subcore_metrics::span("sim", &key.to_string());
        let stats = simulate_app(&cfg, &design.policies(), app)?;
        let record = record(RunSource::Simulated, &cfg, stats.cycles);
        let cycles_per_sec = stats.cycles as f64 / record.wall.as_secs_f64().max(1e-9);
        span.note("app", app.name());
        span.note("design", design.label());
        span.note("engine_mode", record.engine_mode);
        span.note("cycles_per_sec", format!("{cycles_per_sec:.0}"));
        if let Some(error) = record.estimate_error() {
            span.note("predicted_cycles", record.predicted_cycles.unwrap_or(0));
            span.note("estimate_error", format!("{error:.3}"));
        }
        if let Some(disk) = &self.disk {
            if !disk.store(key, &stats) {
                self.telemetry.note_cache_write_failure();
            }
        }
        Ok((stats, record))
    }
}

/// Everything a process decides once about how its simulations run — what
/// the `repro` front door derives from its global flags. Installed by
/// [`init_global`]; a process that installs nothing runs on the defaults
/// (in-memory session, no journal, default supervision, every core,
/// cost-aware ordering).
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Options of the process-wide session (`--no-cache` leaves the disk
    /// cache off).
    pub session: SessionOptions,
    /// Directory sweeps journal their cells under (conventionally
    /// `<out>/.journal/`); `None` means campaigns are not journaled.
    pub journal_root: Option<PathBuf>,
    /// `--resume`: sweeps skip cells their journal records complete.
    pub resume: bool,
    /// Supervision policy of every sweep (`--retries`, `--job-timeout`,
    /// `--fail-fast`, `--max-failures`).
    pub policy: SupervisorPolicy,
    /// Worker-pool ceiling (`--jobs N`, clamped to at least 1). `None`
    /// falls back to a positive integer `SUBCORE_JOBS` environment
    /// variable when the context is installed, else no cap.
    pub jobs: Option<usize>,
    /// Start each sweep's longest-predicted cells first (`--no-reorder`
    /// clears it).
    pub reorder: bool,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            session: SessionOptions::default(),
            journal_root: None,
            resume: false,
            policy: SupervisorPolicy::default(),
            jobs: None,
            reorder: true,
        }
    }
}

// The one piece of process-wide harness state: the installed context and
// the session built from it.
static GLOBAL: OnceLock<(SimSession, RunContext)> = OnceLock::new();

fn install(mut ctx: RunContext) -> (SimSession, RunContext) {
    let env = || std::env::var("SUBCORE_JOBS").ok().and_then(|v| crate::runner::parse_jobs(&v));
    ctx.jobs = ctx.jobs.map(|n| n.max(1)).or_else(env);
    (SimSession::new(ctx.session.clone()), ctx)
}

fn global() -> &'static (SimSession, RunContext) {
    GLOBAL.get_or_init(|| install(RunContext::default()))
}

/// Installs the process-wide run context and returns its session.
///
/// Must run before anything reads the context — the first [`session`]
/// call, or any of the getters (`policy()`, `jobs_cap()`, …) — so binaries
/// call it from `main`; once the context has resolved it is fixed for the
/// process and this returns the existing session unchanged.
pub fn init_global(ctx: RunContext) -> &'static SimSession {
    &GLOBAL.get_or_init(|| install(ctx)).0
}

/// The process-wide session: the one [`init_global`] built, else an
/// in-memory one (no disk cache) created on first use.
pub fn session() -> &'static SimSession {
    &global().0
}

/// The installed run context, or the default one if [`init_global`] has
/// not run. The public getters in `runner`, `supervisor`, `journal` and
/// `sweep` each read one field of it.
pub(crate) fn context() -> &'static RunContext {
    &global().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_isa::{fma_kernel, Suite};

    fn app(name: &str, warps: u32) -> App {
        App::new(name, Suite::Micro, vec![fma_kernel("k", 4, warps, 64)])
    }

    fn base() -> GpuConfig {
        crate::runner::suite_base()
    }

    // The context is shared with every other test in this binary, so this
    // asserts install-once semantics without assuming it gets there first.
    // The probe keeps a tiny backoff and a wide pool: a win here must not
    // slow down or constrain the sweeps other tests run on the globals.
    #[test]
    fn run_context_installs_exactly_once() {
        let quick = SupervisorPolicy {
            retries: 2,
            backoff: std::time::Duration::from_millis(1),
            ..SupervisorPolicy::default()
        };
        let sess = init_global(RunContext { jobs: Some(61), policy: quick, ..Default::default() });
        assert!(std::ptr::eq(sess, session()), "one session per process");
        // Every getter reads the one installed value: all of the probe, or
        // none of it.
        let won = context().jobs == Some(61);
        assert_eq!(crate::runner::jobs_cap() == Some(61), won);
        assert_eq!(crate::supervisor::policy().retries == 2, won);
        assert!(crate::sweep::reorder_enabled() && !crate::journal::resume_enabled());
        assert!(crate::journal::journal_for("t").is_none(), "no journal root installed");
        // A second install is rejected whole.
        let again = init_global(RunContext { jobs: Some(1), reorder: false, ..Default::default() });
        assert!(std::ptr::eq(again, sess));
        assert_eq!(context().jobs == Some(61), won);
        assert!(crate::sweep::reorder_enabled());
    }

    #[test]
    fn key_is_stable_across_calls() {
        let a = app("a", 8);
        let k1 = SimKey::compute(&base(), Design::Rba, &a);
        let k2 = SimKey::compute(&base(), Design::Rba, &a);
        assert_eq!(k1, k2);
        // The key is a *content* hash: an equal clone hashes identically.
        let k3 = SimKey::compute(&base().clone(), Design::Rba, &a.clone());
        assert_eq!(k1, k3);
    }

    #[test]
    fn key_tracks_every_input_dimension() {
        let a = app("a", 8);
        let k = SimKey::compute(&base(), Design::Baseline, &a);
        // Config change.
        assert_ne!(k, SimKey::compute(&base().with_sms(2), Design::Baseline, &a));
        assert_ne!(k, SimKey::compute(&base().with_max_cycles(1), Design::Baseline, &a));
        // Design change (different derived config).
        assert_ne!(k, SimKey::compute(&base(), Design::FullyConnected, &a));
        // Design change (same config, different policies).
        assert_ne!(k, SimKey::compute(&base(), Design::Rba, &a));
        // App change.
        assert_ne!(k, SimKey::compute(&base(), Design::Baseline, &app("a", 16)));
    }

    #[test]
    fn behavioural_twins_share_a_key() {
        let a = app("a", 8);
        // Banks(n) == Baseline on a base config that already has n banks:
        // same derived config, same policy class.
        let banks = base().with_banks(2);
        assert_eq!(
            SimKey::compute(&banks, Design::Banks(2), &a),
            SimKey::compute(&banks, Design::Baseline, &a)
        );
        // App names are content: renaming changes the key (results are
        // reported per-name, so distinct names must stay distinct).
        assert_ne!(
            SimKey::compute(&base(), Design::Baseline, &app("a", 8)),
            SimKey::compute(&base(), Design::Baseline, &app("b", 8))
        );
    }

    #[test]
    fn duplicate_runs_simulate_once() {
        let s = SimSession::in_memory();
        let a = app("dedup", 8);
        let first = s.run(&base(), Design::Baseline, &a);
        let second = s.run(&base(), Design::Baseline, &a);
        assert_eq!(first.cycles, second.cycles);
        assert!(Arc::ptr_eq(&first, &second), "memo returns the same allocation");
        let t = s.telemetry().snapshot();
        assert_eq!(t.runs, 2);
        assert_eq!(t.sims, 1, "second run must not simulate");
        assert_eq!(t.memo_hits, 1);
        assert_eq!(t.disk_hits, 0);
    }

    #[test]
    fn distinct_keys_each_simulate() {
        let s = SimSession::in_memory();
        let a = app("multi", 8);
        s.run(&base(), Design::Baseline, &a);
        s.run(&base(), Design::Rba, &a);
        s.run(&base(), Design::Baseline, &app("multi2", 8));
        let t = s.telemetry().snapshot();
        assert_eq!((t.runs, t.sims, t.memo_hits), (3, 3, 0));
    }

    #[test]
    fn overlapping_figure_sweeps_dedup_across_figures() {
        // Fig. 9, Fig. 10, and Fig. 12 share designs (and all need the
        // baseline); replaying them through one session must simulate
        // exactly the set of unique fingerprints, verified by the
        // telemetry miss count.
        let fig12 = [
            Design::CuScaling(4),
            Design::CuScaling(8),
            Design::CuScaling(16),
            Design::Rba,
            Design::FullyConnected,
        ];
        let s = SimSession::in_memory();
        let base = GpuConfig::volta_v100().with_sms(1).with_max_cycles(10_000_000);
        let a = app("shared", 4);
        let mut unique = std::collections::HashSet::new();
        let mut runs = 0;
        for figure in [&Design::FIGURE9[..], &Design::FIGURE10[..], &fig12[..]] {
            for &design in std::iter::once(&Design::Baseline).chain(figure) {
                unique.insert(s.key(&base, design, &a));
                s.run(&base, design, &a);
                runs += 1;
            }
        }
        let t = s.telemetry().snapshot();
        assert_eq!(t.runs, runs);
        assert_eq!(t.sims, unique.len() as u64, "one simulation per unique key");
        assert_eq!(t.memo_hits, runs - unique.len() as u64);
        assert!(t.sims < t.runs, "the two figures genuinely overlap");
    }

    #[test]
    fn concurrent_duplicates_share_one_simulation() {
        let s = SimSession::in_memory();
        let a = app("race", 16);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| s.run(&base(), Design::Shuffle, &a));
            }
        });
        let t = s.telemetry().snapshot();
        assert_eq!(t.runs, 8);
        assert_eq!(t.sims, 1, "seven threads must ride the in-flight run");
        assert_eq!(t.memo_hits, 7);
    }

    #[test]
    fn predictions_flow_into_run_records() {
        let s = SimSession::in_memory();
        let a = app("predicted", 8);
        let key = s.key(&base(), Design::Baseline, &a);
        s.predict(key, 123_456);
        assert_eq!(s.predicted(key), Some(123_456));
        let stats = s.run(&base(), Design::Baseline, &a);
        let records = s.telemetry().records();
        let r = records.iter().find(|r| r.key == key.as_u64()).expect("materialized record");
        assert_eq!(r.predicted_cycles, Some(123_456));
        let expected = (123_456f64 - stats.cycles as f64).abs() / stats.cycles as f64;
        assert!((r.estimate_error().expect("error defined") - expected).abs() < 1e-12);
        // Runs without a registered prediction keep the fields empty.
        s.run(&base(), Design::Baseline, &app("unpredicted", 8));
        let records = s.telemetry().records();
        let rb = records.iter().find(|r| r.app == "unpredicted").expect("second record");
        assert_eq!(rb.predicted_cycles, None);
        assert_eq!(rb.estimate_error(), None);
    }

    #[test]
    fn errors_are_memoized_and_replayed() {
        let s = SimSession::in_memory();
        let a = app("doomed", 8);
        let tiny = base().with_max_cycles(1);
        let e1 = s.try_run(&tiny, Design::Baseline, &a).expect_err("1 cycle cannot finish");
        let e2 = s.try_run(&tiny, Design::Baseline, &a).expect_err("memoized error");
        assert_eq!(e1, e2);
        let t = s.telemetry().snapshot();
        assert_eq!(t.sims, 0, "failed runs are not counted as completed simulations");
        assert_eq!(t.memo_hits, 1);
    }

    #[test]
    fn a_panicking_run_does_not_cascade_into_later_runs() {
        // Supervised workers run `run()` under catch_unwind; a panicking
        // job must not poison the session for every later job (the memo
        // lock recovers instead of propagating the poison).
        let s = SimSession::in_memory();
        let a = app("cascade", 8);
        let tiny = base().with_max_cycles(1);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.run(&tiny, Design::Baseline, &a)
            }));
            assert!(caught.is_err(), "a 1-cycle budget cannot finish");
        }
        let ok = s.run(&base(), Design::Baseline, &a);
        assert!(ok.cycles > 0, "the session must survive earlier panicking jobs");
    }

    #[test]
    fn unwritable_cache_counts_write_failures() {
        // A plain file where the cache directory should be makes
        // `create_dir_all` fail, so every store fails.
        let dir =
            std::env::temp_dir().join(format!("subcore-session-rofail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&dir).ok();
        std::fs::write(&dir, b"not a directory").unwrap();
        let s = SimSession::new(SessionOptions { disk_cache: Some(dir.clone()) });
        s.run(&base(), Design::Baseline, &app("rofail", 8));
        let t = s.telemetry().snapshot();
        assert_eq!(t.cache_write_failures, 1, "the dropped entry must be counted");
        assert!(t.summary().contains("cache write failures"));
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn disk_cache_survives_session_restarts() {
        let dir = std::env::temp_dir().join(format!("subcore-session-disk-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let a = app("persisted", 8);
        let cold = SimSession::new(SessionOptions { disk_cache: Some(dir.clone()) });
        let stats = cold.run(&base(), Design::Baseline, &a);
        assert_eq!(cold.telemetry().snapshot().sims, 1);
        // A fresh session (a "new process") with the same cache dir loads
        // from disk instead of simulating.
        let warm = SimSession::new(SessionOptions { disk_cache: Some(dir.clone()) });
        let reloaded = warm.run(&base(), Design::Baseline, &a);
        assert_eq!(*reloaded, *stats);
        let t = warm.telemetry().snapshot();
        assert_eq!(t.sims, 0, "warm session must not simulate");
        assert_eq!(t.disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
