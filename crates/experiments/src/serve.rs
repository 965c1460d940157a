//! The `repro` side of the serve daemon: the [`SimExecutor`] that backs
//! `repro serve` (wiring [`subcore_serve::Executor`] to the session), and
//! the SIGKILL recovery drill behind `repro chaos --serve`.
//!
//! The drill is the process-level counterpart of the in-crate restart
//! test: it computes an uninterrupted in-process reference, runs the same
//! campaign through a real daemon child process, SIGKILLs the daemon
//! mid-campaign, restarts it over the same durable queue, and proves that
//! every submitted job settles exactly once with bit-exact results — no
//! lost jobs, no duplicated jobs, leases reclaimed and retried.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use crate::session::{SessionOptions, SimKey, SimSession};
use crate::{estimate, trace};
use subcore_engine::GpuConfig;
use subcore_persist::{Json, JsonCodec};
use subcore_serve::{
    http_call, poll_until, read_addr_file, Admitted, ExecError, Executor, JobSpec,
};

/// [`subcore_serve::Executor`] over the harness simulation stack. A spec
/// is resolved once, at admission: through the trace-target registry into
/// simulator inputs, their `SimKey` as the fingerprint, and the static
/// cost model's prediction. The admitted run carries all of it to the
/// session, which keeps nothing per job — the daemon's job map is the
/// memo, and its lease the only watchdog.
pub struct SimExecutor {
    sess: Arc<SimSession>,
}

impl SimExecutor {
    /// Builds an executor over a private session with `opts`.
    #[must_use]
    pub fn new(opts: SessionOptions) -> SimExecutor {
        SimExecutor { sess: Arc::new(SimSession::new(opts)) }
    }

    /// The executor's private session (counters, disk cache).
    #[must_use]
    pub fn session(&self) -> &SimSession {
        &self.sess
    }
}

impl Executor for SimExecutor {
    /// Rejects unknown apps/designs and degenerate configs.
    fn admit(&self, spec: &JobSpec) -> Result<Admitted, ExecError> {
        let app = trace::resolve_target(&spec.app)
            .ok_or_else(|| ExecError::invalid(format!("unknown app or target `{}`", spec.app)))?;
        let design = trace::parse_design(&spec.design)
            .ok_or_else(|| ExecError::invalid(format!("unknown design `{}`", spec.design)))?;
        if spec.sms == 0 {
            return Err(ExecError::invalid("sms must be positive"));
        }
        if spec.max_cycles == 0 {
            return Err(ExecError::invalid("max_cycles must be positive"));
        }
        let base = GpuConfig::volta_v100().with_sms(spec.sms).with_max_cycles(spec.max_cycles);
        let key = SimKey::compute(&base, design, &app);
        let predicted = estimate::predicted_cycles(&base, design, &app);
        let sess = Arc::clone(&self.sess);
        let run = move || {
            sess.try_run_transient(key, &base, design, &app, Some(predicted))
                .map_err(|e| ExecError::new("sim-error", e.to_string()))
        };
        Ok(Admitted { key: key.as_u64(), predicted_cycles: predicted, run: Box::new(run) })
    }
}

/// Configuration of the serve SIGKILL drill.
#[derive(Debug, Clone)]
pub struct ServeDrillOptions {
    /// The `repro` binary to run as the daemon.
    pub exe: PathBuf,
    /// Scratch directory (queue, address files, daemon out dir) — created
    /// by the drill; the caller removes it afterwards.
    pub dir: PathBuf,
    /// The campaign. Needs at least two specs so the kill can land with
    /// one job done and another in flight.
    pub specs: Vec<JobSpec>,
    /// Wall-clock budget for each wait (daemon startup, kill window,
    /// post-restart settlement, drain exit).
    pub settle: Duration,
}

impl ServeDrillOptions {
    /// The headline drill: the chaos-drill app set under `rba` on a small
    /// config — big enough that the SIGKILL lands mid-simulation, small
    /// enough to finish promptly.
    #[must_use]
    pub fn headline(exe: PathBuf, dir: PathBuf) -> ServeDrillOptions {
        let specs = ["pb-sgemm", "rod-bp", "pb-spmv", "pb-sad", "tpcC-q9"]
            .into_iter()
            .map(|app| JobSpec {
                app: app.to_owned(),
                design: "rba".to_owned(),
                sms: 2,
                max_cycles: 20_000_000,
            })
            .collect();
        ServeDrillOptions { exe, dir, specs, settle: Duration::from_secs(300) }
    }
}

/// Evidence from one serve SIGKILL drill. [`ServeDrillReport::ok`] is the
/// verdict; everything else is the exhibit list.
#[derive(Debug, Default)]
pub struct ServeDrillReport {
    /// Jobs submitted to the first daemon.
    pub submitted: usize,
    /// Jobs already done when the SIGKILL was delivered.
    pub done_before_kill: usize,
    /// Jobs leased (in flight) when the SIGKILL was delivered.
    pub leased_at_kill: usize,
    /// Records the restarted daemon recovered from the durable queue.
    pub restored: usize,
    /// Leases the restarted daemon reclaimed back to queued.
    pub reclaimed: usize,
    /// Completed results the restarted daemon replayed without re-running.
    pub replayed: usize,
    /// Jobs done after the restarted daemon settled the campaign.
    pub done_after: usize,
    /// Whether the restarted daemon exited 0 after `POST /drain`.
    pub clean_exit: bool,
    /// Everything that contradicted the recovery contract (empty = pass).
    pub mismatches: Vec<String>,
}

impl ServeDrillReport {
    /// Whether the drill proved the recovery contract.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable drill summary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "serve drill: SIGKILL mid-campaign, restart, bit-exact settle");
        let _ = writeln!(
            out,
            "  campaign phase: {} submitted; killed with {} done, {} leased in flight",
            self.submitted, self.done_before_kill, self.leased_at_kill
        );
        let _ = writeln!(
            out,
            "  restart phase: {} record(s) restored ({} lease(s) reclaimed, {} replayed as done)",
            self.restored, self.reclaimed, self.replayed
        );
        let _ = writeln!(
            out,
            "  settle phase: {} / {} done; drain exit {}",
            self.done_after,
            self.submitted,
            if self.clean_exit { "clean" } else { "UNCLEAN" }
        );
        if self.ok() {
            let _ = writeln!(
                out,
                "  verdict: OK — no lost jobs, no duplicates, results bit-exact vs reference"
            );
        } else {
            let _ = writeln!(out, "  verdict: FAILED");
            for m in &self.mismatches {
                let _ = writeln!(out, "    - {m}");
            }
        }
        out
    }
}

/// A drill daemon process; SIGKILLed and reaped when dropped, so no
/// early exit from the drill leaves one behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns daemon `name` over the drill's durable queue and waits for its
/// address. `--no-cache` matters: the restarted daemon must *re-execute*
/// reclaimed jobs, not load them from a shared disk cache, for the
/// bit-exactness claim to test the engine rather than the cache.
fn start_daemon(opts: &ServeDrillOptions, name: &str) -> Result<(Daemon, String), String> {
    let addr_file = opts.dir.join(format!("addr-{name}"));
    let child = Command::new(&opts.exe)
        .args(["serve", "--port", "0", "--serve-workers", "1", "--no-cache", "--dir"])
        .arg(opts.dir.join("queue"))
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--out")
        .arg(opts.dir.join("out"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("failed to spawn daemon {name}: {e}"))?;
    let daemon = Daemon(child);
    let addr = read_addr_file(&addr_file, opts.settle)
        .ok_or_else(|| format!("daemon {name} never wrote its address file"))?;
    Ok((daemon, addr))
}

/// Extracts the job id from an accepted `POST /submit` response.
fn submitted_id(body: &str) -> Option<u64> {
    let json = Json::parse(body).ok()?;
    if !json.field("accepted").ok()?.as_bool().ok()? {
        return None;
    }
    json.field("id").ok()?.as_u64().ok()
}

/// Per-state job counts from `GET /jobs`: `(done, leased, terminal,
/// total)`.
fn poll_states(addr: &str) -> Option<(usize, usize, usize, usize)> {
    let (status, body) = http_call(addr, "GET", "/jobs", None).ok()?;
    if status != 200 {
        return None;
    }
    let json = Json::parse(&body).ok()?;
    let jobs = json.field("jobs").ok()?.as_arr().ok()?.to_vec();
    let mut done = 0;
    let mut leased = 0;
    let mut terminal = 0;
    for job in &jobs {
        match job.field("state").ok()?.as_str().ok()? {
            "done" => {
                done += 1;
                terminal += 1;
            }
            "failed" => terminal += 1,
            "leased" => leased += 1,
            _ => {}
        }
    }
    Some((done, leased, terminal, jobs.len()))
}

/// Runs the serve SIGKILL drill. Never panics on daemon misbehavior —
/// every deviation lands in [`ServeDrillReport::mismatches`].
#[must_use]
pub fn run_serve_drill(opts: &ServeDrillOptions) -> ServeDrillReport {
    let mut report = ServeDrillReport { submitted: opts.specs.len(), ..Default::default() };
    if let Err(fatal) = drill(opts, &mut report) {
        report.mismatches.push(fatal);
    }
    report
}

/// The drill's phases. `Err` is a deviation that leaves nothing further
/// to check; the rest accumulate in `report.mismatches`.
fn drill(opts: &ServeDrillOptions, report: &mut ServeDrillReport) -> Result<(), String> {
    // Phase 1: uninterrupted in-process reference (private in-memory
    // session — shares nothing with the daemons but the engine).
    let reference = SimExecutor::new(SessionOptions::default());
    let mut expected: Vec<(u64, String)> = Vec::new();
    for spec in &opts.specs {
        let admitted = reference
            .admit(spec)
            .map_err(|e| format!("reference rejected spec `{}`: {e}", spec.app))?;
        let stats =
            (admitted.run)().map_err(|e| format!("reference run of `{}` failed: {e}", spec.app))?;
        expected.push((admitted.key, stats.to_json().render()));
    }

    // Phase 2: daemon A — submit the campaign, then SIGKILL it once at
    // least one job is done and another is mid-flight.
    let (daemon_a, addr) = start_daemon(opts, "A")?;
    let mut ids: Vec<u64> = Vec::new();
    for spec in &opts.specs {
        let (status, body) = http_call(&addr, "POST", "/submit", Some(&spec.to_json().render()))
            .map_err(|e| format!("submit of `{}` failed: {e}", spec.app))?;
        if status != 200 {
            return Err(format!("submit of `{}` rejected ({status}): {body}", spec.app));
        }
        ids.push(submitted_id(&body).ok_or(format!("unparsable submit response: {body}"))?);
    }
    // If the campaign outruns the poll, the drill still proves
    // replay-without-re-execution, just not reclamation.
    (report.done_before_kill, report.leased_at_kill) = poll_until(opts.settle, || {
        let (done, leased, terminal, _) = poll_states(&addr)?;
        (done >= 1 && leased >= 1 || terminal == report.submitted).then_some((done, leased))
    })
    .ok_or("kill window never opened (no done+leased overlap)")?;
    drop(daemon_a);

    // Phase 3: daemon B over the same queue — recovery evidence from
    // /healthz, then let the campaign settle.
    let (mut daemon_b, addr) = start_daemon(opts, "B")?;
    match http_call(&addr, "GET", "/healthz", None).ok().and_then(|(_, b)| Json::parse(&b).ok()) {
        Some(health) => {
            let count = |name: &str| {
                health.field(name).ok().and_then(|v| v.as_u64().ok()).unwrap_or(0) as usize
            };
            report.restored = count("restored");
            report.reclaimed = count("reclaimed");
            report.replayed = count("replayed");
        }
        None => report.mismatches.push("daemon B /healthz unreachable or unparsable".to_owned()),
    }
    if report.restored != report.submitted {
        report.mismatches.push(format!(
            "lost jobs: {} submitted, {} restored",
            report.submitted, report.restored
        ));
    }
    if report.replayed < report.done_before_kill {
        report.mismatches.push(format!(
            "completed work re-ran: {} done before the kill, only {} replayed",
            report.done_before_kill, report.replayed
        ));
    }
    report.done_after = poll_until(opts.settle, || {
        let (done, _, terminal, total) = poll_states(&addr)?;
        (terminal == total && total > 0).then_some(done)
    })
    .ok_or("campaign never settled after the restart")?;

    // Phase 4: verdict — every submitted id settled Done exactly once,
    // with stats bit-exact vs the in-process reference, then a graceful
    // drain exits 0.
    if let Some((_, _, _, total)) = poll_states(&addr) {
        if total != report.submitted {
            report.mismatches.push(format!(
                "duplicated jobs: {} submitted, {} records",
                report.submitted, total
            ));
        }
    }
    for (&id, (key, want)) in ids.iter().zip(&expected) {
        let record = http_call(&addr, "GET", &format!("/jobs/{id}"), None)
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| Json::parse(&body).ok());
        let Some(record) = record else {
            report.mismatches.push(format!("job {id} unreadable after the restart"));
            continue;
        };
        let state = record.field("state").ok().and_then(|s| s.as_str().ok().map(str::to_owned));
        if state.as_deref() != Some("done") {
            report.mismatches.push(format!("job {id} settled `{}`", state.unwrap_or_default()));
            continue;
        }
        if record.field("key").ok().and_then(|k| k.as_u64().ok()) != Some(*key) {
            report.mismatches.push(format!("job {id} fingerprint drifted across the restart"));
        }
        let got = record.field("stats").ok().map(Json::render);
        if got.as_deref() != Some(want.as_str()) {
            report.mismatches.push(format!("job {id} stats are not bit-exact vs the reference"));
        }
    }
    let _ = http_call(&addr, "POST", "/drain", None);
    let status = poll_until(opts.settle, || daemon_b.0.try_wait().transpose())
        .ok_or("daemon B never exited after drain")?
        .map_err(|e| format!("waiting on daemon B failed: {e}"))?;
    report.clean_exit = status.success();
    if !report.clean_exit {
        report.mismatches.push("daemon B exited nonzero after drain".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_resolves_fingerprints_and_executes() {
        let exec = SimExecutor::new(SessionOptions::default());
        let spec = JobSpec { app: "fma".into(), design: "rba".into(), ..JobSpec::default() };
        let admitted = exec.admit(&spec).expect("fma/rba resolves");
        assert!(admitted.predicted_cycles > 0);
        let stats = (admitted.run)().expect("fma/rba simulates");
        assert!(stats.cycles > 0);
        assert_eq!(exec.execute(&spec).expect("one-call path simulates"), stats);
        // Same spec, same fingerprint; different design, different one.
        assert_eq!(exec.admit(&spec).unwrap().key, admitted.key);
        let base = JobSpec { design: "baseline".into(), ..spec.clone() };
        assert_ne!(exec.admit(&base).unwrap().key, admitted.key);
    }

    #[test]
    fn executor_rejects_unknown_specs_at_admission() {
        let exec = SimExecutor::new(SessionOptions::default());
        let kind = |spec: &JobSpec| exec.admit(spec).map(|a| a.key).unwrap_err().kind;
        assert_eq!(kind(&JobSpec { app: "no-such-app".into(), ..JobSpec::default() }), "invalid");
        let bad_design =
            JobSpec { app: "fma".into(), design: "no-such-design".into(), ..JobSpec::default() };
        assert_eq!(kind(&bad_design), "invalid");
        assert_eq!(kind(&JobSpec { app: "fma".into(), sms: 0, ..JobSpec::default() }), "invalid");
    }
}
