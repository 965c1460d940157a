//! `serve_closed`: the daemon's front door and worker path, closed loop.
//!
//! `repro serve --port 0 --addr-file … --serve-workers <nproc> --no-cache`
//! runs as a child process over a fresh queue directory; every caller waits
//! for its reply before sending the next request, as `repro submit --wait`
//! does. One layer, used three ways:
//!
//! * `jobs` — `nproc` clients each submit a unique ~9 ms `cutlass-512` job (a
//!   `max_cycles` salt defeats coalescing and the memo) and poll
//!   `GET /jobs/<id>` every 5 ms until it settles: latency-bound.
//! * `burst` — one client submits 48 unique jobs back to back (under the
//!   64-job admission cap; any 429 is a failure) and then awaits them all:
//!   throughput-bound.
//! * `hit` — clients resubmit specs that already settled: the front door
//!   alone (accept loop, fingerprint, coalescing map), no simulation.
//!
//! The same code with a small [`Plan`] is the serve-layer probe of the
//! other workloads' traced runs.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use subcore_persist::Json;

use crate::engine::overhead_pct;
use crate::golden::Golden;
use crate::layers;
use crate::proc::{http, Proc, TempDir};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::SpanId;
use crate::Ctx;

const POLL_EVERY: Duration = Duration::from_millis(5);
/// Longest a job may take from submit to settled before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(15);
/// Below the daemon's default admission capacity of 64.
const BURST_SIZE: usize = 48;

/// A running `repro serve` child; killed and reaped if dropped undrained.
pub struct Daemon {
    proc: Proc,
    addr: String,
}

/// State built by set-up: scratch directory, golden outputs, and a daemon
/// that answers `GET /healthz`.
pub struct Ready {
    daemon: Daemon,
    golden: Golden,
    // Declared last: the daemon must be gone before its directory is.
    dir: TempDir,
}

pub fn setup(ctx: &Ctx) -> Result<Ready, String> {
    let dir = TempDir::new(&ctx.root, "serve").map_err(|e| format!("scratch dir: {e}"))?;
    let golden = Golden::load(&ctx.root)?;
    Ok(Ready { daemon: spawn_daemon(ctx, dir.path())?, golden, dir })
}

/// Starts `repro serve` over `dir` and waits until it answers.
fn spawn_daemon(ctx: &Ctx, dir: &Path) -> Result<Daemon, String> {
    let addr_file = dir.join("addr");
    let mut cmd = Command::new(ctx.repro()?);
    cmd.arg("serve").arg("--out").arg(dir).args(["--port", "0", "--addr-file"]);
    cmd.arg(&addr_file).arg("--serve-workers").arg(ctx.jobs.to_string()).arg("--no-cache");
    let proc = Proc::spawn(&mut cmd, dir, "serve").map_err(|e| format!("spawn daemon: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10).min(ctx.time_left());
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(a) if !a.trim().is_empty() => break a.trim().to_owned(),
            _ if Instant::now() >= deadline => return Err("daemon wrote no addr-file".to_owned()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    match http(&addr, "GET", "/healthz", "") {
        Ok((200, _)) => Ok(Daemon { proc, addr }),
        other => Err(format!("daemon /healthz: {other:?}")),
    }
}

/// The app every job simulates: the registry's shortest, ~9 ms of host
/// time on 2 SMs (~15-25 ms on a contended host), so that a job's latency
/// is service path more than simulation. `fma`, at ~24 ms, sat on the
/// boundary of the daemon's 25 ms tick whatever the host did.
const JOB_APP: &str = "cutlass-512";

/// The job every phase submits: [`JOB_APP`] under the baseline on 2 SMs,
/// made unique by `salt` in `max_cycles` (which the run never reaches).
fn spec(ctx: &Ctx, salt: u64) -> String {
    let max_cycles = 20_000_000 + (ctx.seed % 4096) * 65_536 + salt;
    format!(
        "{{\"app\":\"{JOB_APP}\",\"design\":\"baseline\",\"sms\":2,\"max_cycles\":{max_cycles}}}"
    )
}

/// Parsed `POST /submit` reply.
struct Ack {
    id: u64,
    coalesced: bool,
}

/// What one client (or one burst) measured.
#[derive(Default)]
struct Tally {
    job_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    polls: u64,
    shed: u64,
    coalesced: u64,
    attempted: u64,
    errors: Vec<String>,
    /// Salts of the jobs that settled, for the `hit` phase to resubmit.
    settled: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.job_ms.extend(other.job_ms);
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        self.ack_ms.extend(other.ack_ms);
        self.polls += other.polls;
        self.shed += other.shed;
        self.coalesced += other.coalesced;
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.settled.extend(other.settled);
    }
}

/// One client's connection to the daemon, with the checks every reply gets.
struct Client<'a> {
    ctx: &'a Ctx,
    addr: &'a str,
    want_cycles: u64,
    tally: Tally,
}

impl Client<'_> {
    /// `POST /submit`; a refusal (429) or malformed reply is an error.
    fn submit(&mut self, salt: u64, parent: SpanId) -> Result<Ack, String> {
        let t0 = Instant::now();
        let reply = self.ctx.tracer.child("submit", salt, parent, || {
            http(self.addr, "POST", "/submit", &spec(self.ctx, salt))
        });
        self.tally.ack_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (status, body) = reply.map_err(|e| format!("submit {salt}: {e}"))?;
        if status == 429 {
            self.tally.shed += 1;
        }
        if status != 200 {
            return Err(format!("submit {salt}: HTTP {status}: {body}"));
        }
        let json = Json::parse(&body).map_err(|e| format!("submit {salt}: {e}"))?;
        let id =
            json.field("id").and_then(Json::as_u64).map_err(|e| format!("submit {salt}: {e}"))?;
        let coalesced = json.field("coalesced").and_then(Json::as_bool).unwrap_or(false);
        self.tally.coalesced += u64::from(coalesced);
        Ok(Ack { id, coalesced })
    }

    /// Polls `GET /jobs/<id>` until the job is terminal, then checks it
    /// settled `done` with the golden cycle count.
    fn await_done(
        &mut self,
        id: u64,
        salt: u64,
        since: Instant,
        parent: SpanId,
    ) -> Result<(), String> {
        loop {
            self.tally.polls += 1;
            let reply = self
                .ctx
                .tracer
                .child("poll", salt, parent, || http(self.addr, "GET", &format!("/jobs/{id}"), ""));
            let (status, body) = reply.map_err(|e| format!("job {id}: {e}"))?;
            if status != 200 {
                return Err(format!("job {id}: HTTP {status}"));
            }
            let settled = self.ctx.tracer.child("settled", salt, parent, || {
                let json = Json::parse(&body).map_err(|e| format!("job {id}: {e}"))?;
                match json.field("state").and_then(Json::as_str) {
                    Ok("done") => {
                        let cycles = json.field("stats").and_then(|s| s.field("cycles")?.as_u64());
                        if cycles == Ok(self.want_cycles) {
                            Ok(true)
                        } else {
                            Err(format!("job {id}: cycles {cycles:?}, golden {}", self.want_cycles))
                        }
                    }
                    Ok("failed") => Err(format!("job {id} settled failed: {body}")),
                    Ok(_) => Ok(false),
                    Err(e) => Err(format!("job {id}: {e}")),
                }
            })?;
            if settled {
                return Ok(());
            }
            if since.elapsed() > JOB_TIMEOUT || self.ctx.time_left().is_zero() {
                return Err(format!(
                    "job {id} not settled after {:.1}s",
                    since.elapsed().as_secs_f64()
                ));
            }
            std::thread::sleep(POLL_EVERY);
        }
    }

    /// One closed-loop job: submit, poll to settlement, record the latency.
    fn job(&mut self, salt: u64, spans: bool) {
        self.tally.attempted += 1;
        let span = self.ctx.tracer.begin(spans, "job", salt, None);
        let t0 = Instant::now();
        let result = self.submit(salt, span).and_then(|ack| {
            if ack.coalesced {
                return Err(format!("job {salt}: a unique spec was coalesced"));
            }
            self.await_done(ack.id, salt, t0, span)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ctx.tracer.end(span);
        match result {
            Ok(()) => {
                self.tally.job_ms.push(ms);
                if self.ctx.traced {
                    if spans { &mut self.tally.traced_ms } else { &mut self.tally.untraced_ms }
                        .push(ms);
                }
                self.tally.settled.push(salt);
            }
            Err(e) => self.tally.errors.push(e),
        }
    }

    /// One burst: `salts.len()` submits back to back, then await them all.
    /// Returns the wall from first submit to last settlement.
    fn burst(&mut self, salts: std::ops::Range<u64>) -> Option<f64> {
        let span = self.ctx.tracer.begin(self.ctx.traced, "burst", salts.start, None);
        let t0 = Instant::now();
        let mut acks = Vec::new();
        for salt in salts {
            self.tally.attempted += 1;
            match self.submit(salt, span) {
                Ok(ack) => acks.push((ack.id, salt)),
                Err(e) => self.tally.errors.push(e),
            }
        }
        let mut all = acks.len() == BURST_SIZE;
        for (id, salt) in acks {
            if let Err(e) = self.await_done(id, salt, t0, span) {
                self.tally.errors.push(e);
                all = false;
            }
        }
        self.ctx.tracer.end(span);
        all.then(|| t0.elapsed().as_secs_f64())
    }

    /// Resubmits a settled spec: the reply must coalesce onto the old job.
    fn hit(&mut self, salt: u64) -> Option<f64> {
        self.tally.attempted += 1;
        let span = self.ctx.tracer.begin(self.ctx.traced, "hit", salt, None);
        let t0 = Instant::now();
        let ack = self.submit(salt, span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ctx.tracer.end(span);
        match ack {
            Ok(Ack { coalesced: true, .. }) => Some(ms),
            Ok(_) => {
                self.tally.errors.push(format!("resubmit {salt} was not coalesced"));
                None
            }
            Err(e) => {
                self.tally.errors.push(e);
                None
            }
        }
    }
}

/// How long a serve session runs.
pub struct Plan {
    /// Each client keeps submitting jobs until this, at least `min_jobs`.
    pub jobs_until: Instant,
    pub min_jobs: usize,
    /// Bursts keep starting until this, at least `min_bursts`.
    pub bursts_until: Instant,
    pub min_bursts: usize,
    /// Resubmits per client.
    pub hits: usize,
}

/// Runs the three phases against `ready`'s daemon, drains it, and pushes
/// the serve metrics. `own_workload` adds the end-to-end metrics; the
/// `serve.*` per-layer ones are pushed when traced.
pub fn session(ctx: &Ctx, ready: Ready, plan: &Plan, own_workload: bool, out: &mut Outcome) {
    let Some(want_cycles) = ready.golden.serve_cycles() else {
        out.check(false, || "golden.json has no serve cycles".to_owned());
        return;
    };
    // `dir` is bound first so that it is dropped last, after the daemon.
    let Ready { dir, daemon: Daemon { mut proc, addr }, .. } = ready;
    let client = || Client { ctx, addr: &addr, want_cycles, tally: Tally::default() };
    let clients = ctx.jobs as u64;
    // Salts: client c's jobs are c, c + clients, c + 2·clients, …; bursts
    // start at 1<<32; nothing collides.
    let mut tally = Tally::default();

    // Phase `jobs`.
    let per_client: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = client();
                s.spawn(move || {
                    let mut n = 0u64;
                    while (n < plan.min_jobs as u64 || Instant::now() < plan.jobs_until)
                        && !ctx.time_left().is_zero()
                    {
                        client.job(c + n * clients, ctx.traced && n.is_multiple_of(2));
                        n += 1;
                    }
                    client.tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    per_client.into_iter().for_each(|t| tally.merge(t));
    let job_ms = std::mem::take(&mut tally.job_ms);
    let (job_acks, job_polls) = (std::mem::take(&mut tally.ack_ms), tally.polls);

    // Phase `burst`.
    let mut burst_s = Vec::new();
    let mut bursts = client();
    let mut n = 0u64;
    while (n < plan.min_bursts as u64 || Instant::now() < plan.bursts_until)
        && !ctx.time_left().is_zero()
    {
        let start = (1 << 32) + n * BURST_SIZE as u64;
        burst_s.extend(bursts.burst(start..start + BURST_SIZE as u64));
        n += 1;
    }
    tally.merge(bursts.tally);

    // Phase `hit`: every client resubmits specs the `jobs` phase settled.
    let settled = std::mem::take(&mut tally.settled);
    let coalesced_before = tally.coalesced;
    let mut hit_ms = Vec::new();
    if !settled.is_empty() {
        let per_client: Vec<(Tally, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients as usize)
                .map(|c| {
                    let mut client = client();
                    let settled = &settled;
                    s.spawn(move || {
                        let ms = (0..plan.hits)
                            .filter_map(|i| client.hit(settled[(c + i * 7) % settled.len()]))
                            .collect();
                        (client.tally, ms)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
        });
        for (t, ms) in per_client {
            tally.merge(t);
            hit_ms.extend(ms);
        }
    }

    // Front-door round trip, memory, then drain and reap.
    let rtt_ms: Vec<f64> = (0..if ctx.traced { 40 } else { 0 })
        .filter_map(|_| {
            let t0 = Instant::now();
            http(&addr, "GET", "/healthz", "").ok().map(|_| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    let rss_mb = proc.peak_rss_mb().unwrap_or(f64::NAN);
    let t0 = Instant::now();
    let drained = matches!(http(&addr, "POST", "/drain", ""), Ok((200, _)))
        && proc.wait(Duration::from_secs(20).min(ctx.time_left())).0;
    let drain_ms = t0.elapsed().as_secs_f64() * 1e3;

    out.absorb(tally.attempted, std::mem::take(&mut tally.errors));
    out.check(drained, || "daemon did not exit 0 on drain".to_owned());
    if job_ms.is_empty() || burst_s.is_empty() || hit_ms.is_empty() {
        out.check(false, || "a serve phase completed no operation".to_owned());
        return;
    }

    let burst_jobs = BURST_SIZE as f64;
    if own_workload {
        let mcycles = burst_jobs * want_cycles as f64 / 1e6;
        out.push(Metric::rate("sim_mcycles_per_s", "Mcycles/s", mcycles, &burst_s));
        // The bounded latency is the front door's: one accept-loop sleep,
        // steady to 1-2 % between runs. A job's latency is quantised by the
        // daemon's 25 ms ticks (~50 ms when the simulation ends inside its
        // first tick, ~76 ms when it spills), and the share that spills
        // follows the host's speed: across runs its median read 51-81 ms
        // and its mid-mean 55-85 ms. Reported below, not bounded.
        out.push(Metric::median("op_ms", "ms", &hit_ms));
        out.push(Metric::value("peak_rss_mb", "MB", rss_mb));
        out.push(Metric::median("serve_job_p50_ms", "ms", &job_ms));
        out.push(Metric::quantile("serve_job_p95_ms", "ms", &job_ms, 0.95));
        out.push(Metric::rate("serve_burst_jobs_per_s", "1/s", burst_jobs, &burst_s));
        out.push(Metric::median("serve_hit_p50_ms", "ms", &hit_ms));
    }
    if ctx.traced {
        if own_workload {
            out.push(overhead_pct(&tally.traced_ms, &tally.untraced_ms));
        }
        let spec_json = Json::parse(&spec(ctx, 0)).expect("the harness's own spec parses");
        let exec_ms = layers::exec_inproc_ms(&spec_json, want_cycles, out);
        let p50 = stats::median(&job_ms);
        out.push(Metric::median("serve.http_rtt_ms", "ms", &rtt_ms));
        out.push(Metric::median("serve.submit_ack_ms", "ms", &job_acks));
        out.push(Metric::median("serve.job_p50_ms", "ms", &job_ms));
        out.push(Metric::quantile("serve.job_p95_ms", "ms", &job_ms, 0.95));
        out.push(Metric::value("serve.overhead_ms", "ms", p50 - exec_ms));
        out.push(Metric::value(
            "serve.polls_per_job",
            "count",
            job_polls as f64 / job_ms.len() as f64,
        ));
        out.push(Metric::rate("serve.burst_jobs_per_s", "1/s", burst_jobs, &burst_s));
        out.push(Metric::median("serve.hit_p50_ms", "ms", &hit_ms));
        out.push(Metric::value("serve.drain_ms", "ms", drain_ms));
        out.push(Metric::value("serve.shed", "count", tally.shed as f64));
        out.push(Metric::value(
            "serve.coalesced",
            "count",
            (tally.coalesced - coalesced_before) as f64,
        ));
        layers::queue_recover(&queue_dir(dir.path()), out);
    }
}

/// Where `repro serve --out <dir>` keeps its durable queue.
fn queue_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(".serve")
}

/// The `serve_closed` workload.
pub fn run(ctx: &Ctx, ready: Ready, out: &mut Outcome) {
    // Untraced, the three phases fill the budget (a burst is ~2.5 s, so
    // three of them are the least a median can stand on); traced, they
    // leave room for the layer probes that follow.
    let plan = if ctx.traced {
        Plan {
            jobs_until: ctx.phase_end(0.3),
            min_jobs: 20,
            bursts_until: ctx.phase_end(0.42),
            min_bursts: 2,
            hits: 60,
        }
    } else {
        Plan {
            jobs_until: ctx.phase_end(0.5),
            min_jobs: 20,
            bursts_until: ctx.phase_end(0.8),
            min_bursts: 3,
            hits: 150,
        }
    };
    session(ctx, ready, &plan, true, out);
}

/// The serve-layer probe of the other workloads' traced runs: a fresh
/// daemon, a few jobs per client, one burst, a few resubmits, drain.
pub fn probe(ctx: &Ctx, out: &mut Outcome) {
    let now = Instant::now();
    let plan = Plan { jobs_until: now, min_jobs: 8, bursts_until: now, min_bursts: 1, hits: 8 };
    match setup(ctx) {
        Ok(ready) => session(ctx, ready, &plan, false, out),
        Err(e) => out.check(false, || format!("serve probe set-up: {e}")),
    }
}

/// `record-golden`: the cycle count one served job settles with.
pub fn record(ctx: &Ctx, out: &mut Outcome) -> Result<u64, String> {
    let dir = TempDir::new(&ctx.root, "serve").map_err(|e| format!("scratch dir: {e}"))?;
    let Daemon { addr, proc: _daemon } = spawn_daemon(ctx, dir.path())?;
    let (_, body) = http(&addr, "POST", "/submit", &spec(ctx, 0)).map_err(|e| e.to_string())?;
    let id = Json::parse(&body).and_then(|j| j.field("id")?.as_u64()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let cycles = loop {
        let (_, body) =
            http(&addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| e.to_string())?;
        let json = Json::parse(&body).map_err(|e| e.to_string())?;
        if json.field("state").and_then(Json::as_str) == Ok("done") {
            break json
                .field("stats")
                .and_then(|s| s.field("cycles")?.as_u64())
                .map_err(|e| e.to_string())?;
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err("the recorded job did not settle".to_owned());
        }
        std::thread::sleep(POLL_EVERY);
    };
    out.check(cycles > 0, || "served job reported zero cycles".to_owned());
    Ok(cycles)
}
