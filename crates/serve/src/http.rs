//! Hand-rolled minimal HTTP/1.1 front for the serve core: request
//! parsing, routing, and the daemon accept loop — `std::net` only, no
//! dependencies (the build environment is offline).
//!
//! Endpoints:
//!
//! | method | path        | body            | response                       |
//! |--------|-------------|-----------------|--------------------------------|
//! | POST   | `/submit`   | [`JobSpec`]     | [`SubmitOutcome`] (429 on shed)|
//! | GET    | `/jobs`     | —               | array of job summaries         |
//! | GET    | `/jobs/<id>`| —               | full [`JobRecord`] (with stats)|
//! | GET    | `/healthz`  | —               | liveness + recovery evidence   |
//! | GET    | `/metrics`  | —               | Prometheus text format         |
//! | POST   | `/drain`    | —               | ack; daemon exits once drained |
//!
//! `POST /drain` is the graceful-shutdown signal: the crate forbids
//! `unsafe`, so a SIGTERM handler (which needs `libc`) is out of reach —
//! the drain endpoint is the deliberate stand-in with identical
//! semantics (stop admitting, finish or persist in-flight work, exit 0).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use subcore_persist::{Json, JsonCodec};

use crate::proto::{ExecError, JobRecord, JobSpec, SubmitOutcome};
use crate::server::Server;

/// Cap on header bytes; larger requests are rejected.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on body bytes; larger requests are rejected.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Decoded body (empty without a `Content-Length`).
    pub body: String,
}

/// Reads and parses one HTTP/1.1 request from `stream`.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-header"));
        }
        if head.len() + line.len() > MAX_HEADER_BYTES {
            return Err(bad("headers exceed the size cap"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let request_line = head.lines().next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("missing method"))?.to_uppercase();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_owned();
    let content_length = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse::<usize>())
        .transpose()
        .map_err(|_| bad("unparsable content-length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body exceeds the size cap"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    Ok(Request { method, path, body })
}

/// Writes one HTTP/1.1 response (connection close).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Compact job summary for `GET /jobs` (stats reduced to cycles, so a
/// big queue lists cheaply; fetch `/jobs/<id>` for the full record).
fn job_summary(rec: &JobRecord) -> Json {
    Json::obj([
        ("id", Json::Uint(rec.id)),
        ("key", Json::Uint(rec.key)),
        ("app", Json::Str(rec.spec.app.clone())),
        ("design", Json::Str(rec.spec.design.clone())),
        ("state", Json::Str(rec.state.tag().to_owned())),
        ("attempts", Json::Uint(u64::from(rec.attempts))),
        ("predicted_cycles", Json::Uint(rec.predicted_cycles)),
        ("budget_ms", Json::Uint(rec.budget_ms)),
        ("cycles", rec.stats.as_ref().map_or(Json::Null, |s| Json::Uint(s.cycles))),
        ("error", rec.error.as_ref().map_or(Json::Null, JsonCodec::to_json)),
    ])
}

/// One routed reply: status, body, and whether a 429 carries `Retry-After`.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after_secs: Option<u64>,
}

fn json(status: u16, body: &Json) -> Reply {
    Reply { status, content_type: "application/json", body: body.render(), retry_after_secs: None }
}

fn error(status: u16, e: &ExecError) -> Reply {
    json(status, &e.to_json())
}

fn route(server: &Server, req: &Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => {
            let spec = match Json::parse(&req.body).and_then(|j| JobSpec::from_json(&j)) {
                Ok(spec) => spec,
                Err(e) => return error(400, &ExecError::invalid(format!("bad job spec: {e}"))),
            };
            match server.submit(spec) {
                Ok(outcome @ SubmitOutcome::Accepted { .. }) => json(200, &outcome.to_json()),
                Ok(outcome @ SubmitOutcome::Shed { retry_after_ms, .. }) => Reply {
                    retry_after_secs: Some(retry_after_ms.div_ceil(1000)),
                    ..json(429, &outcome.to_json())
                },
                Err(e) => error(400, &e),
            }
        }
        ("GET", "/jobs") => {
            let jobs: Vec<Json> = server.jobs().iter().map(job_summary).collect();
            json(200, &Json::obj([("jobs", Json::Arr(jobs))]))
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let id = path["/jobs/".len()..].parse::<u64>().ok();
            match id.and_then(|id| server.job(id)) {
                Some(rec) => json(200, &rec.to_json()),
                None => error(404, &ExecError::new("not-found", "no such job")),
            }
        }
        ("GET", "/healthz") => {
            let recovery = server.recovery();
            let body = Json::obj([
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(server.draining())),
                ("depth", Json::Uint(server.depth() as u64)),
                ("restored", Json::Uint(recovery.restored as u64)),
                ("reclaimed", Json::Uint(recovery.reclaimed as u64)),
                ("replayed", Json::Uint(recovery.replayed as u64)),
                ("skipped", Json::Uint(recovery.skipped as u64)),
                ("persist_failures", Json::Uint(server.persist_failures())),
            ]);
            json(200, &body)
        }
        ("GET", "/metrics") => Reply {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: subcore_metrics::render_prometheus(&subcore_metrics::snapshot()),
            retry_after_secs: None,
        },
        ("POST", "/drain") => {
            server.drain();
            json(200, &Json::obj([("draining", Json::Bool(true))]))
        }
        ("GET" | "POST", _) => error(404, &ExecError::new("not-found", "no such endpoint")),
        _ => error(405, &ExecError::new("method", "method not allowed")),
    }
}

fn handle(server: &Server, stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let reply = match read_request(stream) {
        Ok(req) => route(server, &req),
        Err(e) => error(400, &ExecError::invalid(e.to_string())),
    };
    let headers: Vec<_> =
        reply.retry_after_secs.iter().map(|secs| ("Retry-After", secs.to_string())).collect();
    write_response(stream, reply.status, reply.content_type, &reply.body, &headers)
}

/// Runs the daemon: spawns the worker pool and lease monitor, accepts
/// connections until a drain completes, then joins everything. Returns
/// once the daemon has fully drained.
///
/// The loop blocks in `accept`. A drain that completes while it is
/// parked there — no client left to connect — is delivered by the waker
/// thread, which waits for [`Server::wait_drained`] and then makes one
/// throw-away connection to the listener's own address.
pub fn run(server: &Server, listener: TcpListener) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let workers = server.start_workers();
    let waker = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.wait_drained();
            let _ = TcpStream::connect(addr);
        })
    };
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let server = server.clone();
                conns.push(std::thread::spawn(move || {
                    let _ = handle(&server, &mut stream);
                }));
            }
            // Out of descriptors, or a connection reset before it was
            // accepted: back off rather than spin on the error.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
        conns.retain(|h| !h.is_finished());
        if server.drain_complete() {
            break;
        }
    }
    // Admission is closed and the queue is drained (or persisted for the
    // next start): the pool and the monitor are leaving on their own;
    // join them, and finish any in-flight responses.
    for h in workers.into_iter().chain(conns).chain([waker]) {
        let _ = h.join();
    }
    Ok(())
}
