//! Minimal HTTP/1.1 client for the serve daemon — `repro submit` /
//! `repro jobs` and the chaos drill talk to the daemon through this.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// One HTTP exchange: connect, send, read to EOF, parse the status line
/// and body. `addr` is `host:port` (the daemon prints it and writes it
/// to `--addr-file`).
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let response =
        String::from_utf8(response).map_err(|_| bad("response is not utf-8".to_owned()))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response missing header terminator".to_owned()))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("unparsable status line: {status_line}")))?;
    Ok((status, payload.to_owned()))
}

/// Atomically writes the daemon's bound address to `path` (plain text,
/// through `subcore_persist::record::write_atomic`), so launchers polling
/// for the file never read a torn write.
pub fn write_addr_file(path: &Path, addr: &str) -> std::io::Result<()> {
    subcore_persist::record::write_atomic(path, addr)
}

/// Calls `check` until it yields a value or `timeout` passes: at once,
/// then after 2 ms, 4 ms, ... capped at 50 ms between calls — a job that
/// settles in milliseconds is seen in milliseconds, a long one costs at
/// most 20 polls a second.
pub fn poll_until<T>(timeout: Duration, mut check: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = std::time::Instant::now() + timeout;
    let mut step = Duration::from_millis(2);
    loop {
        if let Some(found) = check() {
            return Some(found);
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(step);
        step = (step * 2).min(Duration::from_millis(50));
    }
}

/// Polls for an address file written by [`write_addr_file`], up to
/// `timeout`.
pub fn read_addr_file(path: &Path, timeout: Duration) -> Option<String> {
    poll_until(timeout, || {
        let addr = std::fs::read_to_string(path).ok()?;
        Some(addr.trim().to_owned()).filter(|addr| !addr.is_empty())
    })
}
