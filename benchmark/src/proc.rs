//! Process and filesystem plumbing: scratch directories that always get
//! removed, child processes that always get killed and reaped, peak-RSS
//! sampling from `/proc`, the `repro` binary, and the ~40-line HTTP
//! client the serve workload speaks to the daemon with.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Root of the repository checkout the harness was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo").to_owned()
}

/// Where cargo puts build output for this invocation.
fn target_dir(root: &Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from)
}

/// Builds `target/release/repro` from source (a no-op when fresh) and
/// returns its path. Compilation happens before any timer starts.
pub fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "repro", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed: {status}"));
    }
    let bin = target_dir(root).join("release").join("repro");
    // Children run with other working directories, so pin the path down.
    std::fs::canonicalize(&bin).map_err(|e| format!("{}: {e}", bin.display()))
}

static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// A scratch directory inside the checkout, removed on drop (so on every
/// exit path, including panics and early returns).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(root: &Path, label: &str) -> std::io::Result<TempDir> {
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(".bench_tmp").join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A child process that is killed and reaped when dropped.
#[derive(Debug)]
pub struct Proc(Child);

impl Proc {
    /// Spawns `cmd` with stdout and stderr appended to files in `log_dir`
    /// (files, not pipes: nobody has to drain them).
    pub fn spawn(cmd: &mut Command, log_dir: &Path, tag: &str) -> std::io::Result<Proc> {
        let out = std::fs::File::create(log_dir.join(format!("{tag}.stdout")))?;
        let err = std::fs::File::create(log_dir.join(format!("{tag}.stderr")))?;
        cmd.stdin(Stdio::null()).stdout(out).stderr(err).spawn().map(Proc)
    }

    /// Peak resident set so far, from `/proc/<pid>/status` (`None` once the
    /// process has exited).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.0.id()))
    }

    /// Waits up to `timeout` for exit, sampling peak RSS on the way.
    /// Returns whether the process exited with status 0 in time, and the
    /// last peak-RSS sample. On timeout the process is killed and reaped.
    pub fn wait(&mut self, timeout: Duration) -> (bool, f64) {
        let deadline = Instant::now() + timeout;
        let mut rss = 0.0f64;
        let mut polls = 0u32;
        loop {
            // `VmHWM` only grows, so the last sample before exit is the
            // peak; sampling every ~8 ms keeps the harness off the cores
            // the child is using.
            if polls.is_multiple_of(8) {
                rss = self.peak_rss_mb().unwrap_or(rss);
            }
            polls += 1;
            match self.0.try_wait() {
                Ok(Some(status)) => return (status.success(), rss),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return (false, rss);
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !matches!(self.0.try_wait(), Ok(Some(_))) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of the harness itself.
pub fn self_peak_rss_mb() -> f64 {
    vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN)
}

/// One HTTP/1.1 exchange with the daemon: connect, send, read to EOF
/// (the daemon answers `Connection: close`), return status and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned());
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, payload) = response.split_once("\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, payload.to_owned()))
}

/// FNV-1a over bytes: the digest `golden.json` records for output files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let t = TempDir::new(&repo_root(), "test-tempdir").unwrap();
            std::fs::write(t.path().join("f"), "1").unwrap();
            t.path().to_owned()
        };
        assert!(!path.exists());
    }

    #[test]
    fn dropped_proc_is_killed_and_timeout_reports_failure() {
        let dir = TempDir::new(&repo_root(), "test-proc").unwrap();
        let mut sleeper = Proc::spawn(Command::new("sleep").arg("30"), dir.path(), "s").unwrap();
        let pid = sleeper.0.id();
        assert!(sleeper.peak_rss_mb().is_some());
        let (ok, _) = sleeper.wait(Duration::from_millis(30));
        assert!(!ok, "a timeout is a failure");
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "killed and reaped");
        let mut quick = Proc::spawn(&mut Command::new("true"), dir.path(), "t").unwrap();
        assert!(quick.wait(Duration::from_secs(5)).0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
