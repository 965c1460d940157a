//! Snapshot stream exporters: atomically rewritten JSONL files plus a
//! background periodic flusher.
//!
//! A stream is a single file `<dir>/<stream>.jsonl` holding a bounded
//! ring of the most recent snapshots, one [`SNAPSHOT_RECORD`]-stamped
//! JSON document per line, oldest first. Every flush rewrites the whole
//! file through `subcore_persist::record::write_atomic` (like every
//! durable record), so a concurrent reader — `repro top`, `repro
//! metrics`, an external scraper — always sees a complete file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use subcore_persist::record::{write_atomic, Stamp};
use subcore_persist::JsonCodec;

use crate::{global, MetricsSnapshot, Registry};

/// The record stamp of one stream line; bump `version` when the snapshot
/// layout changes incompatibly, so older lines are skipped, not misread.
pub const SNAPSHOT_RECORD: Stamp = Stamp { kind: "metrics-snapshot", version: 1, engine: None };

/// Default number of snapshots a stream file retains.
pub const DEFAULT_RING_CAP: usize = 120;

/// Writes a bounded ring of snapshots to `<dir>/<stream>.jsonl`
/// atomically on every [`SnapshotWriter::tick`].
pub struct SnapshotWriter {
    dir: PathBuf,
    stream: String,
    ring: Vec<MetricsSnapshot>,
    cap: usize,
}

impl SnapshotWriter {
    /// A writer for stream `stream` under `dir` (created on first
    /// flush) keeping [`DEFAULT_RING_CAP`] snapshots.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, stream: &str) -> SnapshotWriter {
        SnapshotWriter::with_capacity(dir, stream, DEFAULT_RING_CAP)
    }

    /// Same as [`SnapshotWriter::new`] with an explicit ring size
    /// (minimum 1).
    #[must_use]
    pub fn with_capacity(dir: impl Into<PathBuf>, stream: &str, cap: usize) -> SnapshotWriter {
        SnapshotWriter {
            dir: dir.into(),
            stream: stream.to_string(),
            ring: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// The stream file this writer maintains.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.jsonl", self.stream))
    }

    /// Snapshots `registry` and flushes the ring. Returns the stream
    /// file path.
    pub fn tick(&mut self, registry: &Registry) -> io::Result<PathBuf> {
        let snap = registry.snapshot();
        self.push(snap)
    }

    /// Appends a pre-built snapshot (evicting the oldest beyond the
    /// ring capacity) and rewrites the stream file atomically.
    pub fn push(&mut self, snap: MetricsSnapshot) -> io::Result<PathBuf> {
        if self.ring.len() >= self.cap {
            self.ring.remove(0);
        }
        self.ring.push(snap);
        let mut text = String::new();
        for snap in &self.ring {
            text.push_str(&SNAPSHOT_RECORD.wrap(snap.to_json()).render());
            text.push('\n');
        }
        let path = self.path();
        write_atomic(&path, text)?;
        Ok(path)
    }
}

/// Loads every decodable snapshot line from a stream file, oldest
/// first. Missing files, corrupt lines and lines of another layout
/// version are skipped silently — the reader side must tolerate a damaged
/// disk or a stream left by another build.
#[must_use]
pub fn load_snapshots(path: &Path) -> Vec<MetricsSnapshot> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| MetricsSnapshot::from_json(&SNAPSHOT_RECORD.decode(line)?).ok())
        .collect()
}

/// The most recently modified `.jsonl` stream file under `dir`, if
/// any. Ties (or unreadable mtimes) fall back to lexicographic order.
#[must_use]
pub fn latest_stream(dir: &Path) -> Option<PathBuf> {
    let entries = fs::read_dir(dir).ok()?;
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        let better = match &best {
            None => true,
            Some((t, p)) => mtime > *t || (mtime == *t && path > *p),
        };
        if better {
            best = Some((mtime, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Handle to a background thread flushing the global registry to a
/// stream file on a fixed period. Obtain via [`spawn_periodic`]; call
/// [`PeriodicFlusher::finish`] for a final flush, or just drop it to
/// stop the thread.
pub struct PeriodicFlusher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<(SnapshotWriter, io::Result<PathBuf>)>>,
}

impl PeriodicFlusher {
    /// Stops the thread, writes one final snapshot, and returns the
    /// stream file path.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take().expect("finish called once on a live flusher");
        match handle.join() {
            Ok((_, last)) => last,
            Err(_) => Err(io::Error::other("metrics flusher thread panicked")),
        }
    }
}

impl Drop for PeriodicFlusher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the background flusher for the **global** registry: one
/// snapshot immediately, then one per `period`, each flushed
/// atomically to `<dir>/<stream>.jsonl`. Flush errors are tolerated
/// (the next tick retries); the final flush's result is reported by
/// [`PeriodicFlusher::finish`].
pub fn spawn_periodic(
    dir: impl Into<PathBuf>,
    stream: &str,
    period: Duration,
) -> io::Result<PeriodicFlusher> {
    let mut writer = SnapshotWriter::new(dir, stream);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_thread = Arc::clone(&stop);
    let handle =
        std::thread::Builder::new().name("subcore-metrics-flush".to_string()).spawn(move || {
            const SLICE: Duration = Duration::from_millis(25);
            while !stop_thread.load(Ordering::Relaxed) {
                let _ = writer.tick(global());
                let deadline = Instant::now() + period;
                while Instant::now() < deadline && !stop_thread.load(Ordering::Relaxed) {
                    std::thread::sleep(SLICE.min(deadline - Instant::now()));
                }
            }
            let last = writer.tick(global());
            (writer, last)
        })?;
    Ok(PeriodicFlusher { stop, handle: Some(handle) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("subcore-metrics-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writer_ring_round_trips_and_stays_bounded() {
        let dir = tmpdir("ring");
        let reg = Registry::new();
        let mut writer = SnapshotWriter::with_capacity(&dir, "unit", 3);
        for i in 0..5u64 {
            reg.counter("x.count").inc_by(i + 1);
            writer.tick(&reg).unwrap();
        }
        let snaps = load_snapshots(&writer.path());
        assert_eq!(snaps.len(), 3, "ring keeps the newest 3 of 5");
        assert_eq!(snaps.last().unwrap().counter("x.count"), Some(15));
        assert!(snaps.windows(2).all(|w| w[0].seq < w[1].seq));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loader_skips_corrupt_lines_and_missing_files() {
        let dir = tmpdir("corrupt");
        assert!(load_snapshots(&dir.join("absent.jsonl")).is_empty());
        let reg = Registry::new();
        reg.counter("y.count").inc();
        let mut writer = SnapshotWriter::new(&dir, "dmg");
        writer.tick(&reg).unwrap();
        writer.tick(&reg).unwrap();
        let path = writer.path();
        let mut text = fs::read_to_string(&path).unwrap();
        let stale = Stamp { version: SNAPSHOT_RECORD.version + 1, ..SNAPSHOT_RECORD };
        let stale_line = stale.wrap(reg.snapshot().to_json()).render();
        text.insert_str(0, &format!("not json at all\n{{\"seq\":true}}\n{stale_line}\n"));
        fs::write(&path, text).unwrap();
        let snaps = load_snapshots(&path);
        assert_eq!(snaps.len(), 2, "good lines survive corrupt neighbours");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_stream_prefers_newest_file() {
        let dir = tmpdir("latest");
        fs::create_dir_all(&dir).unwrap();
        assert!(latest_stream(&dir).is_none());
        fs::write(dir.join("older.jsonl"), "{}\n").unwrap();
        fs::write(dir.join("ignored.txt"), "x").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        fs::write(dir.join("newer.jsonl"), "{}\n").unwrap();
        let latest = latest_stream(&dir).unwrap();
        assert_eq!(latest.file_name().unwrap(), "newer.jsonl");
        let _ = fs::remove_dir_all(&dir);
    }
}
