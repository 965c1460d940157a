//! Snapshot stream exporters: atomically rewritten JSONL files plus a
//! background flusher that pulls a snapshot from its owner each period.
//!
//! A stream is a single file `<dir>/<stream>.jsonl` holding a bounded
//! ring of the most recent snapshots, one [`SNAPSHOT_RECORD`]-stamped
//! JSON document per line, oldest first. Every flush rewrites the whole
//! file through `subcore_persist::record::write_atomic` (like every
//! durable record), so a concurrent reader — `repro top`, `repro
//! metrics`, an external scraper — always sees a complete file.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use subcore_persist::record::{write_atomic, Stamp};
use subcore_persist::JsonCodec;

use crate::MetricsSnapshot;

/// The record stamp of one stream line; bump `version` when the snapshot
/// layout changes incompatibly, so older lines are skipped, not misread.
pub const SNAPSHOT_RECORD: Stamp = Stamp { kind: "metrics-snapshot", version: 1, engine: None };

/// Default number of snapshots a stream file retains.
pub const DEFAULT_RING_CAP: usize = 120;

/// Writes a bounded ring of snapshots to `<dir>/<stream>.jsonl`
/// atomically on every [`SnapshotWriter::push`], stamping each with its
/// sequence number and the writer's uptime. The ring holds each
/// snapshot's rendered line, so a snapshot is rendered once, not once per
/// flush it stays in the file for.
pub struct SnapshotWriter {
    dir: PathBuf,
    stream: String,
    ring: VecDeque<String>,
    cap: usize,
    seq: u64,
    epoch: Instant,
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
            ring: VecDeque::new(),
            cap: cap.max(1),
            seq: 0,
            epoch: Instant::now(),
        }
    }

    /// The stream file this writer maintains.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.jsonl", self.stream))
    }

    /// Stamps `snap` with the next sequence number and the writer's
    /// uptime, appends it (evicting the oldest beyond the ring capacity)
    /// and rewrites the stream file atomically. Returns the stream file
    /// path.
    pub fn push(&mut self, snap: MetricsSnapshot) -> io::Result<PathBuf> {
        if self.ring.len() >= self.cap {
            self.ring.pop_front();
        }
        let uptime_us = self.epoch.elapsed().as_micros() as u64;
        let snap = MetricsSnapshot { seq: self.seq, uptime_us, ..snap };
        self.ring.push_back(SNAPSHOT_RECORD.wrap(snap.to_json()).render());
        self.seq += 1;
        let mut text = String::new();
        for line in &self.ring {
            text.push_str(line);
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

/// Handle to a background thread flushing pulled snapshots to a stream
/// file on a fixed period. Obtain via [`spawn_periodic`]; call
/// [`PeriodicFlusher::finish`] for the final flush's result, or just drop
/// it. Either way the thread wakes at once, flushes one last snapshot and
/// exits.
pub struct PeriodicFlusher {
    stop: Option<Sender<()>>,
    handle: Option<JoinHandle<io::Result<PathBuf>>>,
}

impl PeriodicFlusher {
    /// Stops the thread after one final snapshot and returns the stream
    /// file path.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.stop.take();
        let handle = self.handle.take().expect("finish called once on a live flusher");
        handle.join().unwrap_or_else(|_| Err(io::Error::other("metrics flusher thread panicked")))
    }
}

impl Drop for PeriodicFlusher {
    fn drop(&mut self) {
        self.stop.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the background flusher: one snapshot from `pull` immediately,
/// then one per `period`, each flushed atomically to
/// `<dir>/<stream>.jsonl`. The thread sleeps on a channel between
/// flushes, so stopping it never waits out a period. Flush errors are
/// tolerated (the next period retries); the final flush's result is
/// reported by [`PeriodicFlusher::finish`].
pub fn spawn_periodic(
    dir: impl Into<PathBuf>,
    stream: &str,
    period: Duration,
    pull: impl Fn() -> MetricsSnapshot + Send + 'static,
) -> io::Result<PeriodicFlusher> {
    let mut writer = SnapshotWriter::new(dir, stream);
    let (stop, stopped) = mpsc::channel::<()>();
    let handle =
        std::thread::Builder::new().name("subcore-metrics-flush".to_string()).spawn(move || {
            loop {
                let _ = writer.push(pull());
                if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                    return writer.push(pull());
                }
            }
        })?;
    Ok(PeriodicFlusher { stop: Some(stop), handle: Some(handle) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("subcore-metrics-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn count(name: &str, v: u64) -> MetricsSnapshot {
        MetricsSnapshot::of(vec![(name, v)], Vec::new(), Vec::new())
    }

    #[test]
    fn writer_ring_round_trips_and_stays_bounded() {
        let dir = tmpdir("ring");
        let mut writer = SnapshotWriter::with_capacity(&dir, "unit", 3);
        let mut total = 0;
        for i in 0..5u64 {
            total += i + 1;
            writer.push(count("x.count", total)).unwrap();
        }
        let snaps = load_snapshots(&writer.path());
        assert_eq!(snaps.len(), 3, "ring keeps the newest 3 of 5");
        assert_eq!(snaps.last().unwrap().counter("x.count"), Some(15));
        assert_eq!(snaps.last().unwrap().seq, 4, "the writer stamps the sequence");
        assert!(snaps.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snaps.windows(2).all(|w| w[0].uptime_us <= w[1].uptime_us));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_after_cap_plus_k_pushes_is_the_last_cap_rendered_records() {
        let dir = tmpdir("rendered");
        let (cap, k) = (4, 3);
        let mut writer = SnapshotWriter::with_capacity(&dir, "unit", cap);
        for i in 0..(cap + k) as u64 {
            writer.push(count("r.count", i * 10)).unwrap();
        }
        let snaps = load_snapshots(&writer.path());
        let expected: String = snaps
            .iter()
            .map(|snap| format!("{}\n", SNAPSHOT_RECORD.wrap(snap.to_json()).render()))
            .collect();
        assert_eq!(fs::read_to_string(writer.path()).unwrap(), expected);
        let seqs: Vec<u64> = snaps.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (k as u64..(cap + k) as u64).collect::<Vec<_>>());
        assert_eq!(snaps.last().and_then(|s| s.counter("r.count")), Some(60));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loader_skips_corrupt_lines_and_missing_files() {
        let dir = tmpdir("corrupt");
        assert!(load_snapshots(&dir.join("absent.jsonl")).is_empty());
        let mut writer = SnapshotWriter::new(&dir, "dmg");
        writer.push(count("y.count", 1)).unwrap();
        writer.push(count("y.count", 1)).unwrap();
        let path = writer.path();
        let mut text = fs::read_to_string(&path).unwrap();
        let stale = Stamp { version: SNAPSHOT_RECORD.version + 1, ..SNAPSHOT_RECORD };
        let stale_line = stale.wrap(count("y.count", 1).to_json()).render();
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

    #[test]
    fn finishing_a_flusher_never_waits_out_its_period() {
        let dir = tmpdir("flusher");
        let owner = Arc::new(AtomicU64::new(1));
        let pulled = Arc::clone(&owner);
        let pull = move || count("z.count", pulled.load(Ordering::SeqCst));
        let flusher = spawn_periodic(&dir, "unit", Duration::from_secs(60), pull).unwrap();
        owner.store(7, Ordering::SeqCst);
        let t0 = Instant::now();
        let path = flusher.finish().expect("final flush lands");
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        let snaps = load_snapshots(&path);
        assert_eq!(snaps.last().and_then(|s| s.counter("z.count")), Some(7), "final pull");
        let _ = fs::remove_dir_all(&dir);
    }
}
