//! Crash-safe campaign journal: one record per sweep cell under
//! `results/.journal/<campaign>/`, so an interrupted campaign resumes
//! instead of starting over.
//!
//! The journal is the supervisor's durable memory. The simcache
//! ([`crate::cache::DiskCache`]) already persists *memoizable* results,
//! but it is keyed purely by content and says nothing about campaign
//! membership, failures, or runs the cache cannot hold (traced runs are
//! cached, but a `--no-cache` campaign persists nothing). Each journal
//! record therefore embeds the cell's outcome — the full [`RunStats`] for
//! completed cells, the structured failure for failed ones — so
//! `repro --resume` can skip a journaled-complete cell without touching
//! the simcache at all.
//!
//! Layout, following `cache.rs` discipline:
//!
//! - one JSON file per cell, named by the cell's [`SimKey`]
//!   (`<16 hex digits>.json`), written atomically (temp + rename);
//! - a `manifest.json` per campaign recording the planned cell count, so
//!   `repro status` can report progress as done/total;
//! - every file carries a version envelope ([`JOURNAL_VERSION`] plus the
//!   engine/schema stamps); records from a different build are stale and
//!   read as absent, never as errors.
//!
//! All I/O is best-effort and corruption-tolerant: an unreadable or
//! corrupt record is a miss (the cell recomputes), an unwritable journal
//! degrades to a non-resumable campaign — neither ever panics.

use std::path::{Path, PathBuf};

use crate::session::{context, SimKey};
use crate::supervisor::{JobError, JobErrorKind};
use subcore_engine::{RunStats, ENGINE_VERSION, STATS_SCHEMA_VERSION};
use subcore_metrics::names as mx;
use subcore_persist::{Json, JsonCodec};

/// Version stamp of the journal record format; bump on layout changes so
/// stale journals read as absent instead of misparsing.
pub const JOURNAL_VERSION: u64 = 1;

/// One journaled cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum CellRecord {
    /// The cell completed; `stats` is the full result, so resume never
    /// needs the simcache.
    Done {
        /// Application name.
        app: String,
        /// Design label.
        design: String,
        /// The cell's result (boxed: `RunStats` dwarfs the `Failed`
        /// variant).
        stats: Box<RunStats>,
    },
    /// The cell failed (panic, simulator error, or watchdog timeout).
    Failed {
        /// Application name.
        app: String,
        /// Design label.
        design: String,
        /// Failure classification.
        kind: JobErrorKind,
        /// Human-readable failure payload.
        payload: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// A campaign's journal directory.
#[derive(Debug, Clone)]
pub struct Journal {
    campaign: String,
    dir: PathBuf,
}

impl Journal {
    /// Opens (without creating) the journal for `campaign` under `root`
    /// (conventionally `results/.journal/`). Directories are created
    /// lazily on the first write.
    pub fn open(root: impl Into<PathBuf>, campaign: impl Into<String>) -> Journal {
        let campaign = campaign.into();
        let dir = root.into().join(&campaign);
        Journal { campaign, dir }
    }

    /// The campaign name.
    pub fn campaign(&self) -> &str {
        &self.campaign
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, key: SimKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Atomically writes `json` to `path` (temp + rename, like the
    /// simcache), returning whether it landed.
    fn write_atomic(&self, path: &Path, json: &Json) -> bool {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("record");
        let tmp = self.dir.join(format!(".{name}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, json.render()).is_err() {
            return false;
        }
        if std::fs::rename(&tmp, path).is_err() {
            std::fs::remove_file(&tmp).ok();
            return false;
        }
        true
    }

    fn envelope(status: &str, app: &str, design: &str, body: Vec<(&'static str, Json)>) -> Json {
        let mut fields = vec![
            ("journal_version", Json::Uint(JOURNAL_VERSION)),
            ("engine_version", Json::Str(ENGINE_VERSION.to_owned())),
            ("schema_version", Json::Uint(u64::from(STATS_SCHEMA_VERSION))),
            ("status", Json::Str(status.to_owned())),
            ("app", Json::Str(app.to_owned())),
            ("design", Json::Str(design.to_owned())),
        ];
        fields.extend(body);
        Json::obj(fields)
    }

    /// Records a completed cell, best-effort.
    pub fn record_done(&self, key: SimKey, app: &str, design: &str, stats: &RunStats) -> bool {
        let json = Self::envelope("done", app, design, vec![("stats", stats.to_json())]);
        let ok = self.write_atomic(&self.cell_path(key), &json);
        if ok {
            subcore_metrics::inc(mx::JOURNAL_RECORD_DONE);
        } else {
            subcore_metrics::inc(mx::JOURNAL_WRITE_DROP);
        }
        ok
    }

    /// Records a failed cell, best-effort. Failures with no key (generic
    /// jobs) have no cell to journal and are skipped.
    pub fn record_failed(&self, e: &JobError) -> bool {
        let Some(key) = e.key else { return false };
        let json = Self::envelope(
            "failed",
            &e.app,
            &e.design,
            vec![
                ("kind", Json::Str(e.kind.tag().to_owned())),
                ("payload", Json::Str(e.payload.clone())),
                ("attempts", Json::Uint(u64::from(e.attempts))),
            ],
        );
        let ok = self.write_atomic(&self.cell_path(SimKey::from_raw(key)), &json);
        if ok {
            subcore_metrics::inc(mx::JOURNAL_RECORD_FAILED);
        } else {
            subcore_metrics::inc(mx::JOURNAL_WRITE_DROP);
        }
        ok
    }

    /// Loads the record for `key`, or `None` on any miss: absent file,
    /// corrupt JSON, or a version envelope from a different build (stale
    /// journals re-simulate, exactly like a stale simcache).
    pub fn load(&self, key: SimKey) -> Option<CellRecord> {
        Self::parse_record(&std::fs::read_to_string(self.cell_path(key)).ok()?)
    }

    fn parse_record(text: &str) -> Option<CellRecord> {
        let json = Json::parse(text).ok()?;
        if json.field("journal_version").ok()?.as_u64().ok()? != JOURNAL_VERSION {
            return None;
        }
        if json.field("engine_version").ok()?.as_str().ok()? != ENGINE_VERSION {
            return None;
        }
        if json.field("schema_version").ok()?.as_u64().ok()? != u64::from(STATS_SCHEMA_VERSION) {
            return None;
        }
        let app = json.field("app").ok()?.as_str().ok()?.to_owned();
        let design = json.field("design").ok()?.as_str().ok()?.to_owned();
        match json.field("status").ok()?.as_str().ok()? {
            "done" => Some(CellRecord::Done {
                app,
                design,
                stats: Box::new(RunStats::from_json(json.field("stats").ok()?).ok()?),
            }),
            "failed" => Some(CellRecord::Failed {
                app,
                design,
                kind: JobErrorKind::from_tag(json.field("kind").ok()?.as_str().ok()?)?,
                payload: json.field("payload").ok()?.as_str().ok()?.to_owned(),
                attempts: u32::try_from(json.field("attempts").ok()?.as_u64().ok()?).ok()?,
            }),
            _ => None,
        }
    }

    /// The completed cell for `key`, if journaled (`None` for failed,
    /// absent, corrupt, or stale records).
    pub fn completed(&self, key: SimKey) -> Option<RunStats> {
        match self.load(key)? {
            CellRecord::Done { stats, .. } => Some(*stats),
            CellRecord::Failed { .. } => None,
        }
    }

    /// Records the campaign's planned cell count (idempotent; the manifest
    /// is rewritten each run so a changed sweep definition updates it).
    pub fn set_total(&self, total: u64) -> bool {
        let json = Json::obj([
            ("journal_version", Json::Uint(JOURNAL_VERSION)),
            ("campaign", Json::Str(self.campaign.clone())),
            ("total_cells", Json::Uint(total)),
        ]);
        self.write_atomic(&self.manifest_path(), &json)
    }

    /// The planned cell count from the manifest, if present and readable.
    pub fn total(&self) -> Option<u64> {
        let text = std::fs::read_to_string(self.manifest_path()).ok()?;
        let json = Json::parse(&text).ok()?;
        if json.field("journal_version").ok()?.as_u64().ok()? != JOURNAL_VERSION {
            return None;
        }
        json.field("total_cells").ok()?.as_u64().ok()
    }

    /// Counts the campaign's journaled outcomes by scanning its records
    /// (corrupt or stale records are skipped, matching [`Journal::load`]).
    pub fn progress(&self) -> Progress {
        let mut p =
            Progress { campaign: self.campaign.clone(), total: self.total(), done: 0, failed: 0 };
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return p };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".json") || name == "manifest.json" || name.starts_with('.') {
                continue;
            }
            match std::fs::read_to_string(entry.path()).ok().and_then(|t| Self::parse_record(&t)) {
                Some(CellRecord::Done { .. }) => p.done += 1,
                Some(CellRecord::Failed { .. }) => p.failed += 1,
                None => {}
            }
        }
        p
    }
}

/// Progress of one journaled campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// Campaign name.
    pub campaign: String,
    /// Planned cell count, if the manifest is readable.
    pub total: Option<u64>,
    /// Journaled completed cells.
    pub done: u64,
    /// Journaled failed cells.
    pub failed: u64,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let settled = self.done + self.failed;
        match self.total {
            Some(total) if total > 0 => {
                let pct = settled as f64 / total as f64 * 100.0;
                write!(
                    f,
                    "{:<28} {:>4}/{:<4} cells ({pct:.0}%), {} failed",
                    self.campaign, settled, total, self.failed
                )
            }
            _ => write!(
                f,
                "{:<28} {:>4} cells journaled, {} failed (no manifest)",
                self.campaign, settled, self.failed
            ),
        }
    }
}

/// Renders every campaign's progress under `root` (the `repro status`
/// output). Campaigns are listed in name order.
pub fn render_status(root: &Path) -> String {
    let mut campaigns: Vec<String> = match std::fs::read_dir(root) {
        Ok(entries) => entries
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .collect(),
        Err(_) => Vec::new(),
    };
    campaigns.sort();
    if campaigns.is_empty() {
        return format!("no journaled campaigns under {}\n", root.display());
    }
    let mut out = format!("journaled campaigns ({})\n", root.display());
    for campaign in campaigns {
        out.push_str(&format!("  {}\n", Journal::open(root, &campaign).progress()));
    }
    out
}

/// Whether `--resume` is in force in the installed run context: sweeps
/// skip cells their journal already records complete.
pub fn resume_enabled() -> bool {
    context().resume
}

/// The journal for `campaign` under the installed run context's journal
/// root, or `None` when journaling is not configured (library/test use —
/// those build [`Journal`] values directly).
pub fn journal_for(campaign: &str) -> Option<Journal> {
    context().journal_root.as_ref().map(|root| Journal::open(root, campaign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("subcore-journal-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn stats(cycles: u64) -> RunStats {
        RunStats { cycles, instructions: 42, warp_cycles: 7, ..Default::default() }
    }

    fn job_error(key: u64) -> JobError {
        JobError {
            app: "sgemm".into(),
            design: "rba".into(),
            kind: JobErrorKind::Panic,
            payload: "injected fault".into(),
            attempts: 2,
            elapsed: Duration::from_millis(10),
            key: Some(key),
        }
    }

    #[test]
    fn done_records_round_trip_with_stats() {
        let root = scratch("done");
        let j = Journal::open(&root, "fig09");
        let key = SimKey::from_raw(0xAB);
        assert!(j.load(key).is_none(), "cold journal misses");
        assert!(j.record_done(key, "sgemm", "baseline", &stats(1000)));
        assert_eq!(
            j.load(key),
            Some(CellRecord::Done {
                app: "sgemm".into(),
                design: "baseline".into(),
                stats: Box::new(stats(1000))
            })
        );
        assert_eq!(j.completed(key), Some(stats(1000)), "resume reads stats from the journal");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_records_round_trip() {
        let root = scratch("failed");
        let j = Journal::open(&root, "fig09");
        assert!(j.record_failed(&job_error(0xCD)));
        let key = SimKey::from_raw(0xCD);
        match j.load(key) {
            Some(CellRecord::Failed { app, kind, payload, attempts, .. }) => {
                assert_eq!(app, "sgemm");
                assert_eq!(kind, JobErrorKind::Panic);
                assert_eq!(payload, "injected fault");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected a failed record, got {other:?}"),
        }
        assert_eq!(j.completed(key), None, "failed cells are not resumable as complete");
        // A keyless failure has no cell to journal.
        assert!(!j.record_failed(&JobError { key: None, ..job_error(0) }));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_versions_read_as_absent() {
        let root = scratch("stale");
        let j = Journal::open(&root, "c");
        let key = SimKey::from_raw(5);
        j.record_done(key, "a", "d", &stats(1));
        let path = j.cell_path(key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(ENGINE_VERSION, "0.0.0-prehistoric")).unwrap();
        assert!(j.load(key).is_none(), "foreign engine version is a miss");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_and_progress() {
        let root = scratch("progress");
        let j = Journal::open(&root, "fig09");
        assert!(j.set_total(4));
        j.record_done(SimKey::from_raw(1), "a", "d", &stats(1));
        j.record_done(SimKey::from_raw(2), "b", "d", &stats(2));
        j.record_failed(&job_error(3));
        let p = j.progress();
        assert_eq!((p.total, p.done, p.failed), (Some(4), 2, 1));
        let line = p.to_string();
        assert!(line.contains("3/4"), "got: {line}");
        let status = render_status(&root);
        assert!(status.contains("fig09"), "got: {status}");
        std::fs::remove_dir_all(&root).ok();
        assert!(render_status(&root).contains("no journaled campaigns"));
    }

    #[test]
    fn unwritable_root_degrades_to_non_resumable() {
        let file =
            std::env::temp_dir().join(format!("subcore-journal-notadir-{}", std::process::id()));
        std::fs::remove_file(&file).ok();
        std::fs::write(&file, b"file, not dir").unwrap();
        let j = Journal::open(&file, "c");
        assert!(!j.record_done(SimKey::from_raw(1), "a", "d", &stats(1)));
        assert!(!j.set_total(1));
        assert!(j.load(SimKey::from_raw(1)).is_none());
        std::fs::remove_file(&file).ok();
    }

    proptest::proptest! {
        /// Arbitrary byte-mutations of a journal record never panic the
        /// loader: corruption degrades to a miss (the cell recomputes).
        #[test]
        fn loader_survives_arbitrary_record_corruption(
            seed in proptest::any::<u64>(),
            edits in proptest::prop::collection::vec(
                (proptest::any::<u16>(), proptest::any::<u8>()),
                1..8,
            ),
        ) {
            let root = scratch(&format!("fuzz-{seed:x}"));
            let j = Journal::open(&root, "fuzz");
            let key = SimKey::from_raw(seed);
            j.record_done(key, "app", "design", &stats(seed));
            let path = j.cell_path(key);
            let mut bytes = std::fs::read(&path).expect("record written");
            for (pos, val) in edits {
                let i = pos as usize % bytes.len();
                bytes[i] = val;
            }
            std::fs::write(&path, &bytes).expect("rewrite record");
            let _ = j.load(key); // must not panic
            let _ = j.progress(); // the scan must not panic either
            std::fs::remove_dir_all(&root).ok();
        }
    }
}
