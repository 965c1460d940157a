//! The durable job queue: one [`JOB_RECORD`] durable record per job
//! (`subcore_persist::record`: atomic write, version envelope, tolerant
//! read), loaded corruption-tolerantly on restart.
//!
//! Durability contract: every job state transition (admit, lease,
//! settle, reclaim) is persisted *before* it takes effect for clients,
//! so a SIGKILL at any instant leaves the directory describing a valid
//! queue (process-crash-safe; see the record module for what a machine
//! crash can cost). On reload, jobs that died mid-lease are reclaimed to queued
//! (the owning process is provably gone), settled jobs replay without
//! re-executing, and unreadable or stale-version files are skipped —
//! counted, never fatal.

use std::path::{Path, PathBuf};

use subcore_persist::JsonCodec;

use crate::proto::{JobRecord, JobState, JOB_RECORD};

/// What a [`DurableQueue::load`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs restored from the directory (any state).
    pub restored: usize,
    /// Jobs found mid-lease and reclaimed back to queued.
    pub reclaimed: usize,
    /// Settled jobs replayed without re-execution.
    pub replayed: usize,
    /// Files skipped as corrupt, stale-versioned, or unreadable.
    pub skipped: usize,
}

/// A directory of durable job records.
#[derive(Debug, Clone)]
pub struct DurableQueue {
    dir: PathBuf,
}

impl DurableQueue {
    /// Opens (without creating) the queue at `dir`; the directory is
    /// created lazily on the first write.
    pub fn new(dir: impl Into<PathBuf>) -> DurableQueue {
        DurableQueue { dir: dir.into() }
    }

    /// The queue's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn job_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:016x}.json"))
    }

    /// Atomically persists one job record, returning whether it landed.
    pub fn persist(&self, rec: &JobRecord) -> bool {
        JOB_RECORD.store(&self.job_path(rec.id), rec.to_json()).is_ok()
    }

    /// Loads every job record in the directory, reclaiming mid-lease
    /// jobs to queued (and persisting the reclamation). Returns records
    /// sorted by id plus the recovery tally.
    pub fn load(&self) -> (Vec<JobRecord>, RecoveryReport) {
        let is_job = |name: &str| name.starts_with("job-") && name.ends_with(".json");
        let (bodies, skipped) = JOB_RECORD.scan(&self.dir, is_job);
        let mut report = RecoveryReport { skipped, ..RecoveryReport::default() };
        let mut records = Vec::with_capacity(bodies.len());
        for body in &bodies {
            let Ok(mut rec) = JobRecord::from_json(body) else {
                report.skipped += 1;
                continue;
            };
            report.restored += 1;
            match rec.state {
                JobState::Leased => {
                    // The process that held this lease is gone (we just
                    // started); reclaim, keeping the consumed attempt on
                    // the record.
                    rec.state = JobState::Queued;
                    self.persist(&rec);
                    report.reclaimed += 1;
                }
                JobState::Done | JobState::Failed => report.replayed += 1,
                JobState::Queued => {}
            }
            records.push(rec);
        }
        records.sort_by_key(|r| r.id);
        (records, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobSpec;

    fn rec(id: u64, state: JobState) -> JobRecord {
        JobRecord {
            id,
            spec: JobSpec { app: format!("app{id}"), ..JobSpec::default() },
            key: id * 100,
            predicted_cycles: 1000,
            budget_ms: 500,
            state,
            attempts: 1,
            stats: None,
            error: None,
        }
    }

    #[test]
    fn load_reclaims_leases_and_skips_corruption() {
        let dir = std::env::temp_dir().join(format!("subcore-queue-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let q = DurableQueue::new(&dir);
        assert!(q.persist(&rec(1, JobState::Queued)));
        assert!(q.persist(&rec(2, JobState::Leased)));
        assert!(q.persist(&rec(3, JobState::Failed)));
        std::fs::write(dir.join("job-00000000000000ff.json"), "{not json").unwrap();

        let (records, report) = q.load();
        assert_eq!(report, RecoveryReport { restored: 3, reclaimed: 1, replayed: 1, skipped: 1 });
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].id, 2);
        assert_eq!(records[1].state, JobState::Queued);
        assert_eq!(records[1].attempts, 1, "reclaim keeps the consumed attempt");

        // The reclamation was persisted: a second load sees a clean queue.
        let (_, second) = q.load();
        assert_eq!(second.reclaimed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
