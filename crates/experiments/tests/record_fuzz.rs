//! The cross-loader byte-mutation fuzz of the workspace's durable records: every
//! writer's real output — simcache entry, journal cell and manifest,
//! queued job, metrics stream, trace artifact — is damaged at random and
//! read back through its real loader. Each loader must degrade (a miss, a
//! skipped record, a dropped line) and never panic. The envelope rules
//! themselves are unit-tested beside `subcore_persist::record`.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use subcore_engine::RunStats;
use subcore_experiments::cache::DiskCache;
use subcore_experiments::journal::Journal;
use subcore_experiments::trace::{capture, TraceArtifact};
use subcore_experiments::{resolve_app, suite_base, JobError, JobErrorKind, SimKey};
use subcore_metrics::{load_snapshots, MetricsSnapshot, SnapshotWriter};
use subcore_sched::Design;
use subcore_serve::{DurableQueue, JobRecord, JobSpec, JobState};

/// One small traced capture, shared by every case (simulating per case
/// would dominate the test's run time).
fn artifact() -> &'static TraceArtifact {
    static ARTIFACT: OnceLock<TraceArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        capture(&suite_base(), Design::Baseline, &resolve_app("fma").unwrap(), 4096)
    })
}

/// Every regular file under `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.push(path);
        }
    }
    out
}

proptest::proptest! {
    #[test]
    fn every_record_loader_survives_arbitrary_corruption(
        seed in proptest::any::<u64>(),
        edits in proptest::prop::collection::vec(
            (proptest::any::<u16>(), proptest::any::<u8>()),
            1..8,
        ),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("subcore-record-fuzz-{seed:x}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let stats = RunStats { cycles: seed, instructions: 42, ..RunStats::default() };
        let (done, failed) = (SimKey::from_raw(seed), SimKey::from_raw(seed ^ 1));

        let cache = DiskCache::new(dir.join("simcache"));
        assert!(cache.store(done, &stats));
        let journal = Journal::open(dir.join("journal"), "fuzz");
        assert!(journal.set_total(2));
        assert!(journal.record_done(done, "app", "baseline", &stats));
        assert!(journal.record_failed(&JobError {
            app: "app".into(),
            design: "rba".into(),
            kind: JobErrorKind::Panic,
            payload: "injected".into(),
            elapsed: Duration::from_millis(3),
            key: Some(failed.as_u64()),
        }));
        let queue = DurableQueue::new(dir.join("queue"));
        assert!(queue.persist(&JobRecord {
            id: seed,
            spec: JobSpec { app: "fma".into(), ..JobSpec::default() },
            key: seed,
            predicted_cycles: 1,
            budget_ms: 1,
            state: JobState::Done,
            attempts: 1,
            stats: Some(Box::new(stats.clone())),
            error: None,
        }));
        let pulled = MetricsSnapshot::of(vec![("fuzz.count", seed % 1000)], Vec::new(), Vec::new());
        let mut stream = SnapshotWriter::new(dir.join("metrics"), "fuzz");
        let stream_path = stream.push(pulled).unwrap();
        let artifact_path = artifact().save(&dir.join("traces")).unwrap();

        let written = files(&dir);
        assert_eq!(written.len(), 7, "one file per record: {written:?}");
        for path in &written {
            let mut bytes = std::fs::read(path).unwrap();
            for &(pos, val) in &edits {
                let i = pos as usize % bytes.len();
                bytes[i] = val;
            }
            std::fs::write(path, &bytes).unwrap();
        }

        // None of these may panic; what they return decoded cleanly.
        let _ = cache.load(done);
        let _ = journal.load(done);
        let _ = journal.load(failed);
        let _ = journal.total();
        let progress = journal.progress();
        proptest::prop_assert!(progress.done + progress.failed <= 2);
        let (jobs, report) = queue.load();
        proptest::prop_assert_eq!(jobs.len() + report.skipped, 1);
        proptest::prop_assert!(load_snapshots(&stream_path).len() <= 1);
        let _ = TraceArtifact::load(&artifact_path);
        std::fs::remove_dir_all(&dir).ok();
    }
}
