//! On-disk result cache: one JSON file per [`SimKey`]
//! under `results/.simcache/`, so repeated `repro` invocations skip
//! simulations entirely.
//!
//! Every entry is a durable record ([`subcore_persist::record`]) stamped
//! with the engine build ([`ENGINE_BUILD`]); entries written by a
//! different engine build are treated as misses, never as errors, so a
//! stale cache silently re-simulates instead of resurrecting results the
//! current engine would not produce.
//!
//! All I/O is best-effort: a corrupt, unreadable, or unwritable cache
//! degrades to simulating — it can slow a run down but never fail or
//! poison one.

use std::path::{Path, PathBuf};

use crate::session::SimKey;
use subcore_engine::{RunStats, ENGINE_BUILD};
use subcore_persist::record::Stamp;
use subcore_persist::JsonCodec;

/// The record stamp of a cache entry.
const ENTRY: Stamp = Stamp { kind: "simcache", version: 1, engine: Some(ENGINE_BUILD) };

/// A directory of memoized [`RunStats`], keyed by [`SimKey`].
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (without creating) a cache rooted at `dir`. The directory is
    /// created lazily on the first [`DiskCache::store`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of `key`'s entry (whether or not it exists). Public
    /// for cache tooling and the fault-injection harness, which corrupts
    /// entries in place to exercise the loader's degradation path.
    pub fn entry_path(&self, key: SimKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the entry for `key`, or `None` on any miss: absent file,
    /// unparsable JSON, or an entry from a different engine build.
    pub fn load(&self, key: SimKey) -> Option<RunStats> {
        ENTRY.load_as(&self.entry_path(key))
    }

    /// Stores `stats` under `key`, best-effort and atomically, so
    /// concurrent readers (and crashes) never observe a half-written entry.
    ///
    /// Returns whether the entry actually landed on disk; callers count
    /// `false` into the session telemetry (a read-only `results/` must not
    /// silently disable persistence).
    pub fn store(&self, key: SimKey, stats: &RunStats) -> bool {
        ENTRY.store(&self.entry_path(key), stats.to_json()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcore_engine::{ENGINE_VERSION, STATS_SCHEMA_VERSION};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("subcore-cache-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_stats() -> RunStats {
        RunStats { cycles: 12_345, instructions: 999, warp_cycles: 777, ..Default::default() }
    }

    #[test]
    fn round_trips_run_stats() {
        let dir = scratch("roundtrip");
        let cache = DiskCache::new(&dir);
        let key = SimKey::from_raw(0xDEAD_BEEF);
        assert!(cache.load(key).is_none(), "cold cache misses");
        cache.store(key, &sample_stats());
        assert_eq!(cache.load(key), Some(sample_stats()));
        assert!(cache.load(SimKey::from_raw(1)).is_none(), "other keys still miss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_foreign_engine_versions() {
        let dir = scratch("version");
        let cache = DiskCache::new(&dir);
        let key = SimKey::from_raw(7);
        cache.store(key, &sample_stats());
        let path = cache.entry_path(key);
        let stale =
            std::fs::read_to_string(&path).unwrap().replace(ENGINE_VERSION, "0.0.0-prehistoric");
        std::fs::write(&path, stale).unwrap();
        assert!(cache.load(key).is_none(), "version mismatch is a miss, not a hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_stale_schema_versions() {
        let dir = scratch("schema");
        let cache = DiskCache::new(&dir);
        let key = SimKey::from_raw(11);
        cache.store(key, &sample_stats());
        let path = cache.entry_path(key);
        let current = format!("\"stats_schema\":{STATS_SCHEMA_VERSION}");
        let entry = std::fs::read_to_string(&path).unwrap();
        assert!(entry.contains(&current), "entry carries the current schema version");
        std::fs::write(&path, entry.replace(&current, "\"stats_schema\":0")).unwrap();
        assert!(cache.load(key).is_none(), "stale schema version is a miss, not a hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tolerates_corrupt_entries() {
        let dir = scratch("corrupt");
        let cache = DiskCache::new(&dir);
        let key = SimKey::from_raw(9);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.entry_path(key), "{not json").unwrap();
        assert!(cache.load(key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_reports_failure_on_unwritable_root() {
        // A plain file where the cache directory should be: create_dir_all
        // fails, so the store must report (not swallow) the failure.
        let path =
            std::env::temp_dir().join(format!("subcore-cache-notadir-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, b"file, not dir").unwrap();
        let cache = DiskCache::new(&path);
        assert!(!cache.store(SimKey::from_raw(3), &sample_stats()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_stores_of_one_key_all_land() {
        // Two campaigns in one process can store the same key at once;
        // neither may see its write dropped or a reader see a torn entry.
        let dir = scratch("race");
        let cache = DiskCache::new(&dir);
        let key = SimKey::from_raw(0x5EED);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    let stats = RunStats { cycles: t, ..sample_stats() };
                    start.wait();
                    for _ in 0..50 {
                        assert!(cache.store(key, &stats), "a store was dropped");
                        assert!(cache.load(key).is_some(), "a reader saw a torn entry");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        /// Arbitrary byte-mutations of a valid on-disk entry never panic
        /// the loader: every corruption degrades to a miss or — when the
        /// mutation happens to keep the envelope intact — a well-formed
        /// hit. (The fault-injection harness relies on this: corrupted
        /// cache entries re-simulate instead of aborting a campaign.)
        #[test]
        fn loader_survives_arbitrary_entry_corruption(
            seed in proptest::any::<u64>(),
            edits in proptest::prop::collection::vec(
                (proptest::any::<u16>(), proptest::any::<u8>()),
                1..8,
            ),
        ) {
            let dir = scratch(&format!("fuzz-{seed:x}"));
            let cache = DiskCache::new(&dir);
            let key = SimKey::from_raw(seed);
            cache.store(key, &sample_stats());
            let path = cache.entry_path(key);
            let mut bytes = std::fs::read(&path).expect("entry written");
            for (pos, val) in edits {
                let i = pos as usize % bytes.len();
                bytes[i] = val;
            }
            std::fs::write(&path, &bytes).expect("rewrite entry");
            // Must not panic; any Some(..) result must be schema-valid.
            let _ = cache.load(key);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
