//! Durable records: the one way the workspace puts a file on disk for a
//! later run, another process, or a restarted daemon to read back.
//!
//! Three jobs, each done here once:
//!
//! * **Write** — [`write_atomic`] puts bytes at a path through a temporary
//!   file in the same directory and a rename, so a reader sees the old
//!   file or the new one, never a torn one. The temporary name is unique
//!   per write (process id plus a per-process sequence number), so
//!   concurrent writers of one path never share a temporary file: the last
//!   rename wins, whole. A failed write removes its temporary file and
//!   returns the error; the caller counts the drop in its own counter
//!   (`session.cache.store_drop`, `journal.write_drop`, the daemon's
//!   `persist_failures`).
//! * **Envelope** — [`Stamp::store`] writes a JSON record as
//!   `{"kind", "version", "engine_version", "stats_schema", "body"}`; the
//!   two engine fields are present only for kinds whose body holds
//!   simulation results ([`Stamp::engine`]).
//! * **Tolerant read** — [`Stamp::load`] returns the body only when the
//!   file parses and its envelope equals the reader's stamp exactly. An
//!   absent, unreadable, corrupt, foreign-kind or stale file is a miss
//!   (`None`), never an error and never a panic: callers recompute.
//!
//! # Durability contract
//!
//! Records are **process-crash-safe**, not power-loss-safe. Once a write
//! has returned `Ok`, the record survives the writing process dying at any
//! later instant, `SIGKILL` included: the rename is atomic in the file
//! system's namespace and the kernel already holds the data. Nothing here
//! calls `fsync`. After a kernel crash or a power loss, a record written
//! in the last few seconds may be missing, or — on file systems that
//! persist the rename before the data — present but empty. Both read as
//! misses, so a machine crash costs recomputation, never a wrong result.
//! [`DURABILITY`] names this contract where it is reported (the serve
//! daemon's `/healthz`).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Json, JsonCodec};

/// The durability contract of every record this module writes (see the
/// module docs), in the words reports use.
pub const DURABILITY: &str = "process-crash-safe";

/// The engine build a record's simulation results came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineBuild {
    /// The engine crate version.
    pub version: &'static str,
    /// The `RunStats` schema version.
    pub stats_schema: u32,
}

/// The identity a record is written with and must match to be read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// What the record holds (`simcache`, `journal-cell`, ...). A record
    /// of another kind never reads as this one.
    pub kind: &'static str,
    /// Layout version of this kind; bump it on an incompatible change so
    /// older files read as misses instead of misparsing.
    pub version: u32,
    /// For kinds whose body holds simulation results, the engine build
    /// that produced them: results from any other build read as misses.
    pub engine: Option<EngineBuild>,
}

impl Stamp {
    /// The envelope fields other than `body`.
    fn header(&self) -> BTreeMap<String, Json> {
        let mut header = BTreeMap::new();
        header.insert("kind".to_owned(), Json::Str(self.kind.to_owned()));
        header.insert("version".to_owned(), Json::Uint(u64::from(self.version)));
        if let Some(engine) = self.engine {
            header.insert("engine_version".to_owned(), Json::Str(engine.version.to_owned()));
            header.insert("stats_schema".to_owned(), Json::Uint(u64::from(engine.stats_schema)));
        }
        header
    }

    /// Wraps `body` in this stamp's envelope.
    #[must_use]
    pub fn wrap(&self, body: Json) -> Json {
        let mut envelope = self.header();
        envelope.insert("body".to_owned(), body);
        Json::Obj(envelope)
    }

    /// The body of `envelope`, if its envelope is exactly this stamp's.
    #[must_use]
    pub fn open(&self, envelope: Json) -> Option<Json> {
        let Json::Obj(mut fields) = envelope else { return None };
        let body = fields.remove("body")?;
        (fields == self.header()).then_some(body)
    }

    /// Parses `text` and opens it; `None` on any parse error or mismatch.
    #[must_use]
    pub fn decode(&self, text: &str) -> Option<Json> {
        self.open(Json::parse(text).ok()?)
    }

    /// Writes `body` to `path` in this stamp's envelope, atomically (see
    /// [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// Any filesystem error; nothing is left behind at `path` or beside it.
    pub fn store(&self, path: &Path, body: Json) -> io::Result<()> {
        write_atomic(path, self.wrap(body).render())
    }

    /// The body stored at `path`, or `None` if the file is absent,
    /// unreadable, corrupt, or stamped differently.
    #[must_use]
    pub fn load(&self, path: &Path) -> Option<Json> {
        self.decode(&fs::read_to_string(path).ok()?)
    }

    /// [`Stamp::load`] decoded as `T`; a body that does not decode is a
    /// miss like any other.
    #[must_use]
    pub fn load_as<T: JsonCodec>(&self, path: &Path) -> Option<T> {
        T::from_json(&self.load(path)?).ok()
    }

    /// Loads every record directly under `dir` whose file name passes
    /// `keep` (temporary files never do), in file-name order. Returns the
    /// bodies that opened and the number of kept files that did not.
    #[must_use]
    pub fn scan(&self, dir: &Path, keep: impl Fn(&str) -> bool) -> (Vec<Json>, usize) {
        let Ok(entries) = fs::read_dir(dir) else { return (Vec::new(), 0) };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| {
                let name = path.file_name().and_then(|n| n.to_str());
                name.is_some_and(|name| !name.starts_with('.') && keep(name))
            })
            .collect();
        paths.sort();
        let bodies: Vec<Json> = paths.iter().filter_map(|path| self.load(path)).collect();
        let missed = paths.len() - bodies.len();
        (bodies, missed)
    }
}

/// Writes `bytes` to `path` through a uniquely named temporary file in
/// the same directory (created as needed) and a rename, so no reader ever
/// sees a partial file and concurrent writers of `path` never interfere.
///
/// # Errors
///
/// Any filesystem error; the temporary file is removed on failure.
pub fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or(Path::new(""));
    fs::create_dir_all(dir)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("record");
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        fs::remove_file(&tmp).ok();
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: Stamp = Stamp { kind: "test-plain", version: 2, engine: None };
    const RESULTS: Stamp = Stamp {
        kind: "test-results",
        version: 1,
        engine: Some(EngineBuild { version: "1.2.3", stats_schema: 4 }),
    };

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("subcore-record-{name}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn body() -> Json {
        Json::obj([("cycles", Json::Uint(42)), ("app", Json::Str("fma".into()))])
    }

    #[test]
    fn store_then_load_round_trips_the_body() {
        let dir = scratch("roundtrip");
        let path = dir.join("nested").join("a.json");
        assert_eq!(RESULTS.load(&path), None, "absent is a miss");
        RESULTS.store(&path, body()).unwrap();
        assert_eq!(RESULTS.load(&path), Some(body()));
        PLAIN.store(&path, body()).unwrap();
        assert_eq!(PLAIN.load(&path), Some(body()), "a store replaces the old record");
        let names: Vec<_> = fs::read_dir(path.parent().unwrap()).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "no temporary file is left behind");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_names_kind_version_and_engine_build() {
        let text = RESULTS.wrap(body()).render();
        assert_eq!(
            text,
            "{\"body\":{\"app\":\"fma\",\"cycles\":42},\"engine_version\":\"1.2.3\",\
             \"kind\":\"test-results\",\"stats_schema\":4,\"version\":1}"
        );
        assert_eq!(
            PLAIN.wrap(Json::Null).render(),
            "{\"body\":null,\"kind\":\"test-plain\",\"version\":2}"
        );
    }

    #[test]
    fn any_other_stamp_is_a_miss() {
        let engine = RESULTS.engine.unwrap();
        let others = [
            Stamp { kind: "test-other", ..RESULTS },
            Stamp { version: 2, ..RESULTS },
            Stamp { engine: None, ..RESULTS },
            Stamp { engine: Some(EngineBuild { version: "0.0.1", ..engine }), ..RESULTS },
            Stamp { engine: Some(EngineBuild { stats_schema: 3, ..engine }), ..RESULTS },
        ];
        for other in others {
            assert_eq!(RESULTS.open(other.wrap(body())), None, "{other:?} must not open");
            assert_eq!(other.open(RESULTS.wrap(body())), None, "{other:?} must not open");
        }
        assert_eq!(RESULTS.open(RESULTS.wrap(body())), Some(body()));
    }

    #[test]
    fn malformed_envelopes_are_misses() {
        let mut extra = RESULTS.wrap(body());
        if let Json::Obj(fields) = &mut extra {
            fields.insert("written_by".into(), Json::Str("someone".into()));
        }
        let no_body = Json::Obj(RESULTS.header());
        for bad in [extra, no_body, Json::Arr(vec![]), body()] {
            assert_eq!(RESULTS.open(bad.clone()), None, "{bad:?} must not open");
        }
        for text in ["", "{", "null", "{\"body\":1}", "\u{7f}garbage"] {
            assert_eq!(RESULTS.decode(text), None, "`{text}` must not decode");
        }
    }

    #[test]
    fn load_as_treats_undecodable_bodies_as_misses() {
        struct Cycles(u64);
        impl JsonCodec for Cycles {
            fn to_json(&self) -> Json {
                Json::obj([("cycles", Json::Uint(self.0))])
            }
            fn from_json(json: &Json) -> Result<Self, crate::JsonError> {
                json.field("cycles")?.as_u64().map(Cycles)
            }
        }
        let dir = scratch("load-as");
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        PLAIN.store(&good, Cycles(7).to_json()).unwrap();
        PLAIN.store(&bad, Json::Str("not cycles".into())).unwrap();
        assert_eq!(PLAIN.load_as::<Cycles>(&good).map(|c| c.0), Some(7));
        assert!(PLAIN.load_as::<Cycles>(&bad).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_keeps_named_records_and_counts_the_rest() {
        let dir = scratch("scan");
        assert_eq!(PLAIN.scan(&dir, |_| true), (vec![], 0), "an absent directory is empty");
        PLAIN.store(&dir.join("b.json"), Json::Uint(2)).unwrap();
        PLAIN.store(&dir.join("a.json"), Json::Uint(1)).unwrap();
        RESULTS.store(&dir.join("stale.json"), Json::Uint(3)).unwrap();
        fs::write(dir.join("torn.json"), "{\"body\":").unwrap();
        fs::write(dir.join(".c.json.1.0.tmp"), PLAIN.wrap(Json::Uint(9)).render()).unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let (bodies, missed) = PLAIN.scan(&dir, |name| name.ends_with(".json"));
        assert_eq!(bodies, vec![Json::Uint(1), Json::Uint(2)], "file-name order");
        assert_eq!(missed, 2, "the stale and the torn record");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_reports_failure_and_leaves_nothing() {
        let file = scratch("notadir");
        fs::write(&file, b"file, not dir").unwrap();
        assert!(write_atomic(&file.join("x.json"), "x").is_err(), "parent is a file");
        assert!(PLAIN.store(&file.join("x.json"), Json::Null).is_err());
        let dir = scratch("target-is-dir");
        fs::create_dir_all(dir.join("occupied")).unwrap();
        assert!(write_atomic(&dir.join("occupied"), "x").is_err(), "rename onto a directory");
        let left: Vec<_> = fs::read_dir(&dir).unwrap().flatten().map(|e| e.file_name()).collect();
        assert_eq!(left, ["occupied"], "the temporary file was removed");
        fs::remove_file(&file).ok();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_of_one_path_never_tear_or_drop() {
        let dir = scratch("race");
        let path = dir.join("shared.json");
        let payloads: Vec<String> =
            (0..8).map(|t| format!("{t}").repeat(1000 + t * 1000)).collect();
        let start = std::sync::Barrier::new(payloads.len());
        let (path, payloads, start) = (&path, &payloads, &start);
        std::thread::scope(|s| {
            for payload in payloads {
                s.spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        write_atomic(path, payload).expect("every write lands");
                        let seen = fs::read_to_string(path).expect("the path always exists");
                        assert!(payloads.contains(&seen), "torn read of {} bytes", seen.len());
                    }
                });
            }
        });
        let left = fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, 1, "no temporary file is left behind");
        fs::remove_dir_all(&dir).ok();
    }
}
