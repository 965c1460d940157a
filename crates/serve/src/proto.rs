//! Wire and record types of the serve daemon: job specifications,
//! durable job records, and structured submit/error responses — all
//! hand-rolled `subcore-persist` JSON (the build environment is offline;
//! serde is unfetchable).
//!
//! Every durable job file is a [`JOB_RECORD`]-stamped durable record
//! (`subcore_persist::record`), like the campaign journal's: a record from
//! a different build reads as absent — never a panic, never a misparse.

use subcore_engine::{RunStats, ENGINE_BUILD};
use subcore_persist::record::Stamp;
use subcore_persist::{Json, JsonCodec, JsonError};

/// The record stamp of a durable job file; bump `version` on layout
/// changes so stale queues read as absent instead of misparsing.
pub const JOB_RECORD: Stamp = Stamp { kind: "serve-job", version: 1, engine: Some(ENGINE_BUILD) };

/// One simulation request: the (app, design, config) cell to run.
///
/// The serve layer treats `app` and `design` as opaque labels — the
/// injected [`crate::Executor`] resolves them (and rejects unknown ones
/// at admission, before anything is queued).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Workload name (registry app or synthetic target).
    pub app: String,
    /// Design label (e.g. `baseline`, `rba`), executor-defined.
    pub design: String,
    /// SM count for the simulated GPU.
    pub sms: u32,
    /// Simulation cycle cap.
    pub max_cycles: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec { app: String::new(), design: "baseline".into(), sms: 2, max_cycles: 20_000_000 }
    }
}

impl JsonCodec for JobSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.clone())),
            ("design", Json::Str(self.design.clone())),
            ("sms", Json::Uint(u64::from(self.sms))),
            ("max_cycles", Json::Uint(self.max_cycles)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(JobSpec {
            app: json.field("app")?.as_str()?.to_owned(),
            design: json.field("design")?.as_str()?.to_owned(),
            sms: u32::try_from(json.field("sms")?.as_u64()?)
                .map_err(|_| JsonError { msg: "sms exceeds u32".into() })?,
            max_cycles: json.field("max_cycles")?.as_u64()?,
        })
    }
}

/// Lifecycle state of a serve job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// Owned by a worker under a heartbeat lease.
    Leased,
    /// Settled with a result.
    Done,
    /// Settled with a structured error.
    Failed,
}

impl JobState {
    /// Stable lowercase tag used in record files and API responses.
    pub fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Leased => "leased",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parses a [`JobState::tag`] back.
    pub fn from_tag(tag: &str) -> Option<JobState> {
        match tag {
            "queued" => Some(JobState::Queued),
            "leased" => Some(JobState::Leased),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }

    /// Whether the state is settled (done or failed).
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// A structured execution error: what failed (`kind` is a stable tag —
/// `invalid`, `panic`, `sim-error`, `timeout`, `lease-expired`, `io`)
/// and a human-readable message. This is what every waiter of a failed
/// job receives; it never poisons the coalescing map (a fresh submit of
/// the same cell starts a new job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Stable failure classification tag.
    pub kind: String,
    /// Human-readable payload (panic message, simulator error, ...).
    pub message: String,
}

impl ExecError {
    /// An error with an arbitrary stable kind tag.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> ExecError {
        ExecError { kind: kind.into(), message: message.into() }
    }

    /// A malformed or unresolvable request (rejected at admission).
    pub fn invalid(message: impl Into<String>) -> ExecError {
        ExecError::new("invalid", message)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl JsonCodec for ExecError {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.clone())),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ExecError {
            kind: json.field("kind")?.as_str()?.to_owned(),
            message: json.field("message")?.as_str()?.to_owned(),
        })
    }
}

/// One durable job: the unit the queue journals, leases, and settles.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Monotonic job id (also the durable file name).
    pub id: u64,
    /// The request.
    pub spec: JobSpec,
    /// Content fingerprint (the cell's `SimKey`), the coalescing key.
    pub key: u64,
    /// Cost-model predicted cycles, captured at admission.
    pub predicted_cycles: u64,
    /// Watchdog budget derived from the prediction, milliseconds.
    pub budget_ms: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Execution attempts consumed (lease grants).
    pub attempts: u32,
    /// The result, for [`JobState::Done`] (boxed: `RunStats` dwarfs the
    /// rest of the record).
    pub stats: Option<Box<RunStats>>,
    /// The structured failure, for [`JobState::Failed`].
    pub error: Option<ExecError>,
}

impl JsonCodec for JobRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Uint(self.id)),
            ("spec", self.spec.to_json()),
            ("key", Json::Uint(self.key)),
            ("predicted_cycles", Json::Uint(self.predicted_cycles)),
            ("budget_ms", Json::Uint(self.budget_ms)),
            ("state", Json::Str(self.state.tag().to_owned())),
            ("attempts", Json::Uint(u64::from(self.attempts))),
            ("stats", self.stats.as_ref().map_or(Json::Null, |s| s.to_json())),
            ("error", self.error.as_ref().map_or(Json::Null, JsonCodec::to_json)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let state = JobState::from_tag(json.field("state")?.as_str()?)
            .ok_or(JsonError { msg: "unknown job state".into() })?;
        let stats = match json.field("stats")? {
            Json::Null => None,
            s => Some(Box::new(RunStats::from_json(s)?)),
        };
        let error = match json.field("error")? {
            Json::Null => None,
            e => Some(ExecError::from_json(e)?),
        };
        Ok(JobRecord {
            id: json.field("id")?.as_u64()?,
            spec: JobSpec::from_json(json.field("spec")?)?,
            key: json.field("key")?.as_u64()?,
            predicted_cycles: json.field("predicted_cycles")?.as_u64()?,
            budget_ms: json.field("budget_ms")?.as_u64()?,
            state,
            attempts: u32::try_from(json.field("attempts")?.as_u64()?)
                .map_err(|_| JsonError { msg: "attempts exceeds u32".into() })?,
            stats,
            error,
        })
    }
}

/// Structured admission response.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// The request was admitted — either as a fresh job or coalesced
    /// onto an existing job with the same content fingerprint.
    Accepted {
        /// The job to poll.
        id: u64,
        /// Content fingerprint of the cell.
        key: u64,
        /// Whether an existing job absorbed this request.
        coalesced: bool,
        /// Cost-model predicted cycles for the cell.
        predicted_cycles: u64,
        /// Watchdog budget derived from the prediction, milliseconds.
        budget_ms: u64,
    },
    /// The request was shed by bounded admission: the queue is full (or
    /// the daemon is draining). `retry_after_ms` is derived from the
    /// predicted backlog, so clients can back off proportionally.
    Shed {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
        /// Jobs admitted but unsettled at rejection time.
        depth: u64,
        /// The admission cap.
        capacity: u64,
        /// Why the request was shed (`queue-full` or `draining`).
        reason: String,
    },
}

impl JsonCodec for SubmitOutcome {
    fn to_json(&self) -> Json {
        match self {
            SubmitOutcome::Accepted { id, key, coalesced, predicted_cycles, budget_ms } => {
                Json::obj([
                    ("accepted", Json::Bool(true)),
                    ("id", Json::Uint(*id)),
                    ("key", Json::Uint(*key)),
                    ("coalesced", Json::Bool(*coalesced)),
                    ("predicted_cycles", Json::Uint(*predicted_cycles)),
                    ("budget_ms", Json::Uint(*budget_ms)),
                ])
            }
            SubmitOutcome::Shed { retry_after_ms, depth, capacity, reason } => Json::obj([
                ("accepted", Json::Bool(false)),
                ("retry_after_ms", Json::Uint(*retry_after_ms)),
                ("depth", Json::Uint(*depth)),
                ("capacity", Json::Uint(*capacity)),
                ("reason", Json::Str(reason.clone())),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if json.field("accepted")?.as_bool()? {
            Ok(SubmitOutcome::Accepted {
                id: json.field("id")?.as_u64()?,
                key: json.field("key")?.as_u64()?,
                coalesced: json.field("coalesced")?.as_bool()?,
                predicted_cycles: json.field("predicted_cycles")?.as_u64()?,
                budget_ms: json.field("budget_ms")?.as_u64()?,
            })
        } else {
            Ok(SubmitOutcome::Shed {
                retry_after_ms: json.field("retry_after_ms")?.as_u64()?,
                depth: json.field("depth")?.as_u64()?,
                capacity: json.field("capacity")?.as_u64()?,
                reason: json.field("reason")?.as_str()?.to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_record_roundtrip() {
        let rec = JobRecord {
            id: 7,
            spec: JobSpec { app: "pb-sgemm".into(), ..JobSpec::default() },
            key: 0xdead_beef,
            predicted_cycles: 123_456,
            budget_ms: 120_000,
            state: JobState::Done,
            attempts: 2,
            stats: Some(Box::new(RunStats { cycles: 42, instructions: 10, ..RunStats::default() })),
            error: None,
        };
        let back = JobRecord::from_json(&Json::parse(&rec.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn stale_version_is_a_miss() {
        let rec = JobRecord {
            id: 1,
            spec: JobSpec::default(),
            key: 1,
            predicted_cycles: 1,
            budget_ms: 1,
            state: JobState::Queued,
            attempts: 0,
            stats: None,
            error: None,
        };
        let newer = Stamp { version: JOB_RECORD.version + 1, ..JOB_RECORD };
        assert!(JOB_RECORD.open(newer.wrap(rec.to_json())).is_none());
        assert!(JOB_RECORD.open(JOB_RECORD.wrap(rec.to_json())).is_some());
    }

    #[test]
    fn submit_outcome_roundtrip() {
        for outcome in [
            SubmitOutcome::Accepted {
                id: 3,
                key: 9,
                coalesced: true,
                predicted_cycles: 55,
                budget_ms: 1000,
            },
            SubmitOutcome::Shed {
                retry_after_ms: 250,
                depth: 8,
                capacity: 8,
                reason: "queue-full".into(),
            },
        ] {
            let back = SubmitOutcome::from_json(&Json::parse(&outcome.to_json().render()).unwrap())
                .unwrap();
            assert_eq!(back, outcome);
        }
    }
}
