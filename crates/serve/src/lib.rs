//! `subcore-serve` — the crash-tolerant simulation daemon.
//!
//! The batch layer (supervisor + journal, PR 5) made single campaigns
//! fault-isolated and resumable; this crate extends those semantics
//! *across process restarts and many clients*: a long-running daemon
//! accepting simulation requests over a hand-rolled HTTP/1.1 API on
//! `std::net`, backed by
//!
//! - a **durable job queue** ([`queue`]): one atomically-written
//!   (temp + rename) JSON record per job, version-enveloped and
//!   corruption-tolerant, so a SIGKILL'd daemon restarts and replays
//!   with no lost and no duplicated jobs;
//! - **lease-based ownership** ([`server`]): workers heartbeat their
//!   claims; a wedged worker's lease expires and the job is reclaimed
//!   and retried, failing structurally once attempts are exhausted;
//! - **bounded admission** with backpressure: a queue-depth cap sheds
//!   excess submissions with a structured retry-after derived from the
//!   predicted backlog (cost-model cycles over an assumed rate);
//! - **cross-client coalescing**: submissions are keyed by a content
//!   fingerprint (the cell's `SimKey`), so N clients asking for the
//!   same cell share one simulation — with failure isolation: a failed
//!   job answers its waiters with a structured error and leaves the
//!   coalescing map, so a fresh submit starts clean;
//! - **graceful drain** ([`http`]): `POST /drain` (the SIGTERM stand-in
//!   — this crate forbids `unsafe`, so no signal handler) stops
//!   admission, finishes or persists in-flight work, and lets the
//!   daemon exit 0.
//!
//! The crate knows nothing about the simulator beyond
//! [`subcore_engine::RunStats`]: the [`Executor`] trait resolves a spec
//! once at admission into its fingerprint, cost prediction and run, which
//! the `repro` harness implements over its `SimSession`.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{http_call, poll_until, read_addr_file, write_addr_file};
pub use proto::{ExecError, JobRecord, JobSpec, JobState, SubmitOutcome, QUEUE_VERSION};
pub use queue::{DurableQueue, RecoveryReport};
pub use server::{Admitted, Executor, Run, ServeOptions, Server};
