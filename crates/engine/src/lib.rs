//! Cycle-level model of a sub-core-partitioned GPU streaming multiprocessor
//! (SM), reproducing the simulation infrastructure of *Mitigating GPU Core
//! Partitioning Performance Effects* (HPCA 2023).
//!
//! # Model
//!
//! Each SM is split into *scheduler domains*. In
//! [`Connectivity::Partitioned`] mode (today's hardware) every domain is a
//! sub-core owning one warp scheduler, a private slice of collector units,
//! register-file banks and execution units; in
//! [`Connectivity::FullyConnected`] mode (the paper's hypothetical
//! monolithic SM) a single domain owns the same aggregate resources and can
//! issue up to `subcores_per_sm` warps per cycle from the shared pool.
//!
//! Per cycle, each domain:
//!
//! 1. **writes back** finished instructions (clearing the scoreboard),
//! 2. **grants** one register-read request per bank from the arbitration
//!    queues into collector units,
//! 3. **dispatches** fully collected instructions to execution pipelines
//!    (loads/stores are coalesced and walked through the shared
//!    L1/L2/DRAM hierarchy),
//! 4. **issues** one warp instruction chosen by the pluggable
//!    [`WarpSelector`] (allocating a collector unit and enqueueing one bank
//!    read per source operand), and
//! 5. **fetches** into per-warp instruction buffers.
//!
//! Thread blocks are pinned to sub-cores warp-by-warp at scheduling time by
//! the pluggable [`SubcoreAssigner`], and all block resources (warp slots,
//! registers, shared memory) are released only when the *entire* block
//! exits — the mechanism that converts inter-warp divergence into sub-core
//! stalls.
//!
//! The hardware baselines (GTO warp scheduling, round-robin assignment) are
//! built in; the paper's novel policies live in the `subcore-sched` crate.
//!
//! # Entry point
//!
//! [`simulate`] is the one way in: it takes a [`Workload`] (one app that
//! owns every SM, or a list of [`TenantRun`]s on SM partitions) and any
//! trace sinks, validates once, and runs the one main loop.
//! [`simulate_app`] and [`simulate_tenants`] are its sink-less shorthands.
//!
//! ```
//! use subcore_engine::{simulate, GpuConfig, Policies, Workload};
//! use subcore_isa::{fma_kernel, App, Suite};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = GpuConfig::volta_v100().with_sms(1);
//! let app = App::new("demo", Suite::Micro, vec![fma_kernel("demo", 8, 8, 256)]);
//! let stats = simulate(&cfg, &Policies::hardware_baseline(), Workload::App(&app), Vec::new())?;
//! println!("{} cycles, IPC {:.2}", stats.cycles, stats.ipc());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod collector;
mod config;
mod exec;
mod gpu;
mod policy;
mod scoreboard;
mod sm;
mod stats;
mod tenant;
mod warp;

pub use config::{
    Connectivity, DomainShape, EngineMode, ExecTimings, GpuConfig, PipeTiming, RuleClass,
    StatsConfig,
};
pub use gpu::{
    simulate, simulate_app, simulate_app_reported, simulate_tenants, simulate_tenants_reported,
    EngineReport, Workload,
};
pub use policy::{
    AssignerFactory, GtoSelector, IssueCandidate, IssueView, LrrSelector, Policies,
    RoundRobinAssigner, SelectorFactory, SubcoreAssigner, WarpSelector,
};
pub use scoreboard::Scoreboard;
pub use sm::bank_of_register;
pub use stats::{
    RunStats, SimError, StallBreakdown, TenantStats, ENGINE_BUILD, ENGINE_VERSION,
    STATS_SCHEMA_VERSION,
};
pub use tenant::{SmSet, TenantRun};
// The probe-event vocabulary and sinks live in `subcore-trace`; re-export
// them so downstream crates need only depend on the engine.
pub use subcore_trace::{
    JsonlSink, NullSink, StallKind, TraceEvent, TraceSink, Tracer, WindowAggregator, WindowStats,
    WindowedSeries, MAX_TRACED_BANKS,
};
