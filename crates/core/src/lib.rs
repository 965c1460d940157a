//! The core contribution of *Mitigating GPU Core Partitioning Performance
//! Effects* (HPCA 2023): scheduling mechanisms that recover the performance
//! lost to SM sub-core partitioning.
//!
//! Two orthogonal mechanisms are provided, plugging into the
//! `subcore-engine` simulator through its [`subcore_engine::WarpSelector`]
//! and [`subcore_engine::SubcoreAssigner`] traits:
//!
//! * **[`RbaSelector`] — Register-Bank-Aware warp scheduling** (§IV-A).
//!   Each ready warp instruction is scored by the summed pending-request
//!   queue lengths of the register banks its source operands live in; the
//!   lowest-scoring instruction issues, with greedy-then-oldest order
//!   breaking ties. This steers issue toward warps whose operands land on
//!   idle banks, recovering most of the throughput a 2-bank sub-core
//!   register file loses to conflicts — at ~1% of the area/power cost of
//!   doubling collector units.
//!
//! * **Hashed sub-core warp assignment** (§IV-B). Replaces the silicon
//!   round-robin warp → sub-core multiplexer with a hash-function table:
//!   [`SkewedRoundRobinAssigner`] (SRR, `subcore = (W + ⌊W/N⌋) mod N`)
//!   targets the 1-long-warp-in-4 pattern of TPC-H-style warp-specialized
//!   kernels, and [`ShuffleAssigner`] randomly permutes warps onto
//!   sub-cores while keeping per-sub-core counts within one of each other,
//!   eliminating pathological imbalances for any divergence pattern.
//!
//! [`Design`] enumerates the named design points evaluated throughout the
//! paper (baseline, RBA, SRR, Shuffle, Shuffle+RBA, fully-connected, CU
//! scaling, bank stealing) and turns each into a `(GpuConfig, Policies)`
//! pair ready to simulate.
//!
//! # Example
//!
//! ```
//! use subcore_engine::{simulate, GpuConfig, Workload};
//! use subcore_isa::{fma_kernel, App, Suite};
//! use subcore_sched::Design;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = GpuConfig::volta_v100().with_sms(1);
//! let app = App::new("demo", Suite::Micro, vec![fma_kernel("demo", 8, 8, 128)]);
//! let run = |d: Design| simulate(&d.config(&cfg), &d.policies(), Workload::App(&app), Vec::new());
//! let (base, rba) = (run(Design::Baseline)?, run(Design::Rba)?);
//! println!("RBA speedup: {:.3}", base.cycles as f64 / rba.cycles as f64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod assign;
mod classic;
mod design;
mod partition;
mod rba;

pub use assign::{HashTableAssigner, ShuffleAssigner, ShuffleMode, SkewedRoundRobinAssigner};
pub use classic::{LaggingWarpSelector, OldestFirstSelector, TwoLevelSelector};
pub use design::{Design, PolicyClass};
pub use partition::{PartitionPolicy, PARTITION_POLICIES};
pub use rba::RbaSelector;
// The register→bank swizzle the RBA score is computed over; re-exported so
// static analyses built on the scheduling crate use the exact engine mapping.
pub use subcore_engine::bank_of_register;
