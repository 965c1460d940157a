//! Deterministic, seeded fault injection for the supervised sweep layer.
//!
//! `repro chaos --seed S --fault-rate P` hands its faulted sweep a
//! [`FaultPlan`] (the `faults` field of [`crate::sweep::SweepEnv`]); the
//! sweep worker then consults [`FaultPlan::fault_for`] before each cell
//! runs and injects the drawn fault. Draws are a pure function of
//! `(seed, SimKey)` via [`subcore_persist::stable_fingerprint`], so a given
//! seed always faults the same cells in the same way — across reorderings,
//! worker counts, processes and passes — which is what lets the chaos
//! harness assert bit-exact recovery (see [`crate::chaos`]). It is also
//! why a campaign resumes without the plan: under it, the cells that
//! failed would fail again.
//!
//! Two fault classes cover the supervisor's failure surface:
//!
//! - [`Fault::Panic`] — the worker panics mid-cell (exercises capture: the
//!   cell settles as a failure, and a resume recomputes it). The sweep
//!   raises it with `std::panic::resume_unwind`, which skips the panic
//!   hook, so a deliberate fault prints no panic report;
//! - [`Fault::CorruptEntry`] — the cell's on-disk cache entry is
//!   overwritten with garbage after it completes (exercises the loader's
//!   corruption tolerance on the next process's resume).

use std::path::Path;

use crate::session::SimKey;
use subcore_persist::stable_fingerprint;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Panic before the cell simulates.
    Panic,
    /// Complete normally, then overwrite the cell's disk-cache entry with
    /// garbage.
    CorruptEntry,
}

/// A seeded fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-cell draws.
    pub seed: u64,
    /// Probability a given cell draws a fault, in `0..=1`.
    pub rate: f64,
}

impl FaultPlan {
    /// A plan drawing faults at `rate`, clamped to `0..=1`.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, rate: rate.clamp(0.0, 1.0) }
    }

    /// The fault (if any) for `key`. Pure: the same plan and key always
    /// draw the same outcome.
    pub fn fault_for(&self, key: SimKey) -> Option<Fault> {
        let h = stable_fingerprint(&(self.seed, key.as_u64()));
        // Top 53 bits → a uniform draw in [0, 1).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        // The low bit (independent of the draw bits' high weight) picks
        // the class, evenly across the two.
        Some(if h.is_multiple_of(2) { Fault::Panic } else { Fault::CorruptEntry })
    }
}

/// Overwrites `path` with garbage bytes, best-effort — the
/// [`Fault::CorruptEntry`] payload. The content is deliberately not valid
/// JSON so the loader's corruption path (not its version gate) is what
/// recovers.
pub fn corrupt_file(path: &Path) {
    std::fs::write(path, b"\x7fCHAOS{corrupted-by-fault-injection").ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        let plan = FaultPlan::new(42, 0.5);
        for raw in 0..200u64 {
            let key = SimKey::from_raw(raw);
            assert_eq!(plan.fault_for(key), plan.fault_for(key));
        }
    }

    #[test]
    fn rate_zero_never_faults_rate_one_always_faults() {
        let never = FaultPlan::new(7, 0.0);
        let always = FaultPlan::new(7, 1.0);
        for raw in 0..200u64 {
            let key = SimKey::from_raw(raw);
            assert_eq!(never.fault_for(key), None);
            assert!(always.fault_for(key).is_some());
        }
    }

    #[test]
    fn rate_is_roughly_respected_and_classes_all_occur() {
        let plan = FaultPlan::new(42, 0.3);
        let mut hits = 0;
        let mut classes = std::collections::HashSet::new();
        let n = 2000u64;
        for raw in 0..n {
            if let Some(fault) = plan.fault_for(SimKey::from_raw(raw)) {
                hits += 1;
                classes.insert(fault);
            }
        }
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.3).abs() < 0.05, "rate 0.3 drew {observed}");
        assert_eq!(classes.len(), 2, "both fault classes occur: {classes:?}");
    }

    #[test]
    fn rate_clamps_to_unit_interval() {
        assert_eq!(FaultPlan::new(1, -3.0).rate, 0.0);
        assert_eq!(FaultPlan::new(1, 7.0).rate, 1.0);
    }

    #[test]
    fn corrupt_file_leaves_invalid_json() {
        let path =
            std::env::temp_dir().join(format!("subcore-faultgen-corrupt-{}", std::process::id()));
        std::fs::write(&path, "{\"valid\": true}").unwrap();
        corrupt_file(&path);
        let bytes = std::fs::read(&path).unwrap();
        assert!(subcore_persist::Json::parse(&String::from_utf8_lossy(&bytes)).is_err());
        std::fs::remove_file(&path).ok();
    }
}
