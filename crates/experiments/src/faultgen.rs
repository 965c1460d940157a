//! Deterministic, seeded fault injection for the supervised sweep layer.
//!
//! `repro chaos --seed S --fault-rate P` hands its sweeps a [`FaultPlan`]
//! (the `faults` field of [`crate::sweep::SweepEnv`]); the sweep worker
//! then consults [`FaultPlan::fault_for`] before each cell attempt and
//! injects the drawn fault. Draws are a pure function of
//! `(seed, SimKey, attempt)` via [`subcore_persist::stable_fingerprint`],
//! so a given seed always faults the same cells in the same way — across
//! reorderings, worker counts, and processes — which is what lets the
//! chaos harness assert bit-exact recovery (see [`crate::chaos`]).
//!
//! Three fault classes cover the supervisor's failure surface:
//!
//! - [`Fault::Panic`] — the worker panics mid-cell (exercises capture +
//!   retry; a retried attempt redraws, so most injected panics recover);
//! - [`Fault::Stall`] — the worker sleeps past the job deadline
//!   (exercises the watchdog's abandon path);
//! - [`Fault::CorruptEntry`] — the cell's on-disk cache entry is
//!   overwritten with garbage after it completes (exercises the loader's
//!   corruption tolerance on the next process's resume).

use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use crate::session::SimKey;
use subcore_persist::stable_fingerprint;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Panic before the cell simulates.
    Panic,
    /// Sleep for the plan's stall duration before the cell simulates
    /// (long enough to trip the chaos harness's watchdog deadline).
    Stall,
    /// Complete normally, then overwrite the cell's disk-cache entry with
    /// garbage.
    CorruptEntry,
}

/// A seeded fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-cell draws.
    pub seed: u64,
    /// Probability a given `(cell, attempt)` draws a fault, in `0..=1`.
    pub rate: f64,
    /// How long a [`Fault::Stall`] sleeps.
    pub stall: Duration,
}

impl FaultPlan {
    /// A plan with the default stall length (used by `repro chaos`; the
    /// harness pairs it with a shorter watchdog deadline).
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan { seed, rate: rate.clamp(0.0, 1.0), stall: Duration::from_secs(3) }
    }

    /// The fault (if any) for `key` on 1-based `attempt`. Pure: the same
    /// plan, key, and attempt always draw the same outcome. Retried
    /// attempts redraw, so transient injected panics usually recover —
    /// exactly the behaviour the retry budget exists for.
    pub fn fault_for(&self, key: SimKey, attempt: u32) -> Option<Fault> {
        let h = stable_fingerprint(&(self.seed, key.as_u64(), attempt));
        // Top 53 bits → a uniform draw in [0, 1).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= self.rate {
            return None;
        }
        // Low bits (independent of the draw bits' high weight) pick the
        // class, evenly across the three.
        Some(match h % 3 {
            0 => Fault::Panic,
            1 => Fault::Stall,
            _ => Fault::CorruptEntry,
        })
    }
}

/// Installs (once, process-wide) a panic hook that silences the default
/// backtrace report for *injected* panics only — the chaos drill injects
/// panics by design, and a verify-gate log full of deliberate backtraces
/// would bury real failures. Every other panic keeps the full default
/// report, so the hook is safe to leave installed.
pub fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault:"));
            if !injected {
                prev(info);
            }
        }));
    });
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
            assert_eq!(plan.fault_for(key, 1), plan.fault_for(key, 1));
            assert_eq!(plan.fault_for(key, 2), plan.fault_for(key, 2));
        }
    }

    #[test]
    fn rate_zero_never_faults_rate_one_always_faults() {
        let never = FaultPlan::new(7, 0.0);
        let always = FaultPlan::new(7, 1.0);
        for raw in 0..200u64 {
            let key = SimKey::from_raw(raw);
            assert_eq!(never.fault_for(key, 1), None);
            assert!(always.fault_for(key, 1).is_some());
        }
    }

    #[test]
    fn rate_is_roughly_respected_and_classes_all_occur() {
        let plan = FaultPlan::new(42, 0.3);
        let mut hits = 0;
        let mut classes = std::collections::HashSet::new();
        let n = 2000u64;
        for raw in 0..n {
            if let Some(fault) = plan.fault_for(SimKey::from_raw(raw), 1) {
                hits += 1;
                classes.insert(fault);
            }
        }
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.3).abs() < 0.05, "rate 0.3 drew {observed}");
        assert_eq!(classes.len(), 3, "all three fault classes occur: {classes:?}");
    }

    #[test]
    fn attempts_redraw_independently() {
        // With rate 0.5, some key must fault on attempt 1 but not 2 —
        // otherwise retries could never recover injected panics.
        let plan = FaultPlan::new(9, 0.5);
        let recovered = (0..200u64).any(|raw| {
            let key = SimKey::from_raw(raw);
            plan.fault_for(key, 1).is_some() && plan.fault_for(key, 2).is_none()
        });
        assert!(recovered);
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
