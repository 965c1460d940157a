//! Execution pipeline occupancy: per-class unit pools with initiation
//! intervals.

use crate::config::ExecTimings;
use subcore_isa::Pipeline;

/// A pool of identical execution units of one pipeline class.
///
/// Each unit accepts a new warp instruction once its previous initiation
/// interval has elapsed. Acquiring picks the earliest-free unit; if none is
/// free at `now`, acquisition fails and the instruction retries next cycle
/// from its collector unit.
#[derive(Debug, Clone)]
pub(crate) struct UnitPool {
    next_free: Vec<u64>,
    latency: u64,
    interval: u64,
    dispatched: u64,
}

impl UnitPool {
    fn new(units: u32, latency: u32, interval: u32) -> Self {
        UnitPool {
            next_free: vec![0; units.max(1) as usize],
            latency: u64::from(latency),
            interval: u64::from(interval.max(1)),
            dispatched: 0,
        }
    }

    /// Tries to start an instruction at `now`, occupying a unit for
    /// `occupancy_multiple` initiation intervals (memory instructions occupy
    /// the LSU once per transaction). Returns the result latency on success.
    pub(crate) fn try_dispatch(&mut self, now: u64, occupancy_multiple: u64) -> Option<u64> {
        let unit = self.next_free.iter_mut().min().expect("pools always have at least one unit");
        if *unit > now {
            return None;
        }
        *unit = now + self.interval * occupancy_multiple.max(1);
        self.dispatched += 1;
        Some(self.latency)
    }

    pub(crate) fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Cycle at which the earliest-free unit of this pool next accepts an
    /// instruction (the skip-ahead wake horizon for a collected instruction
    /// waiting on an occupied pipeline).
    pub(crate) fn earliest_free(&self) -> u64 {
        *self.next_free.iter().min().expect("pools always have at least one unit")
    }
}

/// All six pipeline pools for one scheduler domain.
#[derive(Debug, Clone)]
pub(crate) struct ExecPools {
    pools: [UnitPool; 6],
}

impl ExecPools {
    /// Builds pools scaled by `scale` sub-cores' worth of units (1 for a
    /// partitioned sub-core, `subcores_per_sm` for the fully-connected SM).
    pub(crate) fn new(timings: &ExecTimings, scale: u32) -> Self {
        let mk = |p: Pipeline| {
            let t = timings.get(p);
            UnitPool::new(t.units_per_subcore * scale, t.latency, t.interval)
        };
        ExecPools {
            pools: [
                mk(Pipeline::Fma),
                mk(Pipeline::Alu),
                mk(Pipeline::Fp64),
                mk(Pipeline::Sfu),
                mk(Pipeline::Tensor),
                mk(Pipeline::Lsu),
            ],
        }
    }

    /// Pool for pipeline `p`.
    ///
    /// # Panics
    ///
    /// Panics for [`Pipeline::Control`].
    pub(crate) fn pool_mut(&mut self, p: Pipeline) -> &mut UnitPool {
        assert!(p != Pipeline::Control);
        &mut self.pools[p.index()]
    }

    /// Cycle at which pipeline `p` next has a free unit.
    ///
    /// # Panics
    ///
    /// Panics for [`Pipeline::Control`].
    pub(crate) fn earliest_free(&self, p: Pipeline) -> u64 {
        assert!(p != Pipeline::Control);
        self.pools[p.index()].earliest_free()
    }

    /// Instructions dispatched per pipeline class (dense index order).
    pub(crate) fn dispatched_by_class(&self) -> [u64; 6] {
        [
            self.pools[0].dispatched(),
            self.pools[1].dispatched(),
            self.pools[2].dispatched(),
            self.pools[3].dispatched(),
            self.pools[4].dispatched(),
            self.pools[5].dispatched(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiation_interval_throttles() {
        let mut p = UnitPool::new(1, 4, 2);
        assert_eq!(p.try_dispatch(0, 1), Some(4));
        assert!(p.try_dispatch(0, 1).is_none(), "unit busy during interval");
        assert!(p.try_dispatch(1, 1).is_none());
        assert_eq!(p.try_dispatch(2, 1), Some(4));
        assert_eq!(p.dispatched(), 2);
    }

    #[test]
    fn multiple_units_dispatch_same_cycle() {
        let mut p = UnitPool::new(2, 4, 2);
        assert!(p.try_dispatch(0, 1).is_some());
        assert!(p.try_dispatch(0, 1).is_some());
        assert!(p.try_dispatch(0, 1).is_none());
    }

    #[test]
    fn occupancy_multiple_extends_busy_time() {
        let mut p = UnitPool::new(1, 0, 4);
        assert!(p.try_dispatch(0, 8).is_some()); // strided access: 8 txns
        assert!(p.try_dispatch(16, 1).is_none(), "busy until cycle 32");
        assert!(p.try_dispatch(32, 1).is_some());
    }

    #[test]
    fn fully_connected_scales_pools() {
        let t = ExecTimings::volta_like();
        let mut fc = ExecPools::new(&t, 4);
        // 4 sub-cores' worth of FMA units: 4 dispatches in one cycle.
        for _ in 0..4 {
            assert!(fc.pool_mut(Pipeline::Fma).try_dispatch(0, 1).is_some());
        }
        assert!(fc.pool_mut(Pipeline::Fma).try_dispatch(0, 1).is_none());
    }
}
