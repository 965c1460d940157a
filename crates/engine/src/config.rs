//! GPU and SM configuration, defaulting to the paper's Table II baseline.

use subcore_isa::Pipeline;
use subcore_mem::MemConfig;

/// How the SM's schedulers, collector units, register banks, and execution
/// units are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Connectivity {
    /// Contemporary hardware: the SM is split into `subcores_per_sm`
    /// sub-cores. Each sub-core owns one warp scheduler, a private slice of
    /// collector units, register banks, and execution units; a warp assigned
    /// to a sub-core can never use another sub-core's resources.
    Partitioned,
    /// The paper's hypothetical monolithic SM: the same aggregate resources,
    /// but every scheduler slot can issue any resident warp to any collector
    /// unit, any register bank, and any execution unit.
    FullyConnected,
}

/// Timing of one execution pipeline class within a sub-core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeTiming {
    /// Result latency in cycles (issue of operands → writeback).
    pub latency: u32,
    /// Initiation interval: cycles the unit is occupied per warp instruction
    /// (32 threads over `32/ii` lanes).
    pub interval: u32,
    /// Units of this class per sub-core.
    pub units_per_subcore: u32,
}

/// Execution pipeline timings for all six pipeline classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecTimings {
    timings: [PipeTiming; 6],
}

impl ExecTimings {
    /// Volta-like sub-core: 16 FP32 lanes (FMA ii = 2), a full-width INT
    /// path (ii = 1), 8 FP64 lanes, 4 SFU lanes, 1 tensor core, shared LSU
    /// slice.
    pub fn volta_like() -> Self {
        let mut timings = [PipeTiming { latency: 4, interval: 2, units_per_subcore: 1 }; 6];
        timings[Pipeline::Fma.index()] =
            PipeTiming { latency: 4, interval: 2, units_per_subcore: 1 };
        timings[Pipeline::Alu.index()] =
            PipeTiming { latency: 4, interval: 1, units_per_subcore: 1 };
        timings[Pipeline::Fp64.index()] =
            PipeTiming { latency: 8, interval: 4, units_per_subcore: 1 };
        timings[Pipeline::Sfu.index()] =
            PipeTiming { latency: 20, interval: 8, units_per_subcore: 1 };
        timings[Pipeline::Tensor.index()] =
            PipeTiming { latency: 16, interval: 4, units_per_subcore: 1 };
        timings[Pipeline::Lsu.index()] =
            PipeTiming { latency: 0, interval: 4, units_per_subcore: 1 };
        ExecTimings { timings }
    }

    /// Timing for one pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `p` is [`Pipeline::Control`] (control ops have no timing).
    pub fn get(&self, p: Pipeline) -> PipeTiming {
        assert!(p != Pipeline::Control, "control ops are not executed on a pipeline");
        self.timings[p.index()]
    }

    /// Replaces the timing for one pipeline.
    pub fn set(&mut self, p: Pipeline, t: PipeTiming) {
        assert!(p != Pipeline::Control, "control ops are not executed on a pipeline");
        self.timings[p.index()] = t;
    }
}

/// Which engine core drives the simulation loop.
///
/// Both modes are required to produce bit-identical [`crate::RunStats`]
/// (including the windowed trace series); the fast core exists purely as a
/// throughput optimization and the polled core as its oracle. The
/// differential test suite (`tests/tests/engine_modes.rs`) holds them to
/// `assert_eq!` equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// The original poll-everything reference loop: every SM ticks every
    /// cycle and every scheduler domain rescans all of its warp slots.
    Reference,
    /// The event-aware fast path (default): each scheduler domain finds its
    /// issue candidates from event-maintained readiness masks, and when a
    /// cycle provably changes no architectural state the loop jumps `now`
    /// forward to the next wakeup (memory completion, warp stall expiry, or
    /// execution-unit free), synthesizing the skipped cycles' stall
    /// attribution exactly. The name is historical: the masks cost the
    /// same at any ready-set density, so nothing adapts any more.
    #[default]
    Adaptive,
}

impl EngineMode {
    /// Stable lowercase tag for telemetry and reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EngineMode::Reference => "reference",
            EngineMode::Adaptive => "adaptive",
        }
    }
}

/// Statistics collection knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StatsConfig {
    /// Record a per-cycle register-file read-grant trace for
    /// [`StatsConfig::trace_sm`] (used by Fig. 14). Costs one `u16` per
    /// cycle; off by default.
    pub record_rf_trace: bool,
    /// SM whose register file is traced.
    pub trace_sm: usize,
    /// Window width, in cycles, of the probe-event time-series aggregated
    /// for [`StatsConfig::trace_sm`] and attached to
    /// [`crate::RunStats::windowed`]. `0` (the default) disables the
    /// engine's probe points entirely — the hot path then pays one
    /// predictable branch per probe and builds no events.
    pub trace_window: u32,
}

/// Full GPU configuration. [`GpuConfig::volta_v100`] reproduces the paper's
/// Table II baseline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpuConfig {
    /// Number of SMs (80 on V100; the paper uses 20 for TPC-H).
    pub num_sms: u32,
    /// Warp schedulers (= sub-cores when partitioned) per SM.
    pub subcores_per_sm: u32,
    /// Partitioned sub-cores vs. the hypothetical fully-connected SM.
    pub connectivity: Connectivity,
    /// Maximum resident warps per SM (64 on Volta).
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Register-file banks per sub-core (2 on Volta/Ampere; 4 on older
    /// fully-connected designs).
    pub rf_banks_per_subcore: u32,
    /// Collector units per sub-core (2 validated against V100 silicon).
    pub cus_per_subcore: u32,
    /// Register-file capacity per sub-core, in 32-bit registers *per thread
    /// lane* (64 KB / (32 lanes × 4 B) = 512).
    pub rf_regs_per_subcore: u32,
    /// Shared-memory scratchpad capacity per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Instructions each scheduler may issue per cycle (1 on
    /// Volta/Ampere; 2 models Kepler-style dual-issue). The
    /// fully-connected SM's single scheduler domain gets
    /// `subcores_per_sm ×` this width.
    pub issue_width: u32,
    /// Release a warp's scheduler slot and registers as soon as it exits,
    /// instead of holding them until the whole block completes — the
    /// warp-level deallocation of Xiang et al. \[58\], which the paper argues
    /// does *not* fix sub-core imbalance (shared memory still pins the
    /// block). Off on real hardware.
    pub warp_level_dealloc: bool,
    /// Idealized inter-sub-core work stealing: when a sub-core runs out of
    /// live warps, it steals the youngest live warp from the most-loaded
    /// sub-core, paying a register-file-copy penalty of
    /// `regs_per_warp / 2` cycles. The paper dismisses this as
    /// prohibitively expensive in hardware; the model provides the
    /// upper-bound comparison.
    pub work_stealing: bool,
    /// Make register writebacks contend for bank ports: a bank that
    /// accepts a result write this cycle cannot grant a read. Off by
    /// default (reads dominate the paper's analysis).
    pub rf_write_port_contention: bool,
    /// Merge L1 misses to in-flight lines (MSHR behaviour): a second miss
    /// to an outstanding line completes with the first instead of paying a
    /// fresh round trip.
    pub mshr_merging: bool,
    /// Cycles by which the RBA score (bank queue lengths) visible to the
    /// scheduler lags reality (§VI-B4 sweeps 0–20).
    pub score_update_latency: u32,
    /// Enables the register bank-stealing baseline of Jing et al. \[36\]:
    /// idle register banks are filled by pre-allocating a free collector
    /// unit to a ready warp ahead of normal issue.
    pub bank_stealing: bool,
    /// Decoded-instruction buffer entries per warp.
    pub ibuffer_depth: u32,
    /// Execution pipeline timings.
    pub exec: ExecTimings,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Statistics knobs.
    pub stats: StatsConfig,
    /// Hard safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Which engine core runs the simulation (bit-identical results either
    /// way; see [`EngineMode`]).
    pub engine_mode: EngineMode,
}

impl GpuConfig {
    /// Widest SM the engine models: a scheduler domain's readiness masks
    /// hold one bit per table entry in a `u64`, and a domain never holds
    /// more warps than the SM has slots.
    pub const MAX_WARPS_PER_SM: u32 = u64::BITS;
    /// Most register banks one scheduler domain may arbitrate over (the
    /// per-cycle write-port mask is a `u32`).
    pub const MAX_BANKS_PER_DOMAIN: u32 = u32::BITS;

    /// The paper's Table II baseline: V100, 80 SMs, 4 sub-cores/SM,
    /// 64 warps/SM, 2 banks and 2 CUs per sub-core, GTO + round-robin.
    pub fn volta_v100() -> Self {
        GpuConfig {
            num_sms: 80,
            subcores_per_sm: 4,
            connectivity: Connectivity::Partitioned,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            rf_banks_per_subcore: 2,
            cus_per_subcore: 2,
            rf_regs_per_subcore: 512,
            shared_mem_per_sm: 96 * 1024,
            issue_width: 1,
            warp_level_dealloc: false,
            work_stealing: false,
            rf_write_port_contention: false,
            mshr_merging: false,
            score_update_latency: 0,
            bank_stealing: false,
            ibuffer_depth: 2,
            exec: ExecTimings::volta_like(),
            mem: MemConfig::volta_like(),
            stats: StatsConfig::default(),
            max_cycles: 500_000_000,
            engine_mode: EngineMode::default(),
        }
    }

    /// The same SM resources rewired as the hypothetical fully-connected
    /// monolithic SM of Fig. 1 (8 shared banks, 8 shared CUs, shared
    /// execution units, any scheduler slot issues any warp).
    pub fn fully_connected(mut self) -> Self {
        self.connectivity = Connectivity::FullyConnected;
        self
    }

    /// An Ampere-A100-like datacenter part: same 4-way sub-core split as
    /// Volta with a larger L2 (40 MB), more shared memory (164 KB usable),
    /// and 108 SMs. The sub-core effects of the paper's Fig. 3 are the
    /// same class as Volta's.
    pub fn ampere_a100() -> Self {
        let mut cfg = Self::volta_v100();
        cfg.num_sms = 108;
        cfg.shared_mem_per_sm = 164 * 1024;
        cfg.mem.l2_kb = 40 * 1024;
        cfg.mem.l2_slices = 40;
        cfg.mem.dram_service_interval = 3; // HBM2e: ~1.3× V100 bandwidth
        cfg
    }

    /// A Turing-GeForce-like part (RTX class): 4-way sub-cores, fewer SMs,
    /// a smaller L2, and negligible FP64 throughput (ii = 16).
    pub fn turing_like() -> Self {
        let mut cfg = Self::volta_v100();
        cfg.num_sms = 46;
        cfg.shared_mem_per_sm = 64 * 1024;
        cfg.mem.l2_kb = 4 * 1024;
        cfg.mem.l2_slices = 16;
        cfg.exec.set(
            subcore_isa::Pipeline::Fp64,
            PipeTiming { latency: 16, interval: 16, units_per_subcore: 1 },
        );
        cfg
    }

    /// A Kepler-like monolithic SM (pre-Maxwell, no sub-core partitioning):
    /// the same aggregate per-SM resources as Volta but fully connected,
    /// with 13 big SMs and a small L2. This is the paper's Fig. 3 "no
    /// partitioning" hardware point.
    pub fn kepler_like() -> Self {
        let mut cfg = Self::volta_v100();
        cfg.connectivity = Connectivity::FullyConnected;
        cfg.num_sms = 13;
        cfg.shared_mem_per_sm = 48 * 1024;
        cfg.mem.l2_kb = 1536;
        cfg.mem.l2_slices = 8;
        cfg.mem.dram_service_interval = 8; // GDDR5-era bandwidth
        cfg
    }

    /// Scales this config down to `num_sms` SMs (the paper uses 20 for
    /// TPC-H and sweeps 80–112 in Fig. 18).
    pub fn with_sms(mut self, num_sms: u32) -> Self {
        self.num_sms = num_sms;
        self
    }

    /// Sets collector units per sub-core (Fig. 12 sweeps 2–16).
    pub fn with_cus(mut self, cus: u32) -> Self {
        self.cus_per_subcore = cus;
        self
    }

    /// Sets register banks per sub-core (§VI-B5 compares 2 vs. 4).
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.rf_banks_per_subcore = banks;
        self
    }

    /// Sets the hard safety limit on simulated cycles (the experiment
    /// harness tightens the default for its scaled-down sweeps).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Selects the engine core ([`EngineMode::Adaptive`] is the default;
    /// [`EngineMode::Reference`] re-enables the polled oracle).
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine_mode = mode;
        self
    }

    /// A deterministic 64-bit content fingerprint of the complete
    /// configuration (including the memory system, pipeline timings, and
    /// statistics knobs).
    ///
    /// Equal configs always fingerprint identically, so the fingerprint
    /// identifies a simulation's hardware point in cache keys. Stable
    /// across processes and platforms (FNV-1a over little-endian field
    /// bytes), unlike `DefaultHasher`.
    pub fn fingerprint(&self) -> u64 {
        subcore_persist::stable_fingerprint(self)
    }

    /// Total register banks on the SM.
    pub fn total_banks(&self) -> u32 {
        self.rf_banks_per_subcore * self.subcores_per_sm
    }

    /// Register banks one scheduler domain arbitrates over: a sub-core's
    /// own, or the whole SM's when fully connected.
    pub fn banks_per_domain(&self) -> u32 {
        match self.connectivity {
            Connectivity::Partitioned => self.rf_banks_per_subcore,
            Connectivity::FullyConnected => self.total_banks(),
        }
    }

    /// Total collector units on the SM.
    pub fn total_cus(&self) -> u32 {
        self.cus_per_subcore * self.subcores_per_sm
    }

    /// Warp slots per scheduler (16 on the V100 baseline).
    pub fn warp_slots_per_scheduler(&self) -> u32 {
        self.max_warps_per_sm / self.subcores_per_sm
    }

    /// Upper bound on simultaneously resident blocks of one kernel shape
    /// per SM, mirroring the engine's admission checks: block-slot arena,
    /// shared-memory capacity, per-scheduler warp slots, and per-sub-core
    /// register file. Round-robin placement sends warp `w` of a block to
    /// scheduler `w % S`, so the fullest scheduler absorbs
    /// `ceil(warps / S)` warps of every block. The static occupancy input
    /// to the `subcore-opt` cost model's wave count.
    pub fn max_resident_blocks(
        &self,
        warps_per_block: u32,
        regs_per_thread: u32,
        shared_mem_bytes: u32,
    ) -> u32 {
        let mut bound = self.max_blocks_per_sm;
        if let Some(by_shared) = self.shared_mem_per_sm.checked_div(shared_mem_bytes) {
            bound = bound.min(by_shared);
        }
        if warps_per_block == 0 {
            return bound;
        }
        let (slots, regs, domains) = match self.connectivity {
            Connectivity::Partitioned => (
                self.warp_slots_per_scheduler(),
                self.rf_regs_per_subcore,
                self.subcores_per_sm.max(1),
            ),
            Connectivity::FullyConnected => {
                (self.max_warps_per_sm, self.rf_regs_per_subcore * self.subcores_per_sm, 1)
            }
        };
        let fullest_domain_warps = warps_per_block.div_ceil(domains).max(1);
        bound = bound.min(slots / fullest_domain_warps);
        if regs_per_thread > 0 {
            bound = bound.min(regs / (fullest_domain_warps * regs_per_thread));
        }
        bound
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any inconsistent combination
    /// (zero counts, warp slots not divisible by schedulers, more warp
    /// slots or banks per domain than the engine's bitmasks are wide, …).
    pub fn validate(&self) {
        assert!(self.num_sms > 0, "need at least one SM");
        assert!(self.subcores_per_sm > 0, "need at least one sub-core");
        assert!(
            self.max_warps_per_sm.is_multiple_of(self.subcores_per_sm),
            "warp slots must divide evenly among schedulers"
        );
        assert!(self.rf_banks_per_subcore > 0, "need at least one register bank");
        assert!(self.cus_per_subcore > 0, "need at least one collector unit");
        assert!(self.rf_regs_per_subcore > 0, "register file must be nonzero");
        assert!(self.ibuffer_depth > 0, "instruction buffer must be nonzero");
        assert!(self.issue_width > 0, "issue width must be nonzero");
        assert!(self.max_blocks_per_sm > 0, "need at least one block slot");
        assert!(
            self.max_warps_per_sm <= Self::MAX_WARPS_PER_SM,
            "at most {} warp slots per SM (the readiness masks are one word wide)",
            Self::MAX_WARPS_PER_SM
        );
        assert!(
            self.banks_per_domain() <= Self::MAX_BANKS_PER_DOMAIN,
            "at most {} register banks per scheduler domain (the write-port mask is one word wide)",
            Self::MAX_BANKS_PER_DOMAIN
        );
        self.mem.validate();
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::volta_v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_baseline() {
        let c = GpuConfig::volta_v100();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.subcores_per_sm, 4);
        assert_eq!(c.max_warps_per_sm, 64);
        assert_eq!(c.rf_banks_per_subcore, 2);
        assert_eq!(c.cus_per_subcore, 2);
        assert_eq!(c.total_banks(), 8);
        assert_eq!(c.total_cus(), 8);
        assert_eq!(c.warp_slots_per_scheduler(), 16);
        assert_eq!(c.mem.l2_kb, 6 * 1024);
        c.validate();
    }

    #[test]
    fn max_resident_blocks_mirrors_admission_limits() {
        let c = GpuConfig::volta_v100();
        // 8 warps → 2 per scheduler → 16/2 = 8 by slots; registers agree:
        // 512 / (2 × 32) = 8; block arena (32) and shared (unused) higher.
        assert_eq!(c.max_resident_blocks(8, 32, 0), 8);
        // Shared memory becomes the binding limit at 32 KB per block.
        assert_eq!(c.max_resident_blocks(8, 32, 32 * 1024), 3);
        // A fat register footprint binds: 512 / (2 × 200) = 1.
        assert_eq!(c.max_resident_blocks(8, 200, 0), 1);
        // One-warp blocks: conservatively one scheduler absorbs every
        // block's warp, so its 16 slots bind before the 32-entry arena.
        assert_eq!(c.max_resident_blocks(1, 8, 0), 16);
        // Fully connected pools slots and registers into one domain.
        let fc = GpuConfig::volta_v100().fully_connected();
        assert_eq!(fc.max_resident_blocks(8, 32, 0), 8);
    }

    #[test]
    fn engine_mode_defaults_to_adaptive_and_splits_fingerprints() {
        let adaptive = GpuConfig::volta_v100();
        assert_eq!(adaptive.engine_mode, EngineMode::Adaptive);
        let reference = adaptive.clone().with_engine_mode(EngineMode::Reference);
        // The modes must never alias in content-addressed caches.
        assert_ne!(adaptive.fingerprint(), reference.fingerprint());
        reference.validate();
    }

    #[test]
    fn engine_mode_tags_are_stable() {
        assert_eq!(EngineMode::Reference.tag(), "reference");
        assert_eq!(EngineMode::Adaptive.tag(), "adaptive");
    }

    #[test]
    fn builder_helpers_compose() {
        let c = GpuConfig::volta_v100().with_sms(20).with_cus(4).with_banks(4).fully_connected();
        assert_eq!(c.num_sms, 20);
        assert_eq!(c.cus_per_subcore, 4);
        assert_eq!(c.rf_banks_per_subcore, 4);
        assert_eq!(c.connectivity, Connectivity::FullyConnected);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn validate_rejects_ragged_slots() {
        let mut c = GpuConfig::volta_v100();
        c.max_warps_per_sm = 63;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "warp slots per SM")]
    fn validate_rejects_tables_wider_than_the_readiness_masks() {
        let mut c = GpuConfig::volta_v100();
        c.max_warps_per_sm = 128;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "register banks per scheduler domain")]
    fn validate_rejects_more_banks_than_the_write_mask_holds() {
        // 9 banks x 4 sub-cores pooled into one domain = 36 > 32.
        GpuConfig::volta_v100().with_banks(9).fully_connected().validate();
    }

    #[test]
    fn exec_timings_accessible_per_pipeline() {
        let e = ExecTimings::volta_like();
        assert_eq!(e.get(Pipeline::Fma).interval, 2);
        assert_eq!(e.get(Pipeline::Sfu).interval, 8);
        let mut e2 = e;
        e2.set(Pipeline::Fma, PipeTiming { latency: 6, interval: 1, units_per_subcore: 2 });
        assert_eq!(e2.get(Pipeline::Fma).units_per_subcore, 2);
    }

    #[test]
    #[should_panic(expected = "not executed")]
    fn control_has_no_timing() {
        let _ = ExecTimings::volta_like().get(Pipeline::Control);
    }

    #[test]
    fn generation_presets_are_consistent() {
        for cfg in [
            GpuConfig::volta_v100(),
            GpuConfig::ampere_a100(),
            GpuConfig::turing_like(),
            GpuConfig::kepler_like(),
        ] {
            cfg.validate();
        }
        assert_eq!(GpuConfig::ampere_a100().num_sms, 108);
        assert_eq!(GpuConfig::kepler_like().connectivity, Connectivity::FullyConnected);
        assert_eq!(
            GpuConfig::turing_like().exec.get(Pipeline::Fp64).interval,
            16,
            "GeForce parts throttle FP64"
        );
    }
}
