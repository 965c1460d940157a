//! Multi-tenant co-scheduler: the engine's main simulation loop,
//! generalized from "one app owns every SM" to N concurrent tenants, each
//! dispatching thread blocks onto an explicit [`SmSet`] partition.
//!
//! [`run_cases`] *is* the engine's only main loop — the single-tenant
//! [`crate::simulate_app`] path runs through it as the degenerate case of
//! one tenant owning every SM, with identical control flow:
//!
//! * one block-scheduler offer round per tenant per cycle (per-tenant
//!   round-robin cursor over the tenant's own SM set);
//! * all SMs tick in id order every cycle, whoever owns them;
//! * a tenant's kernel completes on the cycle its last block retires
//!   (block retirements are attributed by uid), which is exactly the
//!   `all_idle` drain condition of the old single-app loop;
//! * quiescent-span skip-ahead additionally clamps to the next pending
//!   tenant arrival, and a cycle that completes any kernel skips the
//!   skip-ahead — just as the old loop's per-kernel `break` did.
//!
//! This makes single-tenant runs bit-exact with the pre-refactor engine
//! (the differential suite in `tests/tests/engine_modes.rs` enforces it)
//! while multi-tenant runs get per-tenant makespan, deadline slack, and
//! stall attribution in [`RunStats::tenants`].

use crate::config::{Connectivity, EngineMode, GpuConfig};
use crate::gpu::{check_schedulable, EngineReport};
use crate::policy::Policies;
use crate::sm::SmCore;
use crate::stats::{RunStats, SimError, StallBreakdown, TenantStats};
use subcore_isa::{App, TenantSpec};
use subcore_mem::MemSystem;
use subcore_trace::{TraceSink, Tracer, WindowAggregator};

/// A set of SM ids — the spatial partition one tenant dispatches onto.
///
/// Always sorted and deduplicated; two tenants may hold disjoint or
/// overlapping (shared) sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SmSet {
    sms: Vec<u32>,
}

impl SmSet {
    /// Builds a set from arbitrary SM ids (sorted and deduplicated).
    pub fn new(mut sms: Vec<u32>) -> Self {
        sms.sort_unstable();
        sms.dedup();
        SmSet { sms }
    }

    /// The contiguous set `start .. start + count`.
    pub fn contiguous(start: u32, count: u32) -> Self {
        SmSet { sms: (start..start + count).collect() }
    }

    /// Every SM of a `num_sms`-SM GPU.
    pub fn all(num_sms: u32) -> Self {
        SmSet::contiguous(0, num_sms)
    }

    /// The SM ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.sms
    }

    /// Number of SMs in the set.
    pub fn len(&self) -> usize {
        self.sms.len()
    }

    /// Whether the set is empty (an unusable partition).
    pub fn is_empty(&self) -> bool {
        self.sms.is_empty()
    }

    /// Whether `sm` is in the set.
    pub fn contains(&self, sm: u32) -> bool {
        self.sms.binary_search(&sm).is_ok()
    }

    /// The largest SM id, if any.
    pub fn max_id(&self) -> Option<u32> {
        self.sms.last().copied()
    }

    /// Whether any SM is in both sets.
    pub fn overlaps(&self, other: &SmSet) -> bool {
        self.sms.iter().any(|&s| other.contains(s))
    }

    /// Compact range label, e.g. `0-3` or `0-1+4` (telemetry column).
    pub fn label(&self) -> String {
        let mut out = String::new();
        let mut i = 0;
        while i < self.sms.len() {
            let start = self.sms[i];
            let mut end = start;
            while i + 1 < self.sms.len() && self.sms[i + 1] == end + 1 {
                i += 1;
                end = self.sms[i];
            }
            if !out.is_empty() {
                out.push('+');
            }
            if start == end {
                out.push_str(&start.to_string());
            } else {
                out.push_str(&format!("{start}-{end}"));
            }
            i += 1;
        }
        out
    }
}

/// One tenant of a multi-tenant run: what it wants ([`TenantSpec`]) and
/// where it runs (its [`SmSet`] partition).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantRun {
    /// The tenant's workload, arrival offset, and optional deadline.
    pub spec: TenantSpec,
    /// The SM partition the tenant dispatches blocks onto.
    pub sm_set: SmSet,
}

/// Simulates N tenants concurrently, each confined to its SM partition.
///
/// Aggregate statistics cover the whole GPU exactly as
/// [`crate::simulate_app`]'s do; [`RunStats::tenants`] additionally holds
/// one per-tenant breakdown per entry of `tenants`, in order. A
/// single-tenant run over [`SmSet::all`] is bit-exact with
/// [`crate::simulate_app`] (apart from the `tenants` breakdown itself).
///
/// # Errors
///
/// [`SimError::InvalidPartition`] for an empty tenant list, an empty SM
/// set, or an SM id beyond the GPU; [`SimError::KernelUnschedulable`] and
/// [`SimError::CycleLimitExceeded`] as for [`crate::simulate_app`].
pub fn simulate_tenants(
    cfg: &GpuConfig,
    policies: &Policies,
    tenants: &[TenantRun],
) -> Result<RunStats, SimError> {
    cfg.validate();
    if tenants.is_empty() {
        return Err(SimError::InvalidPartition {
            tenant: String::new(),
            reason: "a multi-tenant run needs at least one tenant".to_owned(),
        });
    }
    for t in tenants {
        if t.sm_set.is_empty() {
            return Err(SimError::InvalidPartition {
                tenant: t.spec.name().to_owned(),
                reason: "its SM set is empty".to_owned(),
            });
        }
        if let Some(max) = t.sm_set.max_id() {
            if max >= cfg.num_sms {
                return Err(SimError::InvalidPartition {
                    tenant: t.spec.name().to_owned(),
                    reason: format!("SM {max} does not exist (the GPU has {} SMs)", cfg.num_sms),
                });
            }
        }
        for kernel in t.spec.app().kernels() {
            check_schedulable(cfg, kernel)?;
        }
    }
    let cases: Vec<TenantCase<'_>> = tenants
        .iter()
        .map(|t| TenantCase {
            name: t.spec.name(),
            app: t.spec.app(),
            arrival: t.spec.arrival(),
            deadline: t.spec.deadline(),
            sms: t.sm_set.ids().iter().map(|&s| s as usize).collect(),
        })
        .collect();
    run_cases(cfg, policies, &cases, Vec::new(), true)
}

/// [`simulate_tenants`] that also returns the [`EngineReport`].
///
/// # Errors
///
/// Same as [`simulate_tenants`].
pub fn simulate_tenants_reported(
    cfg: &GpuConfig,
    policies: &Policies,
    tenants: &[TenantRun],
) -> Result<(RunStats, EngineReport), SimError> {
    let stats = simulate_tenants(cfg, policies, tenants)?;
    Ok((stats, EngineReport { mode: cfg.engine_mode, adaptive_windows: 0, adaptive_fallbacks: 0 }))
}

/// One tenant, resolved for dispatch.
pub(crate) struct TenantCase<'a> {
    pub(crate) name: &'a str,
    pub(crate) app: &'a App,
    pub(crate) arrival: u64,
    pub(crate) deadline: Option<u64>,
    /// SM indices of the tenant's partition, ascending.
    pub(crate) sms: Vec<usize>,
}

/// Per-tenant dispatch state.
struct Lane {
    /// Index of the kernel currently dispatching (== kernel count when done).
    kernel_idx: usize,
    /// Blocks of the current kernel already offered and accepted.
    next_block: u32,
    /// Blocks of the current kernel already retired.
    retired: u32,
    /// Round-robin cursor into the tenant's SM set.
    rr: usize,
    /// Cycle each finished kernel drained at.
    kernel_ends: Vec<u64>,
    /// Cycle the last kernel drained at, once finished.
    finish: Option<u64>,
}

impl Lane {
    fn done(&self) -> bool {
        self.finish.is_some()
    }
}

/// The engine's main loop: simulates every tenant case to completion.
///
/// Callers validate the configuration, partitions, and kernel
/// schedulability first. With `emit_tenant_stats` the per-tenant
/// breakdowns land in [`RunStats::tenants`]; without it (the
/// single-tenant [`crate::simulate_app`] path) the field stays empty and
/// the stats are bit-identical to the pre-refactor engine.
pub(crate) fn run_cases(
    cfg: &GpuConfig,
    policies: &Policies,
    cases: &[TenantCase<'_>],
    sinks: Vec<&mut dyn TraceSink>,
    emit_tenant_stats: bool,
) -> Result<RunStats, SimError> {
    let mut mem_cfg = cfg.mem.clone();
    mem_cfg.mshr_merging |= cfg.mshr_merging;
    let mut mem = MemSystem::new(mem_cfg, cfg.num_sms as usize);
    let mut sms: Vec<SmCore> =
        (0..cfg.num_sms as usize).map(|i| SmCore::new(cfg, i, policies)).collect();
    // Retired-block attribution is only needed when several tenants share
    // the GPU; the single-tenant drain condition reads `is_idle` instead,
    // keeping that hot path untouched.
    let track_retired = cases.len() > 1;
    if track_retired {
        for sm in &mut sms {
            sm.set_track_retired(true);
        }
    }

    let mut aggregator = (cfg.stats.trace_window > 0).then(|| {
        let domains = match cfg.connectivity {
            Connectivity::Partitioned => cfg.subcores_per_sm,
            Connectivity::FullyConnected => 1,
        };
        WindowAggregator::new(
            cfg.stats.trace_sm as u32,
            u64::from(cfg.stats.trace_window),
            domains,
            cfg.banks_per_domain(),
        )
    });
    // Quiescent-span skip-ahead is exact for RunStats (including the
    // cycle-keyed, SM-filtered windowed series), but external sinks observe
    // the raw cross-SM event interleaving, which per-SM synthesis reorders
    // — so their presence pins the engine to cycle-by-cycle polling.
    let allow_skip = cfg.engine_mode != EngineMode::Reference && sinks.is_empty();
    let mut tracer = Tracer::new(Vec::new());
    for sink in sinks {
        tracer.attach(sink);
    }
    if let Some(agg) = aggregator.as_mut() {
        tracer.attach(agg);
    }

    let mut now: u64 = 0;
    let mut block_uid: u64 = 0;
    let total_kernels: usize = cases.iter().map(|c| c.app.kernels().len()).sum();
    let mut kernel_end_cycles = Vec::with_capacity(total_kernels);
    let mut lanes: Vec<Lane> = cases
        .iter()
        .map(|c| Lane {
            kernel_idx: 0,
            next_block: 0,
            retired: 0,
            rr: 0,
            kernel_ends: Vec::with_capacity(c.app.kernels().len()),
            finish: None,
        })
        .collect();
    // `owner[uid]`: which lane block `uid` belongs to (uids are handed out
    // sequentially at admission).
    let mut owner: Vec<u32> = Vec::new();
    let mut retired_scratch: Vec<u64> = Vec::new();

    loop {
        let mut changed = false;
        // Thread-block schedulers: each arrived, unfinished tenant offers
        // at most one block per SM of its partition per cycle, rotating
        // its starting SM for fairness.
        for (li, lane) in lanes.iter_mut().enumerate() {
            let case = &cases[li];
            if lane.done() || case.arrival > now {
                continue;
            }
            let kernel = &case.app.kernels()[lane.kernel_idx];
            if lane.next_block < kernel.blocks() {
                for i in 0..case.sms.len() {
                    if lane.next_block >= kernel.blocks() {
                        break;
                    }
                    let s = case.sms[(lane.rr + i) % case.sms.len()];
                    if sms[s].try_accept(kernel, block_uid, now, &mut tracer) {
                        lane.next_block += 1;
                        if track_retired {
                            owner.push(li as u32);
                        }
                        block_uid += 1;
                        changed = true;
                    }
                }
                lane.rr = (lane.rr + 1) % case.sms.len();
            }
        }

        let mut all_idle = true;
        for sm in &mut sms {
            changed |= sm.tick(now, &mut mem, &mut tracer);
            all_idle &= sm.is_idle();
        }
        if track_retired {
            for sm in &mut sms {
                sm.take_retired(&mut retired_scratch);
            }
            for uid in retired_scratch.drain(..) {
                lanes[owner[uid as usize] as usize].retired += 1;
            }
        }
        now += 1;
        if now > cfg.max_cycles {
            return Err(SimError::CycleLimitExceeded { limit: cfg.max_cycles });
        }

        // Kernel completion: a tenant's kernel has drained once every
        // block was offered and retired. Without retirement tracking (one
        // tenant) the equivalent condition is a fully-idle GPU — blocks
        // only free once their last warp exits with nothing in flight, so
        // "every block retired" and "all SMs idle" coincide.
        let mut advanced = false;
        for (li, lane) in lanes.iter_mut().enumerate() {
            let case = &cases[li];
            if lane.done() || case.arrival > now - 1 {
                continue;
            }
            let kernels = case.app.kernels();
            let kernel = &kernels[lane.kernel_idx];
            let drained = lane.next_block >= kernel.blocks()
                && if track_retired { lane.retired >= kernel.blocks() } else { all_idle };
            if drained {
                lane.kernel_ends.push(now);
                kernel_end_cycles.push(now);
                lane.kernel_idx += 1;
                lane.next_block = 0;
                lane.retired = 0;
                advanced = true;
                if lane.kernel_idx == kernels.len() {
                    lane.finish = Some(now);
                }
            }
        }
        if lanes.iter().all(Lane::done) {
            break;
        }
        if advanced {
            // The cycle that drains a kernel starts the next one (or
            // another tenant's offers) immediately — no skip-ahead,
            // exactly like the per-kernel loop boundary of the
            // single-app engine.
            continue;
        }

        if allow_skip && !changed {
            // Nothing moved this cycle, so every cycle until the
            // earliest wake point repeats it verbatim: admission offers
            // keep failing identically (failed plans stay stashed), the
            // memory system is passive, and each SM only re-charges the
            // same stall classification. Synthesize those cycles
            // wholesale and jump to the wake point. The tick just run
            // was at `now - 1`, so hints are computed relative to it.
            let mut target = u64::MAX;
            for sm in &sms {
                target = target.min(sm.wake_hint(now - 1));
            }
            // Never skip past a pending tenant arrival: its first offer
            // round must run on its arrival cycle.
            for (li, lane) in lanes.iter().enumerate() {
                if !lane.done() && cases[li].arrival >= now {
                    target = target.min(cases[li].arrival);
                }
            }
            // A MAX target (barrier deadlock in a malformed kernel) runs
            // into the cycle limit exactly as the polled loop would.
            let target = target.min(cfg.max_cycles.saturating_add(1));
            if target > now {
                let skipped = target - now;
                for sm in &mut sms {
                    sm.account_skipped(now, skipped, &mut tracer);
                }
                for (li, lane) in lanes.iter_mut().enumerate() {
                    let case = &cases[li];
                    if lane.done() || case.arrival >= now {
                        continue;
                    }
                    if lane.next_block < case.app.kernels()[lane.kernel_idx].blocks() {
                        // The tenant's block scheduler would have rotated
                        // once per polled cycle.
                        lane.rr = (lane.rr + skipped as usize) % case.sms.len();
                    }
                }
                now = target;
                if now > cfg.max_cycles {
                    return Err(SimError::CycleLimitExceeded { limit: cfg.max_cycles });
                }
            }
        }
    }
    drop(tracer);

    let mut stats = RunStats {
        cycles: now,
        kernel_end_cycles,
        mem: mem.stats(),
        windowed: aggregator.map(|agg| agg.into_series(now)),
        ..Default::default()
    };
    if emit_tenant_stats {
        for (li, lane) in lanes.iter().enumerate() {
            let case = &cases[li];
            let mut tenant = TenantStats {
                name: case.name.to_owned(),
                arrival: case.arrival,
                finish: lane.finish.unwrap_or(now),
                kernel_end_cycles: lane.kernel_ends.clone(),
                deadline: case.deadline,
                sm_set: case.sms.iter().map(|&s| s as u32).collect(),
                instructions: 0,
                stalls: StallBreakdown::default(),
            };
            for &s in &case.sms {
                tenant.instructions += sms[s].issued_total();
                tenant.stalls.add(&sms[s].stalls());
            }
            stats.tenants.push(tenant);
        }
    }
    let mut stalls = StallBreakdown::default();
    for sm in &mut sms {
        sm.assert_scheduler_accounting();
        stats.instructions += sm.issued_total();
        stats.issued_per_scheduler.push(sm.issued_per_scheduler());
        let (grants, conflicts) = sm.rf_stats();
        stats.rf_reads += grants;
        stats.rf_conflict_enqueues += conflicts;
        stalls.add(&sm.stalls());
        stats.issue_cycles += sm.issue_cycles();
        stats.active_cycles += sm.active_cycles();
        for (t, v) in stats.pipe_dispatched.iter_mut().zip(sm.pipe_dispatched()) {
            *t += v;
        }
        stats.warp_cycles += sm.warp_cycles();
        let trace = sm.take_rf_trace();
        if !trace.is_empty() {
            stats.rf_read_trace = trace;
        }
    }
    stats.stalls = stalls;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_app;
    use subcore_isa::{fma_kernel, App, Suite};

    fn micro(name: &str, blocks: u32, fmas: u32) -> App {
        App::new(name, Suite::Micro, vec![fma_kernel("k", blocks, 8, fmas)])
    }

    fn cfg() -> GpuConfig {
        GpuConfig::volta_v100().with_sms(4)
    }

    #[test]
    fn sm_set_basics() {
        let set = SmSet::new(vec![3, 1, 1, 0]);
        assert_eq!(set.ids(), &[0, 1, 3]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(3) && !set.contains(2));
        assert_eq!(set.max_id(), Some(3));
        assert_eq!(set.label(), "0-1+3");
        assert_eq!(SmSet::contiguous(4, 4).label(), "4-7");
        assert_eq!(SmSet::all(2).ids(), &[0, 1]);
        assert!(SmSet::new(Vec::new()).is_empty());
        assert!(set.overlaps(&SmSet::contiguous(3, 2)));
        assert!(!set.overlaps(&SmSet::contiguous(4, 4)));
    }

    #[test]
    fn empty_tenant_list_and_bad_partitions_are_errors() {
        let cfg = cfg();
        let p = Policies::hardware_baseline();
        let err = simulate_tenants(&cfg, &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::InvalidPartition { .. }), "{err}");
        let empty =
            TenantRun { spec: TenantSpec::new(micro("a", 2, 16)), sm_set: SmSet::new(Vec::new()) };
        let err = simulate_tenants(&cfg, &p, &[empty]).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let oob =
            TenantRun { spec: TenantSpec::new(micro("a", 2, 16)), sm_set: SmSet::contiguous(3, 2) };
        let err = simulate_tenants(&cfg, &p, &[oob]).unwrap_err();
        assert!(err.to_string().contains("SM 4"), "{err}");
    }

    #[test]
    fn two_disjoint_tenants_complete_with_breakdowns() {
        let cfg = cfg();
        let p = Policies::hardware_baseline();
        let tenants = [
            TenantRun { spec: TenantSpec::new(micro("a", 4, 64)), sm_set: SmSet::contiguous(0, 2) },
            TenantRun {
                spec: TenantSpec::new(micro("b", 2, 32)).with_deadline(1_000_000),
                sm_set: SmSet::contiguous(2, 2),
            },
        ];
        let stats = simulate_tenants(&cfg, &p, &tenants).unwrap();
        assert_eq!(stats.tenants.len(), 2);
        let (a, b) = (&stats.tenants[0], &stats.tenants[1]);
        assert_eq!(a.name, "a");
        assert_eq!(a.sm_set, vec![0, 1]);
        assert_eq!(b.sm_set, vec![2, 3]);
        assert!(a.finish > 0 && b.finish > 0);
        assert_eq!(stats.cycles, a.finish.max(b.finish));
        assert_eq!(a.kernel_end_cycles, vec![a.finish]);
        // Disjoint partitions attribute instructions exactly.
        assert_eq!(stats.instructions, a.instructions + b.instructions);
        assert!(!b.missed_deadline());
        assert!(b.deadline_slack().unwrap() > 0);
        // The aggregate kernel-end merge holds both tenants' kernels.
        assert_eq!(stats.kernel_end_cycles.len(), 2);
        // Both tenants ran work.
        assert!(a.instructions > 0 && b.instructions > 0);
    }

    #[test]
    fn arrival_offsets_are_honored_across_modes() {
        let p = Policies::hardware_baseline();
        for mode in [EngineMode::Reference, EngineMode::Adaptive] {
            let cfg = GpuConfig { engine_mode: mode, ..cfg() };
            let tenants = [
                TenantRun {
                    spec: TenantSpec::new(micro("a", 2, 32)),
                    sm_set: SmSet::contiguous(0, 2),
                },
                TenantRun {
                    spec: TenantSpec::new(micro("b", 2, 32)).with_arrival(5_000),
                    sm_set: SmSet::contiguous(2, 2),
                },
            ];
            let stats = simulate_tenants(&cfg, &p, &tenants).unwrap();
            assert!(stats.tenants[1].finish > 5_000, "{mode:?}: late tenant finished early");
            assert!(stats.tenants[1].makespan() < stats.tenants[1].finish);
        }
    }

    #[test]
    fn shared_sm_sets_run_to_completion() {
        let cfg = cfg();
        let p = Policies::hardware_baseline();
        let tenants = [
            TenantRun { spec: TenantSpec::new(micro("a", 4, 64)), sm_set: SmSet::all(4) },
            TenantRun { spec: TenantSpec::new(micro("b", 4, 64)), sm_set: SmSet::all(4) },
        ];
        let stats = simulate_tenants(&cfg, &p, &tenants).unwrap();
        assert_eq!(stats.tenants.len(), 2);
        assert!(stats.tenants.iter().all(|t| t.finish > 0));
        // Solo instruction counts are conserved under sharing.
        let solo: u64 = tenants
            .iter()
            .map(|t| simulate_app(&cfg, &p, t.spec.app()).unwrap().instructions)
            .sum();
        assert_eq!(stats.instructions, solo);
    }

    #[test]
    fn single_tenant_full_set_matches_simulate_app() {
        let cfg = cfg();
        let p = Policies::hardware_baseline();
        let app = micro("solo", 6, 128);
        let solo = simulate_app(&cfg, &p, &app).unwrap();
        let mut via_tenants = simulate_tenants(
            &cfg,
            &p,
            &[TenantRun { spec: TenantSpec::new(app.clone()), sm_set: SmSet::all(4) }],
        )
        .unwrap();
        assert_eq!(via_tenants.tenants.len(), 1);
        assert_eq!(via_tenants.tenants[0].finish, solo.cycles);
        via_tenants.tenants.clear();
        assert_eq!(via_tenants, solo);
    }
}
