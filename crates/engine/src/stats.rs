//! Simulation statistics.

use subcore_mem::MemStats;
use subcore_persist::record::EngineBuild;
use subcore_persist::{Json, JsonCodec, JsonError};
use subcore_trace::{StallKind, WindowedSeries};

/// The model's identity, half of [`ENGINE_BUILD`]: the package version
/// plus a digest of the model's sources, `0.1.0+<16 hex digits>` (see
/// `build.rs`). Any edit to the engine, ISA, memory, trace or policy
/// sources changes it, so records written by another model read as misses.
///
/// Bump [`STATS_SCHEMA_VERSION`] whenever the meaning or layout of
/// [`RunStats`] changes.
pub const ENGINE_VERSION: &str = env!("SUBCORE_ENGINE_VERSION");

/// Schema version of the serialized [`RunStats`] layout.
///
/// v2: added `issue_cycles`, `active_cycles`, and the optional `windowed`
/// trace series.
/// v3: added the per-tenant `tenants` breakdown (multi-tenant runs).
pub const STATS_SCHEMA_VERSION: u32 = 3;

/// The build stamp of every durable record holding simulation results
/// (simcache entries, journal cells, queued jobs, trace artifacts): a
/// record whose stamp differs from the running engine's reads as a miss,
/// so stale results never leak across engine versions.
pub const ENGINE_BUILD: EngineBuild =
    EngineBuild { version: ENGINE_VERSION, stats_schema: STATS_SCHEMA_VERSION };

/// Why a scheduler slot failed to issue in a given cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// No resident live warps at all.
    pub idle: u64,
    /// All live warps waiting at a block barrier.
    pub barrier: u64,
    /// Ready instructions existed but every collector unit was busy.
    pub no_collector_unit: u64,
    /// Warps had instructions but all were scoreboard-blocked.
    pub scoreboard: u64,
    /// Warps were runnable but instruction buffers were empty (fetch
    /// shadow or drained program).
    pub empty_ibuffer: u64,
}

impl StallBreakdown {
    /// Total stalled scheduler-cycles.
    pub fn total(&self) -> u64 {
        self.idle + self.barrier + self.no_collector_unit + self.scoreboard + self.empty_ibuffer
    }

    pub(crate) fn add(&mut self, other: &StallBreakdown) {
        self.idle += other.idle;
        self.barrier += other.barrier;
        self.no_collector_unit += other.no_collector_unit;
        self.scoreboard += other.scoreboard;
        self.empty_ibuffer += other.empty_ibuffer;
    }

    /// Charges one stalled scheduler-cycle to the bucket matching `kind`
    /// (the engine classifies the cause once and uses it for both the
    /// breakdown and the emitted [`StallKind`] probe event).
    pub fn bump(&mut self, kind: StallKind) {
        self.bump_n(kind, 1);
    }

    /// Charges `n` stalled scheduler-cycles to the bucket matching `kind`
    /// at once (the event-driven core's skip-ahead attributes a whole
    /// quiescent span in one step).
    pub fn bump_n(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::Idle => self.idle += n,
            StallKind::Barrier => self.barrier += n,
            StallKind::NoCollectorUnit => self.no_collector_unit += n,
            StallKind::Scoreboard => self.scoreboard += n,
            StallKind::EmptyIbuffer => self.empty_ibuffer += n,
        }
    }
}

impl JsonCodec for StallBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("idle", Json::Uint(self.idle)),
            ("barrier", Json::Uint(self.barrier)),
            ("no_collector_unit", Json::Uint(self.no_collector_unit)),
            ("scoreboard", Json::Uint(self.scoreboard)),
            ("empty_ibuffer", Json::Uint(self.empty_ibuffer)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(StallBreakdown {
            idle: json.field("idle")?.as_u64()?,
            barrier: json.field("barrier")?.as_u64()?,
            no_collector_unit: json.field("no_collector_unit")?.as_u64()?,
            scoreboard: json.field("scoreboard")?.as_u64()?,
            empty_ibuffer: json.field("empty_ibuffer")?.as_u64()?,
        })
    }
}

/// Per-tenant breakdown of a multi-tenant run.
///
/// Filled by [`crate::simulate_tenants`], one entry per tenant in
/// submission order; single-tenant runs through [`crate::simulate_app`]
/// leave [`RunStats::tenants`] empty so legacy stats stay bit-identical.
///
/// `instructions` and `stalls` are summed over the SMs of the tenant's
/// partition; when tenants *share* SMs the shared SMs' counters are
/// charged to every tenant on them (attribution is per-SM, not per-warp).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name (its application's name).
    pub name: String,
    /// Cycle the tenant arrived at.
    pub arrival: u64,
    /// Cycle the tenant's last kernel finished draining.
    pub finish: u64,
    /// Cycle at which each of the tenant's kernels finished draining.
    pub kernel_end_cycles: Vec<u64>,
    /// The absolute-cycle deadline, if the tenant declared one.
    pub deadline: Option<u64>,
    /// The SM ids of the tenant's partition, ascending.
    pub sm_set: Vec<u32>,
    /// Warp instructions issued by the partition's SMs.
    pub instructions: u64,
    /// Scheduler stall attribution summed over the partition's SMs.
    pub stalls: StallBreakdown,
}

impl TenantStats {
    /// Arrival-to-finish span.
    pub fn makespan(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }

    /// Signed slack against the deadline: positive means the tenant
    /// finished early, negative means it missed. `None` without a deadline.
    pub fn deadline_slack(&self) -> Option<i64> {
        self.deadline.map(|d| d as i64 - self.finish as i64)
    }

    /// Whether the tenant had a deadline and finished after it.
    pub fn missed_deadline(&self) -> bool {
        self.deadline_slack().is_some_and(|slack| slack < 0)
    }
}

impl JsonCodec for TenantStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("arrival", Json::Uint(self.arrival)),
            ("finish", Json::Uint(self.finish)),
            ("kernel_end_cycles", Json::from_u64_list(&self.kernel_end_cycles)),
            ("deadline", self.deadline.map_or(Json::Null, Json::Uint)),
            ("sm_set", Json::Arr(self.sm_set.iter().map(|&s| Json::Uint(u64::from(s))).collect())),
            ("instructions", Json::Uint(self.instructions)),
            ("stalls", self.stalls.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(TenantStats {
            name: json.field("name")?.as_str()?.to_owned(),
            arrival: json.field("arrival")?.as_u64()?,
            finish: json.field("finish")?.as_u64()?,
            kernel_end_cycles: json.field("kernel_end_cycles")?.as_u64_list()?,
            deadline: match json.field("deadline")? {
                Json::Null => None,
                other => Some(other.as_u64()?),
            },
            sm_set: json
                .field("sm_set")?
                .as_u64_list()?
                .into_iter()
                .map(|s| {
                    u32::try_from(s)
                        .map_err(|_| JsonError { msg: format!("sm_set entry {s} exceeds u32") })
                })
                .collect::<Result<_, _>>()?,
            instructions: json.field("instructions")?.as_u64()?,
            stalls: StallBreakdown::from_json(json.field("stalls")?)?,
        })
    }
}

/// Results of simulating an application (or single kernel) to completion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total warp instructions issued.
    pub instructions: u64,
    /// Instructions issued per `[sm][scheduler]` — the input to the paper's
    /// Fig. 17 coefficient-of-variation metric.
    pub issued_per_scheduler: Vec<Vec<u64>>,
    /// Register-file read grants (each is a warp-wide, 32-lane read).
    pub rf_reads: u64,
    /// Register reads whose request queued behind another request for the
    /// same bank.
    pub rf_conflict_enqueues: u64,
    /// Optional per-cycle read-grant trace of the traced SM (Fig. 14);
    /// empty unless [`crate::StatsConfig::record_rf_trace`] was set.
    pub rf_read_trace: Vec<u16>,
    /// Scheduler stall attribution.
    pub stalls: StallBreakdown,
    /// Memory system counters.
    pub mem: MemStats,
    /// Cycle at which each kernel of the app finished draining.
    pub kernel_end_cycles: Vec<u64>,
    /// Instructions dispatched per execution pipeline class, in
    /// [`subcore_isa::Pipeline`] dense-index order (fma, alu, fp64, sfu,
    /// tensor, lsu).
    pub pipe_dispatched: [u64; 6],
    /// Sum over cycles of live resident warps (all SMs) — divide by
    /// `cycles × SMs` for average occupancy.
    pub warp_cycles: u64,
    /// Scheduler-cycles in which at least one instruction issued, summed
    /// over every scheduler domain of every SM. Together with
    /// [`RunStats::stalls`] this partitions the active scheduler-cycles
    /// exactly: `issue_cycles + stalls.total() == active_cycles × domains`.
    pub issue_cycles: u64,
    /// Cycles each SM actually ticked (was non-idle), summed over SMs.
    pub active_cycles: u64,
    /// The windowed probe-event time-series of the traced SM; `None`
    /// unless [`crate::StatsConfig::trace_window`] was nonzero.
    pub windowed: Option<WindowedSeries>,
    /// Per-tenant breakdowns of a multi-tenant run; empty for
    /// single-tenant runs through [`crate::simulate_app`].
    pub tenants: Vec<TenantStats>,
}

impl RunStats {
    /// Instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mean, over SMs that issued anything, of the coefficient of variation
    /// of per-scheduler issued-instruction counts — the paper's Fig. 17
    /// balance metric (`c_v = σ / μ`, population σ).
    ///
    /// Returns `None` for fully-connected runs (a single scheduler domain
    /// has no variation to measure) or if nothing was issued.
    pub fn issue_cv(&self) -> Option<f64> {
        let mut cvs = Vec::new();
        for sm in &self.issued_per_scheduler {
            if sm.len() < 2 {
                return None;
            }
            let total: u64 = sm.iter().sum();
            if total == 0 {
                continue;
            }
            let n = sm.len() as f64;
            let mean = total as f64 / n;
            let var = sm.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
            cvs.push(var.sqrt() / mean);
        }
        if cvs.is_empty() {
            None
        } else {
            Some(cvs.iter().sum::<f64>() / cvs.len() as f64)
        }
    }

    /// Average register-file read grants per cycle (multiply by 32 for the
    /// paper's "reads per cycle" units, which count per-thread 4 B reads).
    pub fn rf_reads_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rf_reads as f64 / self.cycles as f64
        }
    }

    /// Average register-file read grants per cycle *per SM* (the paper's
    /// Fig. 14 axis is per-SM, with a peak of 8 grants = 256 per-thread
    /// reads on the V100 model).
    pub fn rf_reads_per_cycle_per_sm(&self) -> f64 {
        let sms = self.issued_per_scheduler.len().max(1);
        self.rf_reads_per_cycle() / sms as f64
    }

    /// Average live warps resident per SM (occupancy; 64 is the V100 max).
    pub fn avg_occupancy(&self) -> f64 {
        let sms = self.issued_per_scheduler.len().max(1);
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_cycles as f64 / self.cycles as f64 / sms as f64
        }
    }
}

impl JsonCodec for RunStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::Uint(self.cycles)),
            ("instructions", Json::Uint(self.instructions)),
            (
                "issued_per_scheduler",
                Json::Arr(
                    self.issued_per_scheduler
                        .iter()
                        .map(Vec::as_slice)
                        .map(Json::from_u64_list)
                        .collect(),
                ),
            ),
            ("rf_reads", Json::Uint(self.rf_reads)),
            ("rf_conflict_enqueues", Json::Uint(self.rf_conflict_enqueues)),
            (
                "rf_read_trace",
                Json::Arr(self.rf_read_trace.iter().map(|&x| Json::Uint(u64::from(x))).collect()),
            ),
            ("stalls", self.stalls.to_json()),
            ("mem", self.mem.to_json()),
            ("kernel_end_cycles", Json::from_u64_list(&self.kernel_end_cycles)),
            ("pipe_dispatched", Json::from_u64_list(&self.pipe_dispatched)),
            ("warp_cycles", Json::Uint(self.warp_cycles)),
            ("issue_cycles", Json::Uint(self.issue_cycles)),
            ("active_cycles", Json::Uint(self.active_cycles)),
            ("windowed", self.windowed.as_ref().map_or(Json::Null, JsonCodec::to_json)),
            ("tenants", Json::Arr(self.tenants.iter().map(JsonCodec::to_json).collect())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let pipe_list = json.field("pipe_dispatched")?.as_u64_list()?;
        let pipe_dispatched: [u64; 6] = pipe_list.as_slice().try_into().map_err(|_| JsonError {
            msg: format!("pipe_dispatched needs 6 entries, found {}", pipe_list.len()),
        })?;
        Ok(RunStats {
            cycles: json.field("cycles")?.as_u64()?,
            instructions: json.field("instructions")?.as_u64()?,
            issued_per_scheduler: json
                .field("issued_per_scheduler")?
                .as_arr()?
                .iter()
                .map(Json::as_u64_list)
                .collect::<Result<_, _>>()?,
            rf_reads: json.field("rf_reads")?.as_u64()?,
            rf_conflict_enqueues: json.field("rf_conflict_enqueues")?.as_u64()?,
            rf_read_trace: json
                .field("rf_read_trace")?
                .as_u64_list()?
                .into_iter()
                .map(|x| {
                    u16::try_from(x).map_err(|_| JsonError {
                        msg: format!("rf_read_trace entry {x} exceeds u16"),
                    })
                })
                .collect::<Result<_, _>>()?,
            stalls: StallBreakdown::from_json(json.field("stalls")?)?,
            mem: MemStats::from_json(json.field("mem")?)?,
            kernel_end_cycles: json.field("kernel_end_cycles")?.as_u64_list()?,
            pipe_dispatched,
            warp_cycles: json.field("warp_cycles")?.as_u64()?,
            issue_cycles: json.field("issue_cycles")?.as_u64()?,
            active_cycles: json.field("active_cycles")?.as_u64()?,
            windowed: match json.field("windowed")? {
                Json::Null => None,
                other => Some(WindowedSeries::from_json(other)?),
            },
            // Tolerate v2 archives that predate the field.
            tenants: match json.field("tenants") {
                Err(_) | Ok(Json::Null) => Vec::new(),
                Ok(list) => {
                    list.as_arr()?.iter().map(TenantStats::from_json).collect::<Result<_, _>>()?
                }
            },
        })
    }
}

/// Errors produced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configured cycle limit was reached before the workload drained —
    /// almost always a deadlocked workload (e.g. a barrier no warp can
    /// reach) or a pathologically undersized limit.
    CycleLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// A kernel requires more resources than one SM provides (it could
    /// never be scheduled).
    KernelUnschedulable {
        /// Name of the offending kernel.
        kernel: String,
        /// Human-readable description of the resource that does not fit.
        reason: String,
    },
    /// A multi-tenant run was given an unusable SM partition (empty set,
    /// SM id beyond the GPU, or no tenants at all).
    InvalidPartition {
        /// Name of the offending tenant (empty when no tenant is at fault).
        tenant: String,
        /// Human-readable description of what is wrong with the partition.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the {limit}-cycle safety limit")
            }
            SimError::KernelUnschedulable { kernel, reason } => {
                write!(f, "kernel `{kernel}` can never be scheduled: {reason}")
            }
            SimError::InvalidPartition { tenant, reason } => {
                if tenant.is_empty() {
                    write!(f, "invalid tenant partition: {reason}")
                } else {
                    write!(f, "tenant `{tenant}` has an invalid partition: {reason}")
                }
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = RunStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn cv_balanced_is_zero() {
        let s =
            RunStats { issued_per_scheduler: vec![vec![100, 100, 100, 100]], ..Default::default() };
        assert_eq!(s.issue_cv(), Some(0.0));
    }

    #[test]
    fn cv_pathological_imbalance() {
        let s = RunStats { issued_per_scheduler: vec![vec![400, 0, 0, 0]], ..Default::default() };
        // σ of [400,0,0,0] is 173.2, μ = 100 → cv = √3 ≈ 1.732.
        let cv = s.issue_cv().unwrap();
        assert!((cv - 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn cv_none_for_fully_connected() {
        let s = RunStats { issued_per_scheduler: vec![vec![100]], ..Default::default() };
        assert_eq!(s.issue_cv(), None);
    }

    #[test]
    fn stall_totals_add_up() {
        let mut a = StallBreakdown { idle: 1, barrier: 2, ..Default::default() };
        let b = StallBreakdown { scoreboard: 3, ..Default::default() };
        a.add(&b);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn run_stats_round_trip_through_json() {
        let stats = RunStats {
            cycles: (1 << 53) + 7, // past f64's exact-integer range
            instructions: 123_456,
            issued_per_scheduler: vec![vec![10, 20, 30, 40], vec![1, 2, 3, 4]],
            rf_reads: 999,
            rf_conflict_enqueues: 55,
            rf_read_trace: vec![0, 8, u16::MAX],
            stalls: StallBreakdown {
                idle: 1,
                barrier: 2,
                no_collector_unit: 3,
                scoreboard: 4,
                empty_ibuffer: 5,
            },
            mem: MemStats { l1_hits: 7, l2_misses: 9, ..Default::default() },
            kernel_end_cycles: vec![100, 200],
            pipe_dispatched: [1, 2, 3, 4, 5, 6],
            warp_cycles: 777,
            issue_cycles: 888,
            active_cycles: 1111,
            windowed: Some(WindowedSeries {
                sm: 0,
                window: 64,
                domains: 4,
                banks: 2,
                total_cycles: 128,
                windows: Vec::new(),
            }),
            tenants: vec![TenantStats {
                name: "t0".into(),
                arrival: 10,
                finish: 200,
                kernel_end_cycles: vec![100, 200],
                deadline: Some(250),
                sm_set: vec![0, 1],
                instructions: 42,
                stalls: StallBreakdown { idle: 6, ..Default::default() },
            }],
        };
        let text = stats.to_json().render();
        let back = RunStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
        // And the serialized form itself is deterministic.
        assert_eq!(back.to_json().render(), text);
        // A stats block without a trace serializes the field as null.
        let untraced = RunStats::default();
        assert!(untraced.to_json().render().contains("\"windowed\":null"));
        let back = RunStats::from_json(&Json::parse(&untraced.to_json().render()).unwrap());
        assert_eq!(back.unwrap().windowed, None);
    }

    #[test]
    fn run_stats_decode_rejects_malformed() {
        let mut good = RunStats::default().to_json();
        if let Json::Obj(map) = &mut good {
            map.insert("pipe_dispatched".into(), Json::from_u64_list(&[1, 2, 3]));
        }
        assert!(RunStats::from_json(&good).unwrap_err().msg.contains("6 entries"));
        assert!(RunStats::from_json(&Json::Null).is_err());
    }

    #[test]
    fn errors_display() {
        let e = SimError::CycleLimitExceeded { limit: 42 };
        assert!(e.to_string().contains("42"));
        let e = SimError::KernelUnschedulable { kernel: "k".into(), reason: "too fat".into() };
        assert!(e.to_string().contains("too fat"));
        let e = SimError::InvalidPartition { tenant: "t".into(), reason: "empty SM set".into() };
        assert!(e.to_string().contains("`t`") && e.to_string().contains("empty SM set"));
        let e = SimError::InvalidPartition { tenant: String::new(), reason: "no tenants".into() };
        assert!(e.to_string().contains("no tenants"));
    }

    #[test]
    fn tenant_stats_qos_accessors() {
        let mut t = TenantStats {
            arrival: 100,
            finish: 600,
            deadline: Some(500),
            ..TenantStats::default()
        };
        assert_eq!(t.makespan(), 500);
        assert_eq!(t.deadline_slack(), Some(-100));
        assert!(t.missed_deadline());
        t.deadline = Some(800);
        assert_eq!(t.deadline_slack(), Some(200));
        assert!(!t.missed_deadline());
        t.deadline = None;
        assert_eq!(t.deadline_slack(), None);
        assert!(!t.missed_deadline());
    }

    #[test]
    fn v2_stats_without_tenants_field_still_decode() {
        let mut legacy = RunStats::default().to_json();
        if let Json::Obj(map) = &mut legacy {
            map.remove("tenants");
        }
        let back = RunStats::from_json(&legacy).unwrap();
        assert!(back.tenants.is_empty());
    }
}
