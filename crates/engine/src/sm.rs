//! The streaming multiprocessor model: scheduler domains (sub-cores or one
//! fully-connected pool), operand collection, execution, and the
//! block-granularity resource lifecycle.
//!
//! # Data-oriented hot state
//!
//! All per-warp state lives in a [`WarpTable`] — parallel arrays indexed by
//! warp slot — and the resident-block table is a fixed arena of recycled
//! [`BlockState`] entries, so the per-cycle loops walk dense memory and the
//! accept/exit paths never allocate in steady state (the assignment plan
//! buffer, block warp lists, and instruction-buffer arena are all reused).
//!
//! # Event-maintained issue readiness
//!
//! Whether a warp can issue changes only when something happens *to that
//! warp* (a writeback, its own issue, a fetch), so the fast path keeps it
//! as a maintained fact: each domain holds [`Masks`] whose bit *p*
//! describes `warps[p]`, and the per-cycle candidate scan is mask
//! arithmetic plus one push per set bit, ascending — the scheduler table's
//! own order (hence position- not slot-indexed), so the selector sees the
//! polled reference's exact candidate list. `writeback`, every issue and
//! every fetch update the affected warp's bits in place; anything that
//! reshapes the table or flips a run state (admission, `free_block`,
//! warp-level dealloc, `steal_warps`, barrier park/release, exit) marks
//! the domain dirty, and every reader (`issue_domain`, `fetch`,
//! `wake_hint`) rebuilds from the per-slot truth first — until then the
//! masks and its warps' `pos` are unspecified. DESIGN.md has the
//! event → bit table.
//!
//! The polled scan of every table entry stays as the executable spec:
//! [`EngineMode::Reference`] runs it (and maintains no masks), and debug
//! builds of the fast path re-run it every domain-cycle and assert equal
//! candidates and stall-classification inputs. [`SmCore::tick`] also
//! reports whether the cycle changed any architectural state so the
//! top-level loop can fast-forward over quiescent spans (see
//! [`SmCore::wake_hint`] and [`SmCore::account_skipped`]).

use crate::collector::{Arbiter, CollectorUnit};
use crate::config::{EngineMode, GpuConfig};
use crate::exec::ExecPools;
use crate::policy::{IssueCandidate, IssueView, Policies, SubcoreAssigner, WarpSelector};
use crate::stats::StallBreakdown;
use crate::warp::{DecodedInstr, Head, SlotState, WarpTable};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use subcore_isa::{Kernel, MemPattern, OpClass, Pipeline, Reg};
use subcore_mem::{coalesce, MemSystem, StreamCtx};
use subcore_trace::{StallKind, TraceEvent, Tracer, MAX_TRACED_BANKS};

/// One scheduler domain: a sub-core in partitioned mode, or the whole SM in
/// fully-connected mode.
#[derive(Debug)]
struct Domain {
    selector: Box<dyn WarpSelector>,
    /// Warp slots pinned to this domain (insertion order).
    warps: Vec<u32>,
    /// Readiness masks over `warps` (fast path only; see the module docs).
    masks: Masks,
    cus: Vec<CollectorUnit>,
    arbiter: Arbiter,
    exec: ExecPools,
    num_banks: u32,
    issue_width: u32,
    warp_capacity: u32,
    /// Register capacity in per-thread registers (512 = 64 KB / 32 lanes / 4 B).
    regs_capacity: u32,
    regs_used: u32,
    issued: u64,
    /// Cycles in which this domain's scheduler issued at least one
    /// instruction (the complement of `stalls` over active cycles).
    issue_cycles: u64,
    last_issued: Option<u32>,
    stalls: StallBreakdown,
    candidates: Vec<IssueCandidate>,
    /// The stall classification of the most recent non-issuing cycle:
    /// `(kind, warps blocked on collector units)`. During a quiescent span
    /// every cycle reproduces this classification exactly (nothing that
    /// feeds it can change without the tick reporting a state change), so
    /// skip-ahead replays it per synthesized cycle.
    stall_snapshot: (StallKind, u32),
}

/// Register → bank swizzle: `(reg + 3·local_warp_index) % num_banks`, the
/// GPGPU-Sim/Volta-style warp-staggered mapping. The ×3 stagger (co-prime
/// with every bank count used here) spreads *consecutively allocated*
/// warps across distinct bank windows; for the 2-bank sub-core it reduces
/// to plain parity staggering (3·l ≡ l mod 2).
///
/// This is the single source of truth for the operand→bank mapping: the
/// dynamic engine (collector-unit operand reads, the RBA score) and the
/// static analyzer (`subcore-lint` bank-pressure histograms) both call it,
/// so the static model can never drift from the simulated hardware.
#[inline]
#[must_use]
pub fn bank_of_register(reg: Reg, local_warp_index: u32, num_banks: u32) -> u8 {
    let staggered = reg.index() as u32 + 3 * local_warp_index;
    // Bank counts are powers of two in practice: mask, don't divide (the
    // branch predicts perfectly within a run).
    if num_banks.is_power_of_two() {
        (staggered & (num_banks - 1)) as u8
    } else {
        (staggered % num_banks) as u8
    }
}

impl Domain {
    fn free_cu(&self) -> Option<usize> {
        self.cus.iter().position(|c| !c.busy)
    }

    /// Stages `decoded` — the just-popped head that `cand` describes — in
    /// collector unit `cu_idx`: one bank read per source operand, the
    /// destination scoreboarded until writeback.
    fn collect(
        &mut self,
        warps: &mut WarpTable,
        cu_idx: usize,
        cand: &IssueCandidate,
        decoded: DecodedInstr,
    ) {
        let cu = &mut self.cus[cu_idx];
        cu.busy = true;
        cu.ready = cand.num_srcs == 0;
        cu.warp_slot = cand.warp_slot;
        cu.instr = decoded;
        cu.remaining = cand.num_srcs;
        for &bank in &cand.banks[..cand.num_srcs as usize] {
            self.arbiter.enqueue(bank as usize, cu_idx as u16);
        }
        let s = cand.warp_slot as usize;
        if let Some(dst) = decoded.instr.dst {
            warps.scoreboard[s].set(dst);
        }
        warps.outstanding[s] += 1;
    }
}

/// Per-domain readiness masks: bit `p` describes `Domain::warps[p]`. One
/// word suffices because a domain never holds more warps than the SM has
/// slots (even with work stealing's squatting entries), which
/// [`GpuConfig::validate`] bounds by [`GpuConfig::MAX_WARPS_PER_SM`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Masks {
    /// The warp is [`SlotState::Ready`].
    ready: u64,
    /// The warp is parked [`SlotState::AtBarrier`].
    parked: u64,
    /// It has a buffered head instruction.
    head: u64,
    /// [`WarpTable::head_clear`] holds for it.
    clear: u64,
    /// Its head is a control op (issues without a collector unit).
    control: u64,
    /// Its instruction buffer has room for a fetch.
    room: u64,
}

impl Masks {
    /// Re-derives position `p`'s buffer-dependent bits from slot `s`'s
    /// cached head, buffer occupancy, scoreboard and outstanding count.
    #[inline]
    fn refresh_ibuf(&mut self, p: u8, warps: &WarpTable, s: usize) {
        let op = warps.head[s].map(|head| head.op);
        let put = |mask: &mut u64, on: bool| *mask = (*mask & !(1 << p)) | (u64::from(on) << p);
        put(&mut self.head, op.is_some());
        put(&mut self.clear, warps.head_clear(s));
        put(&mut self.control, op.is_some_and(OpClass::is_control));
        put(&mut self.room, warps.ibuf_has_room(s));
    }

    /// Builds every mask (and every listed warp's `pos`) from scratch.
    fn rebuild(table: &[u32], warps: &mut WarpTable) -> Self {
        let mut masks = Masks::default();
        for (p, &slot) in table.iter().enumerate() {
            let s = slot as usize;
            warps.pos[s] = p as u8;
            masks.ready |= u64::from(warps.state[s] == SlotState::Ready) << p;
            masks.parked |= u64::from(warps.state[s] == SlotState::AtBarrier) << p;
            masks.refresh_ibuf(p as u8, warps, s);
        }
        masks
    }
}

/// The set bit positions of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// What one domain-cycle's candidate scan saw besides the candidates: the
/// inputs of the stall classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Scan {
    saw_live: bool,
    saw_barrier: bool,
    blocked_scoreboard: u32,
    blocked_no_cu: u32,
}

/// The polled reference scan — the executable spec of issue readiness:
/// walks every scheduler-table entry in order and hands each issuable head
/// to `push`.
fn scan_reference(
    d: &Domain,
    warps: &WarpTable,
    now: u64,
    free_cus: usize,
    mut push: impl FnMut(IssueCandidate),
) -> Scan {
    let mut scan = Scan::default();
    for &slot in &d.warps {
        let s = slot as usize;
        match warps.state[s] {
            SlotState::Vacant => {
                debug_assert!(false, "domain warps are resident");
                continue;
            }
            SlotState::Exited => continue,
            SlotState::AtBarrier => {
                scan.saw_barrier = true;
                continue;
            }
            SlotState::Ready => scan.saw_live = true,
        }
        let Some(head) = warps.head[s].filter(|_| now >= warps.stall_until[s]) else {
            continue;
        };
        if !warps.head_clear(s) {
            scan.blocked_scoreboard += 1;
        } else if head.cand.pipeline != Pipeline::Control && free_cus == 0 {
            scan.blocked_no_cu += 1;
        } else {
            push(head.cand);
        }
    }
    scan
}

/// The fast scan: the same answer as [`scan_reference`] from the domain's
/// (clean) masks. `stall_until` is only ever set by work stealing, so it is
/// tested — per head bit — only there.
fn scan_masks(
    d: &Domain,
    warps: &WarpTable,
    now: u64,
    free_cus: usize,
    work_stealing: bool,
    candidates: &mut Vec<IssueCandidate>,
) -> Scan {
    let m = &d.masks;
    let mut heads = m.ready & m.head;
    if work_stealing {
        for p in bits(heads) {
            heads &= !(u64::from(now < warps.stall_until[d.warps[p] as usize]) << p);
        }
    }
    let mut issuable = heads & m.clear;
    let mut blocked_no_cu = 0;
    if free_cus == 0 {
        blocked_no_cu = (issuable & !m.control).count_ones();
        issuable &= m.control;
    }
    // No iterator adapters: `filter_map` + `extend` spilled the candidate's padding via the stack.
    for p in bits(issuable) {
        if let Some(head) = &warps.head[d.warps[p] as usize] {
            candidates.push(head.cand);
        }
    }
    Scan {
        saw_live: m.ready != 0,
        saw_barrier: m.parked != 0,
        blocked_scoreboard: (heads & !m.clear).count_ones(),
        blocked_no_cu,
    }
}

/// A resident thread block. Entries live in a fixed arena owned by the SM
/// and are recycled across blocks (the `warp_slots` buffer keeps its
/// capacity), so block admission never allocates in steady state.
#[derive(Debug)]
struct BlockState {
    /// Whether a block currently occupies this arena entry.
    occupied: bool,
    live_warps: u32,
    at_barrier: u32,
    shared_mem: u32,
    /// Per-thread registers each of its warps holds in its domain.
    regs_per_warp: u32,
    /// The globally unique block number admission stamped this entry with
    /// (the multi-tenant dispatcher maps retirements back to tenants by it).
    uid: u64,
    warp_slots: Vec<u32>,
}

impl BlockState {
    fn vacant() -> Self {
        BlockState {
            occupied: false,
            live_warps: 0,
            at_barrier: 0,
            shared_mem: 0,
            regs_per_warp: 0,
            uid: 0,
            warp_slots: Vec::new(),
        }
    }
}

/// Completion event, min-first: (cycle, tag), built by [`completion`]. A
/// scalar pair is pushed in registers; a padded triple spilled via the stack.
type Completion = Reverse<(u64, u64)>;

/// Tags `slot << 16 | reg + 1` (0 for none), which orders like `(slot, dst)`.
fn completion(cycle: u64, slot: u32, dst: Option<Reg>) -> Completion {
    Reverse((cycle, u64::from(slot) << 16 | dst.map_or(0, |r| u64::from(r.0) + 1)))
}

/// The `(slot, dst)` a [`completion`]'s tag packs.
fn completion_target(tag: u64) -> (usize, Option<Reg>) {
    ((tag >> 16) as usize, (tag as u16).checked_sub(1).map(|r| Reg(r as u8)))
}

/// The SM model.
#[derive(Debug)]
pub(crate) struct SmCore {
    id: usize,
    domains: Vec<Domain>,
    warps: WarpTable,
    blocks: Vec<BlockState>,
    resident_blocks: u32,
    shared_used: u32,
    shared_capacity: u32,
    bank_stealing: bool,
    line_bytes: u32,
    assigner: Box<dyn SubcoreAssigner>,
    /// Recycled warp → sub-core assignment plan buffer; `plan_valid` marks
    /// a stashed plan from a failed admission that must be retried verbatim
    /// (the assigner's warp counter already advanced past it).
    plan_buf: Vec<u32>,
    plan_valid: bool,
    age_counter: u64,
    completions: BinaryHeap<Completion>,
    txn_scratch: Vec<u64>,
    finalize_scratch: Vec<usize>,
    rf_trace: Option<Vec<u16>>,
    grants_this_cycle: u32,
    issued_total: u64,
    warp_level_dealloc: bool,
    work_stealing: bool,
    rf_write_port_contention: bool,
    /// Per-domain bitmask of banks consumed by writebacks this cycle.
    write_masks: Vec<u32>,
    /// Live (non-exited) resident warps, for occupancy statistics.
    live_warps: u32,
    /// Sum over cycles of live resident warps.
    warp_cycles: u64,
    /// Cycles this SM actually ticked (was non-idle).
    active_cycles: u64,
    /// Fast scan path: maintain and read the readiness masks (every mode
    /// but [`EngineMode::Reference`]).
    fast: bool,
    /// Per-domain "readiness masks are stale" flags.
    masks_dirty: Vec<bool>,
    /// Scratch for per-domain warp demand during block admission.
    demand_scratch: Vec<u32>,
    /// When set, [`SmCore::free_block`] records the uid of every retired
    /// block so the multi-tenant dispatcher can attribute completions.
    track_retired: bool,
    /// Uids of blocks retired since the last [`SmCore::take_retired`] drain.
    retired_uids: Vec<u64>,
}

impl SmCore {
    pub(crate) fn new(cfg: &GpuConfig, id: usize, policies: &Policies) -> Self {
        let shape = cfg.domain();
        let banks = shape.banks;
        let domains = (0..shape.domains)
            .map(|_| Domain {
                selector: (policies.selector)(),
                warps: Vec::new(),
                masks: Masks::default(),
                cus: (0..shape.cus).map(|_| CollectorUnit::empty()).collect(),
                arbiter: Arbiter::new(banks, cfg.score_update_latency, shape.cus),
                exec: ExecPools::new(&cfg.exec, shape.exec_scale),
                num_banks: banks,
                issue_width: shape.issue_width,
                warp_capacity: shape.warp_slots,
                regs_capacity: shape.regs,
                regs_used: 0,
                issued: 0,
                issue_cycles: 0,
                last_issued: None,
                stalls: StallBreakdown::default(),
                candidates: Vec::new(),
                stall_snapshot: (StallKind::Idle, 0),
            })
            .collect();
        let rf_trace = (cfg.stats.record_rf_trace && cfg.stats.trace_sm == id).then(Vec::new);
        SmCore {
            id,
            domains,
            warps: WarpTable::new(cfg.max_warps_per_sm as usize, cfg.ibuffer_depth as usize, banks),
            blocks: (0..cfg.max_blocks_per_sm).map(|_| BlockState::vacant()).collect(),
            resident_blocks: 0,
            shared_used: 0,
            shared_capacity: cfg.shared_mem_per_sm,
            bank_stealing: cfg.bank_stealing,
            line_bytes: cfg.mem.line_bytes,
            assigner: (policies.assigner)(id as u32),
            plan_buf: Vec::new(),
            plan_valid: false,
            age_counter: 0,
            completions: BinaryHeap::new(),
            txn_scratch: Vec::new(),
            finalize_scratch: Vec::new(),
            rf_trace,
            grants_this_cycle: 0,
            issued_total: 0,
            warp_level_dealloc: cfg.warp_level_dealloc,
            work_stealing: cfg.work_stealing,
            rf_write_port_contention: cfg.rf_write_port_contention,
            write_masks: vec![0; shape.domains as usize],
            live_warps: 0,
            warp_cycles: 0,
            active_cycles: 0,
            fast: cfg.engine_mode != EngineMode::Reference,
            masks_dirty: vec![false; shape.domains as usize],
            demand_scratch: Vec::new(),
            track_retired: false,
            retired_uids: Vec::new(),
        }
    }

    /// Enables retired-block uid tracking (multi-tenant dispatch only; the
    /// single-tenant path leaves it off so the hot loop stays untouched).
    pub(crate) fn set_track_retired(&mut self, on: bool) {
        self.track_retired = on;
    }

    /// Drains the uids of blocks retired since the last call into `out`.
    pub(crate) fn take_retired(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.retired_uids);
    }

    /// True when nothing is resident or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.resident_blocks == 0 && self.completions.is_empty()
    }

    /// Attempts to schedule one block of `kernel` on this SM. `block_uid` is
    /// a globally unique block number used to derive memory stream ids.
    pub(crate) fn try_accept(
        &mut self,
        kernel: &Kernel,
        block_uid: u64,
        now: u64,
        tracer: &mut Tracer<'_>,
    ) -> bool {
        let block_warps = kernel.warps_per_block();
        let regs_per_warp = u32::from(kernel.regs_per_thread());
        let Some(block_slot) = self.blocks.iter().position(|b| !b.occupied) else {
            return false;
        };
        if self.shared_used + kernel.shared_mem_bytes() > self.shared_capacity {
            return false;
        }
        // Plan (or re-use a stashed plan for) the warp → sub-core assignment.
        // A stashed plan is only reusable for a block of the same shape; a
        // shape change (next kernel, or another tenant's kernel on a shared
        // SM) invalidates it and forces a fresh plan.
        if self.plan_valid && self.plan_buf.len() != block_warps as usize {
            self.plan_valid = false;
        }
        if !self.plan_valid {
            self.plan_buf.clear();
            self.assigner.assign_block_into(
                block_warps,
                self.domains.len() as u32,
                &mut self.plan_buf,
            );
            self.plan_valid = true;
        }
        debug_assert_eq!(self.plan_buf.len(), block_warps as usize);
        let mut demand = std::mem::take(&mut self.demand_scratch);
        demand.clear();
        demand.resize(self.domains.len(), 0);
        for &d in &self.plan_buf {
            demand[d as usize] += 1;
        }
        let feasible = self.domains.iter().zip(&demand).all(|(d, &n)| {
            d.warps.len() as u32 + n <= d.warp_capacity
                && d.regs_used + n * regs_per_warp <= d.regs_capacity
        });
        self.demand_scratch = demand;
        if !feasible {
            // Keep the plan: the assigner's warp counter must stay
            // consistent with what will eventually be placed.
            return false;
        }
        self.plan_valid = false;

        {
            let Self { warps, domains, blocks, masks_dirty, age_counter, plan_buf, .. } = self;
            let block = &mut blocks[block_slot];
            debug_assert!(block.warp_slots.is_empty(), "vacant entries have cleared slot lists");
            let mut free_iter = 0usize;
            for (w, &dom) in plan_buf.iter().enumerate() {
                while warps.state[free_iter] != SlotState::Vacant {
                    free_iter += 1;
                }
                let slot = free_iter as u32;
                let program = kernel.program(w as u32);
                let local_index = domains[dom as usize].warps.len() as u32;
                warps.insert(
                    free_iter,
                    *age_counter,
                    local_index,
                    dom,
                    program.cursor(),
                    block_slot,
                    block_uid * 64 + w as u64,
                );
                *age_counter += 1;
                let d = &mut domains[dom as usize];
                d.warps.push(slot);
                d.regs_used += regs_per_warp;
                masks_dirty[dom as usize] = true;
                block.warp_slots.push(slot);
                free_iter += 1;
            }
            block.occupied = true;
            block.live_warps = block_warps;
            block.at_barrier = 0;
            block.shared_mem = kernel.shared_mem_bytes();
            block.regs_per_warp = regs_per_warp;
            block.uid = block_uid;
        }
        self.shared_used += kernel.shared_mem_bytes();
        self.resident_blocks += 1;
        self.live_warps += block_warps;
        tracer.emit(|| TraceEvent::Occupancy {
            cycle: now,
            sm: self.id as u32,
            live_warps: self.live_warps,
        });
        true
    }

    /// Advances the SM by one cycle. Returns `true` if any architectural
    /// state changed — a completion retired, a bank granted, a warp moved,
    /// an instruction dispatched or issued (or *could have been* selected:
    /// a non-empty candidate list counts conservatively, since selectors
    /// may carry internal state), or a fetch filled an ibuffer slot. A
    /// `false` return means the very same tick would repeat verbatim every
    /// cycle until the wake point reported by [`SmCore::wake_hint`].
    pub(crate) fn tick(&mut self, now: u64, mem: &mut MemSystem, tracer: &mut Tracer<'_>) -> bool {
        if self.is_idle() {
            if let Some(trace) = &mut self.rf_trace {
                trace.push(0);
            }
            return false;
        }
        let sm = self.id as u32;
        self.active_cycles += 1;
        self.grants_this_cycle = 0;
        self.warp_cycles += u64::from(self.live_warps);
        self.write_masks.iter_mut().for_each(|m| *m = 0);
        let mut changed = self.writeback(now);
        // Operand collection: snapshot queue lengths (the scheduler's view),
        // then grant one request per bank (skipping banks whose port a
        // writeback consumed, when write contention is modeled).
        for di in 0..self.domains.len() {
            let mask = self.write_masks[di];
            let d = &mut self.domains[di];
            d.arbiter.snapshot();
            if tracer.enabled() {
                // Physical queue depths at cycle start, before this
                // cycle's grants drain one entry per bank.
                let mut depths = [0u16; MAX_TRACED_BANKS];
                let nb = (d.num_banks as usize).min(MAX_TRACED_BANKS);
                for (b, slot) in depths[..nb].iter_mut().enumerate() {
                    *slot = d.arbiter.current_len(b).min(usize::from(u16::MAX)) as u16;
                }
                tracer.emit(|| TraceEvent::BankDepths {
                    cycle: now,
                    sm,
                    domain: di as u32,
                    num_banks: nb as u8,
                    depths,
                });
            }
            self.grants_this_cycle += d.arbiter.grant_masked(&mut d.cus, mask);
        }
        changed |= self.grants_this_cycle > 0;
        if self.work_stealing {
            changed |= self.steal_warps(now);
        }
        changed |= self.dispatch(now, mem);
        let mut finalize = std::mem::take(&mut self.finalize_scratch);
        finalize.clear();
        for di in 0..self.domains.len() {
            changed |= self.issue_domain(di, now, &mut finalize, tracer);
        }
        if self.bank_stealing {
            for di in 0..self.domains.len() {
                changed |= self.steal_banks(di, now, tracer);
            }
        }
        for bs in finalize.drain(..) {
            self.free_block(bs);
            tracer.emit(|| TraceEvent::BlockDealloc { cycle: now, sm, block_slot: bs as u32 });
        }
        self.finalize_scratch = finalize;
        changed |= self.fetch();
        if let Some(trace) = &mut self.rf_trace {
            trace.push(self.grants_this_cycle.min(u32::from(u16::MAX)) as u16);
        }
        changed
    }

    /// The earliest future cycle at which this SM's state can change on its
    /// own, given that the tick at `now` changed nothing: the next
    /// completion, the expiry of a migration stall on a ready warp, or a
    /// pipeline unit freeing up under a collected instruction waiting to
    /// dispatch. Returns `u64::MAX` when no such event is pending (idle, or
    /// deadlocked on a barrier that only another SM's progress could break
    /// — which cannot happen with well-formed kernels; the caller then
    /// runs into the cycle limit exactly as the polled loop would).
    ///
    /// Only meaningful on the fast path immediately after an unchanged
    /// tick: every blocked-warp reason other than the three above implies
    /// the tick *did* change state (a grant drained a queue, a fetch filled
    /// a buffer, …), so those three are the complete wake set.
    pub(crate) fn wake_hint(&self, now: u64) -> u64 {
        debug_assert!(self.fast, "wake hints are only valid on the fast scan path");
        if self.is_idle() {
            return u64::MAX;
        }
        let mut wake = u64::MAX;
        if let Some(&Reverse((cycle, _))) = self.completions.peek() {
            wake = wake.min(cycle);
        }
        for (di, d) in self.domains.iter().enumerate() {
            debug_assert!(!self.masks_dirty[di], "unchanged tick leaves the masks clean");
            // Migration stalls only exist under work stealing.
            let stallable = if self.work_stealing { d.masks.ready } else { 0 };
            for p in bits(stallable) {
                let stall_until = self.warps.stall_until[d.warps[p] as usize];
                if stall_until > now {
                    wake = wake.min(stall_until);
                }
            }
            for cu in &d.cus {
                if cu.busy && cu.ready {
                    let p = if cu.instr.instr.mem.is_some() {
                        Pipeline::Lsu
                    } else {
                        cu.instr.instr.op.pipeline()
                    };
                    wake = wake.min(d.exec.earliest_free(p));
                }
            }
        }
        wake
    }

    /// Fast-forwards this SM over `k` quiescent cycles starting at `start`,
    /// reproducing exactly the statistics and probe events the polled loop
    /// would have produced by re-running the unchanged tick: one active
    /// cycle, one stall (per the frozen classification) per domain, frozen
    /// bank queues (necessarily empty — a pending request would have been
    /// granted), and zero register-file reads per cycle.
    pub(crate) fn account_skipped(&mut self, start: u64, k: u64, tracer: &mut Tracer<'_>) {
        if k == 0 {
            return;
        }
        if self.is_idle() {
            // An idle SM's tick only records the (empty) RF-read sample.
            if let Some(trace) = &mut self.rf_trace {
                trace.resize(trace.len() + k as usize, 0);
            }
            return;
        }
        self.active_cycles += k;
        self.warp_cycles += k * u64::from(self.live_warps);
        for d in &mut self.domains {
            d.arbiter.advance_idle(k);
            d.stalls.bump_n(d.stall_snapshot.0, k);
        }
        if let Some(trace) = &mut self.rf_trace {
            trace.resize(trace.len() + k as usize, 0);
        }
        if tracer.enabled() {
            let sm = self.id as u32;
            for cycle in start..start + k {
                for (di, d) in self.domains.iter().enumerate() {
                    let nb = (d.num_banks as usize).min(MAX_TRACED_BANKS);
                    tracer.emit(|| TraceEvent::BankDepths {
                        cycle,
                        sm,
                        domain: di as u32,
                        num_banks: nb as u8,
                        depths: [0u16; MAX_TRACED_BANKS],
                    });
                }
                for (di, d) in self.domains.iter().enumerate() {
                    let (kind, blocked) = d.stall_snapshot;
                    tracer.emit(|| TraceEvent::Stall { cycle, sm, domain: di as u32, kind });
                    if blocked > 0 {
                        tracer.emit(|| TraceEvent::CuAllocFail {
                            cycle,
                            sm,
                            domain: di as u32,
                            blocked_warps: blocked,
                        });
                    }
                }
            }
        }
    }

    fn writeback(&mut self, now: u64) -> bool {
        let mut retired = false;
        while let Some(&Reverse((cycle, tag))) = self.completions.peek() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            retired = true;
            let (s, dst) = completion_target(tag);
            debug_assert_ne!(
                self.warps.state[s],
                SlotState::Vacant,
                "completions never outlive their warp's block"
            );
            self.warps.outstanding[s] -= 1;
            let dom = self.warps.domain[s] as usize;
            if let Some(d) = dst {
                self.warps.scoreboard[s].clear(d);
                if self.rf_write_port_contention {
                    let banks = self.domains[dom].num_banks;
                    self.write_masks[dom] |=
                        1 << bank_of_register(d, self.warps.local_index[s], banks);
                }
            }
            // A completion can only unblock the head, never block it.
            if self.fast && self.warps.head_clear(s) {
                self.domains[dom].masks.clear |= 1 << self.warps.pos[s];
            }
        }
        retired
    }

    /// Idealized work stealing: a sub-core with no *runnable* warps (all
    /// exited or parked at a barrier) pulls the youngest runnable warp from
    /// the most-loaded sub-core, paying a register-copy penalty.
    fn steal_warps(&mut self, now: u64) -> bool {
        let mut stole = false;
        let runnable = |warps: &WarpTable, s: u32| warps.state[s as usize] == SlotState::Ready;
        for di in 0..self.domains.len() {
            let recipient_ready =
                self.domains[di].warps.iter().filter(|&&s| runnable(&self.warps, s)).count();
            if recipient_ready > 0 {
                continue;
            }
            // Donor: the domain with the most runnable warps (needs ≥ 2).
            let Some((donor, donor_ready)) = (0..self.domains.len())
                .filter(|&dj| dj != di)
                .map(|dj| {
                    let ready = self.domains[dj]
                        .warps
                        .iter()
                        .filter(|&&s| runnable(&self.warps, s))
                        .count();
                    (dj, ready)
                })
                .max_by_key(|&(_, ready)| ready)
            else {
                continue;
            };
            if donor_ready < 2 {
                continue;
            }
            // Steal the donor's youngest runnable warp.
            let Some(&slot) =
                self.domains[donor].warps.iter().rev().find(|&&s| runnable(&self.warps, s))
            else {
                continue;
            };
            let s = slot as usize;
            let regs = {
                let bs = self.warps.block_slot[s];
                debug_assert!(self.blocks[bs].occupied, "live warp's block resident");
                self.blocks[bs].regs_per_warp
            };
            // Idealized: the stolen warp squats on an extra scheduler-table
            // entry (real hardware could not), but register capacity is
            // physical and still binds.
            if self.domains[di].regs_used + regs > self.domains[di].regs_capacity {
                continue;
            }
            let pos =
                self.domains[donor].warps.iter().position(|&x| x == slot).expect("slot in donor");
            self.domains[donor].warps.remove(pos);
            self.domains[donor].regs_used -= regs;
            let new_local = self.domains[di].warps.len() as u32;
            self.domains[di].warps.push(slot);
            self.domains[di].regs_used += regs;
            self.masks_dirty[donor] = true;
            self.masks_dirty[di] = true;
            self.warps.domain[s] = di as u32;
            self.warps.local_index[s] = new_local;
            // The bank swizzle follows the new scheduler-table index.
            self.warps.refresh_head(s);
            // Register-file copy penalty: regs/2 cycles (two banks move one
            // 128 B register each per cycle).
            self.warps.stall_until[s] = now + u64::from(regs / 2);
            stole = true;
        }
        stole
    }

    /// Moves fully collected collector units into execution pipelines.
    fn dispatch(&mut self, now: u64, mem: &mut MemSystem) -> bool {
        let mut dispatched = false;
        let Self { domains, warps, completions, txn_scratch, id, line_bytes, .. } = self;
        for d in domains.iter_mut() {
            for cu in d.cus.iter_mut() {
                if !(cu.busy && cu.ready) {
                    continue;
                }
                let instr = cu.instr;
                let op = instr.instr.op;
                let pipeline = op.pipeline();
                let slot = cu.warp_slot;
                let done_at = if let Some(pattern) = instr.instr.mem {
                    debug_assert_ne!(warps.state[slot as usize], SlotState::Vacant);
                    match pattern {
                        MemPattern::SharedConflict { degree } => {
                            if d.exec.pool_mut(Pipeline::Lsu).try_dispatch(now, 1).is_none() {
                                continue;
                            }
                            mem.access_shared(*id, now, degree)
                        }
                        _ => {
                            txn_scratch.clear();
                            let ctx = StreamCtx {
                                stream_id: warps.stream_id[slot as usize],
                                dynamic_index: instr.dyn_idx,
                            };
                            let n = coalesce(pattern, ctx, *line_bytes, txn_scratch);
                            if d.exec.pool_mut(Pipeline::Lsu).try_dispatch(now, n as u64).is_none()
                            {
                                continue;
                            }
                            mem.access_global(*id, now, txn_scratch, !op.is_load())
                        }
                    }
                } else {
                    match d.exec.pool_mut(pipeline).try_dispatch(now, 1) {
                        Some(latency) => now + latency,
                        None => continue,
                    }
                };
                completions.push(completion(done_at.max(now + 1), slot, instr.instr.dst));
                cu.busy = false;
                cu.ready = false;
                dispatched = true;
            }
        }
        dispatched
    }

    fn issue_domain(
        &mut self,
        di: usize,
        now: u64,
        finalize: &mut Vec<usize>,
        tracer: &mut Tracer<'_>,
    ) -> bool {
        let Self {
            id,
            domains,
            warps,
            blocks,
            issued_total,
            live_warps,
            warp_level_dealloc,
            work_stealing,
            fast,
            masks_dirty,
            ..
        } = self;
        let fast = *fast;
        let sm = *id as u32;
        let d = &mut domains[di];
        let mut free_cus = d.cus.iter().filter(|c| !c.busy).count();

        let mut candidates = std::mem::take(&mut d.candidates);
        candidates.clear();
        let Scan { saw_live, saw_barrier, blocked_scoreboard, blocked_no_cu } = if fast {
            if std::mem::take(&mut masks_dirty[di]) {
                d.masks = Masks::rebuild(&d.warps, warps);
            }
            let scan = scan_masks(d, warps, now, free_cus, *work_stealing, &mut candidates);
            // Debug builds turn every simulation into a per-cycle
            // differential check of the masks against the spec.
            #[cfg(debug_assertions)]
            {
                let mut n = 0;
                let spec = scan_reference(d, warps, now, free_cus, |c| {
                    assert_eq!(candidates.get(n), Some(&c), "candidate {n} differs from spec");
                    n += 1;
                });
                assert_eq!((spec, n), (scan, candidates.len()), "scan differs from spec");
            }
            scan
        } else {
            scan_reference(d, warps, now, free_cus, |c| candidates.push(c))
        };
        // Conservative change marker: a non-empty candidate list reaches the
        // selector, which may update internal policy state even without
        // issuing.
        let had_candidates = !candidates.is_empty();

        let mut issued_any = false;
        for _ in 0..d.issue_width {
            if candidates.is_empty() {
                break;
            }
            let view = IssueView {
                candidates: &candidates,
                bank_queue_lens: d.arbiter.delayed_lens(),
                last_issued: d.last_issued,
            };
            let Some(ci) = d.selector.select(&view) else {
                break;
            };
            let rba_score = if tracer.enabled() { view.rba_score(ci) } else { 0 };
            let cand = candidates.swap_remove(ci);
            let slot = cand.warp_slot;
            let s = slot as usize;
            let decoded = warps.ibuf_pop(s);
            warps.issued[s] += 1;
            let block_slot = warps.block_slot[s];
            let i = decoded.instr;
            match i.op {
                OpClass::Barrier => {
                    warps.state[s] = SlotState::AtBarrier;
                    masks_dirty[di] = true;
                    let block = &mut blocks[block_slot];
                    debug_assert!(block.occupied, "warp's block resident");
                    block.at_barrier += 1;
                    tracer.emit(|| TraceEvent::BarrierWait {
                        cycle: now,
                        sm,
                        domain: di as u32,
                        warp_slot: slot,
                        block_slot: block_slot as u32,
                    });
                    if block.at_barrier == block.live_warps {
                        let released = block.at_barrier;
                        release_barrier(block, block_slot, warps, masks_dirty);
                        tracer.emit(|| TraceEvent::BarrierRelease {
                            cycle: now,
                            sm,
                            block_slot: block_slot as u32,
                            released,
                        });
                    }
                }
                OpClass::Exit => {
                    warps.state[s] = SlotState::Exited;
                    masks_dirty[di] = true;
                    *live_warps -= 1;
                    tracer.emit(|| TraceEvent::Occupancy {
                        cycle: now,
                        sm,
                        live_warps: *live_warps,
                    });
                    let block = &mut blocks[block_slot];
                    debug_assert!(block.occupied, "warp's block resident");
                    block.live_warps -= 1;
                    if block.live_warps == 0 {
                        finalize.push(block_slot);
                    } else if block.at_barrier == block.live_warps && block.at_barrier > 0 {
                        release_barrier(block, block_slot, warps, masks_dirty);
                        tracer.emit(|| TraceEvent::BarrierRelease {
                            cycle: now,
                            sm,
                            block_slot: block_slot as u32,
                            released: block.live_warps,
                        });
                    }
                    if *warp_level_dealloc {
                        // Xiang et al. [58]: the warp's slot and registers
                        // free immediately (shared memory and the block
                        // entry itself still wait for the whole block).
                        let pos =
                            d.warps.iter().position(|&x| x == slot).expect("warp in its domain");
                        d.warps.remove(pos);
                        d.regs_used -= block.regs_per_warp;
                        warps.remove(s);
                        tracer.emit(|| TraceEvent::WarpDealloc {
                            cycle: now,
                            sm,
                            domain: di as u32,
                            warp_slot: slot,
                        });
                    }
                }
                _ => {
                    let cu_idx = d.free_cu().expect("gated on free_cus above");
                    d.collect(warps, cu_idx, &cand, decoded);
                    if fast {
                        d.masks.refresh_ibuf(warps.pos[s], warps, s);
                    }
                    free_cus -= 1;
                }
            }
            d.issued += 1;
            *issued_total += 1;
            d.last_issued = Some(slot);
            issued_any = true;
            tracer.emit(|| TraceEvent::Issue {
                cycle: now,
                sm,
                domain: di as u32,
                warp_slot: slot,
                rba_score,
                bank_steal: false,
            });
            if free_cus == 0 {
                candidates.retain(|c| c.pipeline == Pipeline::Control);
            }
        }
        d.candidates = candidates;

        if issued_any {
            d.issue_cycles += 1;
        } else {
            let kind = if !saw_live && !saw_barrier {
                StallKind::Idle
            } else if blocked_scoreboard > 0 {
                StallKind::Scoreboard
            } else if blocked_no_cu > 0 {
                StallKind::NoCollectorUnit
            } else if saw_barrier && !saw_live {
                StallKind::Barrier
            } else {
                StallKind::EmptyIbuffer
            };
            d.stalls.bump(kind);
            d.stall_snapshot = (kind, blocked_no_cu);
            tracer.emit(|| TraceEvent::Stall { cycle: now, sm, domain: di as u32, kind });
        }
        if blocked_no_cu > 0 {
            tracer.emit(|| TraceEvent::CuAllocFail {
                cycle: now,
                sm,
                domain: di as u32,
                blocked_warps: blocked_no_cu,
            });
        }
        had_candidates
    }

    /// The register bank-stealing baseline \[36\]: when a bank's request queue
    /// is idle and a collector unit is free, pre-allocate the oldest ready
    /// warp whose operands touch that idle bank, ahead of normal issue.
    fn steal_banks(&mut self, di: usize, now: u64, tracer: &mut Tracer<'_>) -> bool {
        let mut stole = false;
        let Self { id, domains, warps, issued_total, fast, .. } = self;
        let sm = *id as u32;
        let d = &mut domains[di];
        for bank in 0..d.num_banks as u8 {
            if !d.arbiter.bank_idle(bank as usize) {
                continue;
            }
            let Some(cu_idx) = d.free_cu() else {
                return stole;
            };
            // Oldest issuable warp whose head instruction reads this bank
            // (the masks may be stale mid-tick, so this walks the table).
            let mut best: Option<(u64, usize)> = None;
            for (p, &slot) in d.warps.iter().enumerate() {
                let s = slot as usize;
                let Some(Head { cand: c, .. }) = warps.head[s] else {
                    continue;
                };
                if warps.state[s] == SlotState::Ready
                    && now >= warps.stall_until[s]
                    && c.pipeline != Pipeline::Control
                    && c.banks[..c.num_srcs as usize].contains(&bank)
                    && warps.head_clear(s)
                    && best.is_none_or(|(age, _)| c.age < age)
                {
                    best = Some((c.age, p));
                }
            }
            let Some((_, p)) = best else {
                continue;
            };
            let slot = d.warps[p];
            let s = slot as usize;
            let cand = warps.head[s].expect("chosen for its head").cand;
            let decoded = warps.ibuf_pop(s);
            d.collect(warps, cu_idx, &cand, decoded);
            if *fast {
                d.masks.refresh_ibuf(p as u8, warps, s);
            }
            warps.issued[s] += 1;
            d.issued += 1;
            *issued_total += 1;
            stole = true;
            // Bank-steal issues bypass the warp scheduler (and its RBA
            // score logic), so they carry no score and do not count as
            // scheduler issue-cycles.
            tracer.emit(|| TraceEvent::Issue {
                cycle: now,
                sm,
                domain: di as u32,
                warp_slot: slot,
                rba_score: 0,
                bank_steal: true,
            });
        }
        stole
    }

    fn free_block(&mut self, block_slot: usize) {
        if self.track_retired {
            self.retired_uids.push(self.blocks[block_slot].uid);
        }
        let Self { warps, blocks, domains, masks_dirty, shared_used, resident_blocks, .. } = self;
        let block = &mut blocks[block_slot];
        debug_assert!(block.occupied, "finalized block resident");
        for &slot in &block.warp_slots {
            let s = slot as usize;
            // Under warp-level deallocation the warp may already be gone —
            // and its slot may even host a *different* block's warp by now,
            // so only reclaim warps that still belong to this block.
            if warps.state[s] == SlotState::Vacant || warps.block_slot[s] != block_slot {
                continue;
            }
            debug_assert_eq!(warps.state[s], SlotState::Exited);
            debug_assert_eq!(warps.outstanding[s], 0);
            let d = &mut domains[warps.domain[s] as usize];
            d.regs_used -= block.regs_per_warp;
            let pos = d.warps.iter().position(|&x| x == slot).expect("warp in its domain");
            d.warps.remove(pos);
            // Later entries shift down a position.
            masks_dirty[warps.domain[s] as usize] = true;
            warps.remove(s);
        }
        // Recycle the arena entry: keep `warp_slots`' capacity for the next
        // resident block.
        block.occupied = false;
        block.warp_slots.clear();
        *shared_used -= block.shared_mem;
        *resident_blocks -= 1;
    }

    fn fetch(&mut self) -> bool {
        let mut fetched = false;
        let Self { domains, warps, masks_dirty, fast, .. } = self;
        if *fast {
            // Barrier releases during issue may have woken warps in any
            // domain (including ones already issued this cycle), so refresh
            // stale masks first — the polled reference fetches those warps
            // this very cycle, and the masks must also be exact for the
            // wake-hint scan that may follow this tick.
            for (di, d) in domains.iter_mut().enumerate() {
                if std::mem::take(&mut masks_dirty[di]) {
                    d.masks = Masks::rebuild(&d.warps, warps);
                }
                for p in bits(d.masks.ready & d.masks.room) {
                    let s = d.warps[p] as usize;
                    if warps.fetch(s) {
                        fetched = true;
                        d.masks.refresh_ibuf(p as u8, warps, s);
                    }
                }
            }
        } else {
            for s in 0..warps.len() {
                fetched |= warps.state[s] == SlotState::Ready && warps.fetch(s);
            }
        }
        fetched
    }

    // ---- statistics accessors -------------------------------------------

    pub(crate) fn issued_per_scheduler(&self) -> Vec<u64> {
        self.domains.iter().map(|d| d.issued).collect()
    }

    pub(crate) fn issued_total(&self) -> u64 {
        self.issued_total
    }

    pub(crate) fn rf_stats(&self) -> (u64, u64) {
        let mut grants = 0;
        let mut conflicts = 0;
        for d in &self.domains {
            let (g, c) = d.arbiter.stats();
            grants += g;
            conflicts += c;
        }
        (grants, conflicts)
    }

    pub(crate) fn stalls(&self) -> StallBreakdown {
        let mut s = StallBreakdown::default();
        for d in &self.domains {
            s.add(&d.stalls);
        }
        s
    }

    pub(crate) fn take_rf_trace(&mut self) -> Vec<u16> {
        self.rf_trace.take().unwrap_or_default()
    }

    pub(crate) fn pipe_dispatched(&self) -> [u64; 6] {
        let mut total = [0u64; 6];
        for d in &self.domains {
            for (t, v) in total.iter_mut().zip(d.exec.dispatched_by_class()) {
                *t += v;
            }
        }
        total
    }

    pub(crate) fn warp_cycles(&self) -> u64 {
        self.warp_cycles
    }

    pub(crate) fn issue_cycles(&self) -> u64 {
        self.domains.iter().map(|d| d.issue_cycles).sum()
    }

    pub(crate) fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Debug-only check of the per-scheduler accounting invariant: every
    /// active cycle, each domain either issued or charged exactly one
    /// stall bucket.
    pub(crate) fn assert_scheduler_accounting(&self) {
        for (di, d) in self.domains.iter().enumerate() {
            debug_assert_eq!(
                d.issue_cycles + d.stalls.total(),
                self.active_cycles,
                "SM {} domain {di}: issue cycles + stalls must cover every active cycle",
                self.id
            );
        }
    }
}

/// Wakes every warp of the block in `block_slot` waiting at the barrier.
/// Slots freed by warp-level deallocation (possibly reused by another
/// block's warps) are skipped via the block-identity check. Each woken
/// warp's domain gets its masks marked stale.
fn release_barrier(
    block: &mut BlockState,
    block_slot: usize,
    warps: &mut WarpTable,
    masks_dirty: &mut [bool],
) {
    for &slot in &block.warp_slots {
        let s = slot as usize;
        if warps.state[s] == SlotState::AtBarrier && warps.block_slot[s] == block_slot {
            warps.state[s] = SlotState::Ready;
            masks_dirty[warps.domain[s] as usize] = true;
        }
    }
    block.at_barrier = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use subcore_isa::{KernelBuilder, ProgramBuilder};

    /// One engine event. These are the stages of [`SmCore::tick`] (plus
    /// block admission and the passage of time), unbundled so a test can
    /// interleave them in any order, not just the tick's — and whole ticks
    /// in between, so runs get deep enough to exit, retire and steal.
    #[derive(Debug, Clone)]
    enum Event {
        Ticks(u8),
        Admit(u8),
        Advance(u8),
        Writeback,
        Grant,
        Dispatch,
        StealWarps,
        Issue(u8),
        StealBanks(u8),
        Retire,
        Fetch,
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (1u8..24).prop_map(Event::Ticks),
            (1u8..24).prop_map(Event::Ticks),
            any::<u8>().prop_map(Event::Admit),
            (1u8..4).prop_map(Event::Advance),
            (1u8..4).prop_map(Event::Advance),
            Just(Event::Writeback),
            Just(Event::Writeback),
            Just(Event::Grant),
            Just(Event::Grant),
            Just(Event::Dispatch),
            Just(Event::Dispatch),
            Just(Event::StealWarps),
            any::<u8>().prop_map(Event::Issue),
            any::<u8>().prop_map(Event::Issue),
            any::<u8>().prop_map(Event::Issue),
            any::<u8>().prop_map(Event::StealBanks),
            Just(Event::Retire),
            Just(Event::Fetch),
            Just(Event::Fetch),
        ]
    }

    /// Two block shapes: a uniform one that parks at barriers, and a
    /// divergent one whose warps exit far apart (early exits, warp-level
    /// dealloc, idle sub-cores for work stealing).
    fn kernels() -> [Kernel; 2] {
        let body = |iters: u32| {
            ProgramBuilder::new()
                .repeat(iters, |b| {
                    b.fma(Reg(0), Reg(1), Reg(2), Reg(3));
                    b.load_shared(Reg(4), Reg(0), 1);
                    b.iadd(Reg(5), Reg(4), Reg(9));
                    b.mufu(Reg(1), Reg(5));
                })
                .build()
        };
        let synced = ProgramBuilder::new()
            .fma(Reg(0), Reg(1), Reg(2), Reg(3))
            .barrier()
            .iadd(Reg(6), Reg(0), Reg(0))
            .barrier()
            .store_shared(Reg(6), Reg(7), 2)
            .build();
        let uniform = KernelBuilder::new("synced")
            .warps_per_block(3)
            .regs_per_thread(16)
            .shared_mem_bytes(1024)
            .uniform_program(synced);
        let divergent = KernelBuilder::new("divergent")
            .warps_per_block(5)
            .regs_per_thread(24)
            .per_warp_programs(vec![body(1), body(6), body(1), body(2), body(1)]);
        [uniform.build(), divergent.build()]
    }

    /// `slot`'s head decoded from first principles off the raw ring entry.
    fn head_from_scratch(warps: &WarpTable, slot: usize, num_banks: u32) -> Option<Head> {
        warps.ibuf_front(slot).map(|DecodedInstr { instr, .. }| {
            let mut hazards = crate::scoreboard::Scoreboard::default();
            let mut cand = IssueCandidate {
                warp_slot: slot as u32,
                age: warps.age[slot],
                num_srcs: 0,
                banks: [0; 3],
                pipeline: instr.op.pipeline(),
            };
            instr.dst.into_iter().for_each(|r| hazards.set(r));
            for src in instr.sources() {
                hazards.set(src);
                cand.banks[cand.num_srcs as usize] =
                    bank_of_register(src, warps.local_index[slot], num_banks);
                cand.num_srcs += 1;
            }
            Head { op: instr.op, hazards, cand }
        })
    }

    /// A domain's masks recomputed from the uncached per-slot truth: run
    /// state, raw front instruction, per-register scoreboard lookups.
    fn masks_from_scratch(d: &Domain, warps: &WarpTable) -> Masks {
        let mut m = Masks::default();
        for (p, &slot) in d.warps.iter().enumerate() {
            let s = slot as usize;
            let front = warps.ibuf_front(s).map(|d| d.instr);
            let blocked = front.is_some_and(|i| {
                i.dst.into_iter().chain(i.sources()).any(|r| warps.scoreboard[s].pending(r))
                    || (i.op == OpClass::Exit && warps.outstanding[s] > 0)
            });
            let bit = |on: bool| u64::from(on) << p;
            m.ready |= bit(warps.state[s] == SlotState::Ready);
            m.parked |= bit(warps.state[s] == SlotState::AtBarrier);
            m.head |= bit(front.is_some());
            m.clear |= bit(!blocked);
            m.control |= bit(front.is_some_and(|i| i.op.is_control()));
            m.room |= bit(warps.ibuf_has_room(s));
        }
        m
    }

    /// Cached heads are exact at all times; masks and positions whenever
    /// the domain is not marked dirty.
    fn check(sm: &SmCore, after: &Event) {
        for (di, d) in sm.domains.iter().enumerate() {
            for (p, &slot) in d.warps.iter().enumerate() {
                let s = slot as usize;
                let head = head_from_scratch(&sm.warps, s, d.num_banks);
                assert_eq!(sm.warps.head[s], head, "{after:?}: slot {s} cached head");
                if !sm.masks_dirty[di] {
                    assert_eq!(sm.warps.pos[s] as usize, p, "{after:?}: slot {s} position");
                }
            }
            if !sm.masks_dirty[di] {
                let scratch = masks_from_scratch(d, &sm.warps);
                assert_eq!(d.masks, scratch, "{after:?}: domain {di} masks");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// After any sequence of engine events, in any order, the
        /// maintained masks and cached heads equal a from-scratch
        /// recompute, position for position. (The fast path's own debug
        /// oracle also runs on every `Issue`.)
        #[test]
        fn maintained_readiness_matches_recompute(
            flags in 0u8..64,
            events in proptest::prop::collection::vec(arb_event(), 1..400),
        ) {
            let mut cfg = GpuConfig::volta_v100().with_sms(1);
            cfg.max_warps_per_sm = 16;
            cfg.max_blocks_per_sm = 4;
            cfg.work_stealing = flags & 1 != 0;
            cfg.warp_level_dealloc = flags & 2 != 0;
            cfg.rf_write_port_contention = flags & 4 != 0;
            if flags & 8 != 0 {
                cfg.issue_width = 2;
            }
            if flags & 16 != 0 {
                cfg = cfg.fully_connected();
            }
            cfg.bank_stealing = flags & 32 != 0;
            let mut sm = SmCore::new(&cfg, 0, &Policies::hardware_baseline());
            let mut mem = MemSystem::new(cfg.mem.clone(), 1);
            let mut tracer = Tracer::new(Vec::new());
            let kernels = kernels();
            let (mut now, mut uid) = (0u64, 0u64);
            let mut finalize = Vec::new();
            for event in events {
                let domains = sm.domains.len();
                match event {
                    Event::Ticks(n) => {
                        for _ in 0..n {
                            sm.tick(now, &mut mem, &mut tracer);
                            now += 1;
                        }
                    }
                    Event::Admit(k) => {
                        let kernel = &kernels[k as usize % kernels.len()];
                        uid += u64::from(sm.try_accept(kernel, uid, now, &mut tracer));
                    }
                    Event::Advance(k) => now += u64::from(k),
                    Event::Writeback => {
                        sm.write_masks.iter_mut().for_each(|m| *m = 0);
                        sm.writeback(now);
                    }
                    Event::Grant => {
                        for (d, &mask) in sm.domains.iter_mut().zip(&sm.write_masks) {
                            d.arbiter.snapshot();
                            d.arbiter.grant_masked(&mut d.cus, mask);
                        }
                    }
                    Event::Dispatch => {
                        sm.dispatch(now, &mut mem);
                    }
                    // Migration stalls are only honoured (per head bit)
                    // when the option that creates them is on.
                    Event::StealWarps if !cfg.work_stealing => {}
                    Event::StealWarps => {
                        sm.steal_warps(now);
                    }
                    Event::Issue(di) => {
                        sm.issue_domain(di as usize % domains, now, &mut finalize, &mut tracer);
                    }
                    Event::StealBanks(di) => {
                        sm.steal_banks(di as usize % domains, now, &mut tracer);
                    }
                    Event::Retire => finalize.drain(..).for_each(|bs| sm.free_block(bs)),
                    Event::Fetch => {
                        sm.fetch();
                    }
                }
                check(&sm, &event);
            }
        }
    }

    #[test]
    fn bits_yields_set_positions_ascending() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(bits(u64::MAX).count(), 64);
        assert_eq!(bits(1 << 63).collect::<Vec<_>>(), [63]);
    }

    /// The packed tag round-trips and orders like the `(slot, Option<Reg>)`
    /// pair it stands for, so completions pop in the same order.
    #[test]
    fn completion_tag_orders_like_slot_and_destination() {
        let completion_tag = |slot, dst| completion(0, slot, dst).0 .1;
        let dsts = [None, Some(Reg(0)), Some(Reg(1)), Some(Reg(254)), Some(Reg(255))];
        let keys: Vec<(u32, Option<Reg>)> =
            [0, 1, 63, u32::MAX].into_iter().flat_map(|s| dsts.map(|d| (s, d))).collect();
        for &(slot, dst) in &keys {
            assert_eq!(completion_target(completion_tag(slot, dst)), (slot as usize, dst));
            for &other in &keys {
                let tags = (completion_tag(slot, dst), completion_tag(other.0, other.1));
                assert_eq!(tags.0.cmp(&tags.1), (slot, dst).cmp(&other));
            }
        }
    }
}
