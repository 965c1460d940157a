//! Per-warp execution state, stored as a structure-of-arrays.
//!
//! The per-cycle hot loops (candidate scan, fetch, writeback) touch a
//! handful of small fields for every resident warp. Keeping each field in
//! its own dense array indexed by warp slot — instead of an
//! array-of-structs of fat `WarpContext`s — means a scan walks contiguous
//! memory and the instruction buffers live in one flat arena with zero
//! per-cycle heap traffic.
//!
//! What the issue stage asks about a warp's buffered head instruction
//! changes only when the head does, so [`WarpTable::refresh_head`] decodes
//! it once into a [`Head`] and every scan — polled reference, mask-driven
//! fast path, bank-stealing probe — reads that instead of re-deriving
//! hazards and bank swizzles every cycle.

use crate::policy::IssueCandidate;
use crate::scoreboard::Scoreboard;
use crate::sm::bank_of_register;
use subcore_isa::{Cursor, Instruction, OpClass};

/// A decoded instruction waiting in a warp's instruction buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecodedInstr {
    pub instr: Instruction,
    /// Dynamic index within the warp's program (drives streaming memory
    /// patterns).
    pub dyn_idx: u64,
}

impl DecodedInstr {
    /// Placeholder value for unoccupied arena slots (never issued).
    pub(crate) fn filler() -> Self {
        DecodedInstr { instr: Instruction::new(OpClass::Exit, None, &[]), dyn_idx: 0 }
    }
}

/// A warp's ibuffer head, decoded once when it became the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head {
    pub op: OpClass,
    /// Destination and source registers as a scoreboard-shaped mask.
    pub hazards: Scoreboard,
    /// The finished scheduler-facing candidate (slot, age, source banks via
    /// [`bank_of_register`], pipeline).
    pub cand: IssueCandidate,
}

/// Lifecycle state of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// No warp resident in this slot.
    Vacant,
    /// Eligible to fetch and issue.
    Ready,
    /// Issued a barrier and waiting for the rest of its block.
    AtBarrier,
    /// Issued `exit`. The warp keeps its slot and registers until its whole
    /// block completes — the block-granularity deallocation that produces
    /// the paper's sub-core imbalance stalls.
    Exited,
}

/// All warp state of one SM, split into parallel arrays indexed by warp
/// slot.
///
/// Hot arrays come first (everything the per-cycle candidate scan and
/// fetch stage touch: lifecycle, stall gate, scoreboard, age, bank-swizzle
/// index, domain, outstanding count, trace cursor), with the colder
/// block-lifecycle and statistics arrays after. The instruction buffers
/// are one flat ring arena of `slots × depth` entries with a per-slot
/// head/len pair, allocated once at SM construction: insert, fetch, issue,
/// and exit never touch the heap.
#[derive(Debug)]
pub(crate) struct WarpTable {
    /// Lifecycle state (checked first by every scan).
    pub state: Vec<SlotState>,
    /// The warp may not issue before this cycle (used by the idealized
    /// work-stealing option to charge a register-migration penalty).
    pub stall_until: Vec<u64>,
    /// Pending register writes.
    pub scoreboard: Vec<Scoreboard>,
    /// Allocation age: smaller = assigned earlier (GTO "oldest").
    pub age: Vec<u64>,
    /// Index within the sub-core's scheduler table at assignment time; the
    /// register-file bank swizzle is derived from this (register banks are
    /// sub-core-local structures).
    pub local_index: Vec<u32>,
    /// Scheduler domain (sub-core) the warp is pinned to.
    pub domain: Vec<u32>,
    /// Instructions issued but not yet completed (exit waits for zero so no
    /// completion can outlive the warp's block).
    pub outstanding: Vec<u32>,
    /// Position in the warp's trace (`None` while vacant).
    pub cursor: Vec<Option<Cursor>>,
    /// Decoded-head cache (`None` while the buffer is empty).
    pub head: Vec<Option<Head>>,
    /// Position within the domain's scheduler table — the warp's bit in
    /// that domain's readiness masks. Written by the mask rebuild, so only
    /// valid while the domain's masks are clean.
    pub pos: Vec<u8>,
    // ---- cold: block lifecycle and statistics ---------------------------
    /// Index into the SM's resident-block table.
    pub block_slot: Vec<usize>,
    /// Globally unique id used to derive independent memory streams.
    pub stream_id: Vec<u64>,
    /// Dynamic instructions issued by this warp (stat).
    pub issued: Vec<u64>,
    // ---- instruction-buffer arena ---------------------------------------
    /// Register banks visible to a scheduler domain (the swizzle modulus).
    num_banks: u32,
    /// Ring capacity of each per-slot instruction buffer.
    depth: usize,
    /// Flat arena: slot `s`'s ring occupies `ibuf[s*depth .. (s+1)*depth]`.
    ibuf: Vec<DecodedInstr>,
    /// Ring head (index of the front entry) per slot.
    ibuf_head: Vec<u32>,
    /// Ring occupancy per slot.
    ibuf_len: Vec<u32>,
}

impl WarpTable {
    /// Creates a table for `slots` warp slots with `depth`-deep instruction
    /// buffers whose operands swizzle over `num_banks` banks. All storage is
    /// allocated here, once.
    pub fn new(slots: usize, depth: usize, num_banks: u32) -> Self {
        WarpTable {
            state: vec![SlotState::Vacant; slots],
            stall_until: vec![0; slots],
            scoreboard: vec![Scoreboard::default(); slots],
            age: vec![0; slots],
            local_index: vec![0; slots],
            domain: vec![0; slots],
            outstanding: vec![0; slots],
            cursor: (0..slots).map(|_| None).collect(),
            head: vec![None; slots],
            pos: vec![0; slots],
            block_slot: vec![0; slots],
            stream_id: vec![0; slots],
            issued: vec![0; slots],
            num_banks,
            depth,
            ibuf: vec![DecodedInstr::filler(); slots * depth],
            ibuf_head: vec![0; slots],
            ibuf_len: vec![0; slots],
        }
    }

    /// Number of warp slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Installs a fresh `Ready` warp into a vacant slot.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        slot: usize,
        age: u64,
        local_index: u32,
        domain: u32,
        cursor: Cursor,
        block_slot: usize,
        stream_id: u64,
    ) {
        debug_assert_eq!(self.state[slot], SlotState::Vacant, "insert into occupied slot");
        self.state[slot] = SlotState::Ready;
        self.stall_until[slot] = 0;
        self.scoreboard[slot] = Scoreboard::default();
        self.age[slot] = age;
        self.local_index[slot] = local_index;
        self.domain[slot] = domain;
        self.outstanding[slot] = 0;
        self.cursor[slot] = Some(cursor);
        self.block_slot[slot] = block_slot;
        self.stream_id[slot] = stream_id;
        self.issued[slot] = 0;
        self.ibuf_head[slot] = 0;
        self.ibuf_len[slot] = 0;
        self.refresh_head(slot);
    }

    /// Vacates a slot (block completion or warp-level dealloc). The arena
    /// storage stays in place for the next resident.
    pub fn remove(&mut self, slot: usize) {
        debug_assert_ne!(self.state[slot], SlotState::Vacant, "double free of warp slot");
        self.state[slot] = SlotState::Vacant;
        self.cursor[slot] = None;
        self.ibuf_len[slot] = 0;
    }

    /// Re-decodes `slot`'s front instruction into the head cache. The ring
    /// operations below call this whenever the front entry changes; the
    /// only other trigger is a change of `local_index` (work stealing).
    pub fn refresh_head(&mut self, slot: usize) {
        self.head[slot] = self.ibuf_front(slot).map(|DecodedInstr { instr, .. }| {
            let mut hazards = Scoreboard::default();
            instr.dst.into_iter().chain(instr.sources()).for_each(|r| hazards.set(r));
            let mut banks = [0; 3];
            for (bank, src) in banks.iter_mut().zip(instr.sources()) {
                *bank = bank_of_register(src, self.local_index[slot], self.num_banks);
            }
            let cand = IssueCandidate {
                warp_slot: slot as u32,
                age: self.age[slot],
                num_srcs: instr.num_sources() as u8,
                banks,
                pipeline: instr.op.pipeline(),
            };
            Head { op: instr.op, hazards, cand }
        });
    }

    /// True unless the cached head has a scoreboard hazard or is an `exit`
    /// still waiting on outstanding completions. Changes only when the
    /// head, the scoreboard or `outstanding` does: at this warp's issue,
    /// fetch-into-empty and writeback.
    #[inline]
    pub fn head_clear(&self, slot: usize) -> bool {
        !self.head[slot].is_some_and(|head| {
            self.scoreboard[slot].intersects(&head.hazards)
                || (head.op == OpClass::Exit && self.outstanding[slot] > 0)
        })
    }

    /// True if the slot's instruction buffer is not full.
    #[inline]
    pub fn ibuf_has_room(&self, slot: usize) -> bool {
        (self.ibuf_len[slot] as usize) < self.depth
    }

    /// Fetches the warp's next instruction into its buffer if there is room
    /// and the trace has one. Returns whether an entry was added.
    #[inline]
    pub fn fetch(&mut self, slot: usize) -> bool {
        if !self.ibuf_has_room(slot) {
            return false;
        }
        let next = self.cursor[slot].as_mut().expect("fetching warps are resident");
        let Some((instr, dyn_idx)) = next.next_instruction() else {
            return false;
        };
        self.ibuf_push(slot, DecodedInstr { instr, dyn_idx });
        true
    }

    /// Copy of the front (oldest) buffered instruction, if any.
    #[inline]
    pub fn ibuf_front(&self, slot: usize) -> Option<DecodedInstr> {
        (self.ibuf_len[slot] > 0)
            .then(|| self.ibuf[slot * self.depth + self.ibuf_head[slot] as usize])
    }

    /// Pops the front buffered instruction and decodes the entry it
    /// exposes. Panics in debug builds if the buffer is empty (callers
    /// check the cached head first).
    #[inline]
    pub fn ibuf_pop(&mut self, slot: usize) -> DecodedInstr {
        debug_assert!(self.ibuf_len[slot] > 0, "pop from empty ibuffer");
        let head = self.ibuf_head[slot] as usize;
        let d = self.ibuf[slot * self.depth + head];
        self.ibuf_head[slot] = if head + 1 == self.depth { 0 } else { head as u32 + 1 };
        self.ibuf_len[slot] -= 1;
        self.refresh_head(slot);
        d
    }

    /// Appends a decoded instruction to the back of a slot's buffer.
    #[inline]
    pub fn ibuf_push(&mut self, slot: usize, d: DecodedInstr) {
        let len = self.ibuf_len[slot] as usize;
        debug_assert!(len < self.depth, "ibuffer overflow");
        // Head and length are both below `depth`: wrap without dividing.
        let pos = self.ibuf_head[slot] as usize + len;
        let pos = if pos >= self.depth { pos - self.depth } else { pos };
        self.ibuf[slot * self.depth + pos] = d;
        self.ibuf_len[slot] += 1;
        if len == 0 {
            self.refresh_head(slot);
        }
    }

    /// The `i`-th buffered instruction (0 = front), for equivalence tests.
    #[cfg(test)]
    pub fn ibuf_nth(&self, slot: usize, i: usize) -> DecodedInstr {
        debug_assert!(i < self.ibuf_len[slot] as usize);
        let pos = (self.ibuf_head[slot] as usize + i) % self.depth;
        self.ibuf[slot * self.depth + pos]
    }
}

// ---------------------------------------------------------------------------
// The retired array-of-structs layout, kept as the oracle for the
// generative equivalence test below: every mutation the engine performs on
// the SoA table is mirrored onto this reference layout and the
// scheduling-relevant state compared field for field.

/// Lifecycle state of a resident warp (reference layout).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpRun {
    Ready,
    AtBarrier,
    Exited,
}

/// All state for one warp resident on an SM (reference layout).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct WarpContext {
    pub run: WarpRun,
    pub stall_until: u64,
    pub ibuffer: std::collections::VecDeque<DecodedInstr>,
    pub scoreboard: Scoreboard,
    pub age: u64,
    pub local_index: u32,
    pub domain: u32,
    pub cursor: Cursor,
    pub outstanding: u32,
    pub block_slot: usize,
    pub stream_id: u64,
    pub issued: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use subcore_isa::{ProgramBuilder, Reg};

    const SLOTS: usize = 8;
    const DEPTH: usize = 4;
    const BANKS: u32 = 2;

    /// One randomly generated mutation of the warp state, applied
    /// identically to the SoA table and the AoS oracle.
    #[derive(Debug, Clone)]
    enum Op {
        Insert { slot_hint: u8, domain: u8, block_slot: u8 },
        Remove { slot_hint: u8 },
        SetState { slot_hint: u8, which: u8 },
        PushIbuf { slot_hint: u8 },
        PopIbuf { slot_hint: u8 },
        SetScore { slot_hint: u8, reg: u8 },
        ClearScore { slot_hint: u8, reg: u8 },
        Stall { slot_hint: u8, until: u16 },
        Outstanding { slot_hint: u8, up: bool },
        BumpIssued { slot_hint: u8 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 0u8..4, 0u8..4).prop_map(|(s, d, b)| Op::Insert {
                slot_hint: s,
                domain: d,
                block_slot: b
            }),
            any::<u8>().prop_map(|s| Op::Remove { slot_hint: s }),
            (any::<u8>(), 0u8..3).prop_map(|(s, w)| Op::SetState { slot_hint: s, which: w }),
            any::<u8>().prop_map(|s| Op::PushIbuf { slot_hint: s }),
            any::<u8>().prop_map(|s| Op::PopIbuf { slot_hint: s }),
            (any::<u8>(), 0u8..32).prop_map(|(s, r)| Op::SetScore { slot_hint: s, reg: r }),
            (any::<u8>(), 0u8..32).prop_map(|(s, r)| Op::ClearScore { slot_hint: s, reg: r }),
            (any::<u8>(), any::<u16>()).prop_map(|(s, u)| Op::Stall { slot_hint: s, until: u }),
            (any::<u8>(), any::<bool>()).prop_map(|(s, up)| Op::Outstanding { slot_hint: s, up }),
            any::<u8>().prop_map(|s| Op::BumpIssued { slot_hint: s }),
        ]
    }

    /// A small program with enough instructions that pushes rarely run the
    /// cursor dry, and enough variety (0–3 sources, with and without a
    /// destination, both control ops) to exercise the head decode.
    fn test_cursor() -> Cursor {
        let mut b = ProgramBuilder::new();
        b.repeat(12, |b| {
            b.fma(Reg(0), Reg(1), Reg(2), Reg(3));
            b.iadd(Reg(4), Reg(0), Reg(9));
            b.mufu(Reg(31), Reg(4));
            b.store_shared(Reg(31), Reg(7), 1);
            b.barrier();
        });
        b.build().cursor()
    }

    /// The head cache recomputed from first principles off the oracle's
    /// front entry (the swizzle written out, not called).
    fn decode_from_scratch(w: &WarpContext, slot: usize) -> Option<Head> {
        w.ibuffer.front().map(|d| {
            let mut hazards = Scoreboard::default();
            d.instr.dst.into_iter().for_each(|r| hazards.set(r));
            let mut cand = IssueCandidate {
                warp_slot: slot as u32,
                age: w.age,
                num_srcs: 0,
                banks: [0; 3],
                pipeline: d.instr.op.pipeline(),
            };
            for src in d.instr.srcs.into_iter().flatten() {
                hazards.set(src);
                cand.banks[cand.num_srcs as usize] =
                    ((src.0 as u32 + 3 * w.local_index) % BANKS) as u8;
                cand.num_srcs += 1;
            }
            Head { op: d.instr.op, hazards, cand }
        })
    }

    /// First slot at or after the hint (wrapping) whose occupancy matches.
    fn pick_slot(oracle: &[Option<WarpContext>], hint: u8, occupied: bool) -> Option<usize> {
        (0..SLOTS).map(|i| (hint as usize + i) % SLOTS).find(|&s| oracle[s].is_some() == occupied)
    }

    fn assert_equivalent(table: &WarpTable, oracle: &[Option<WarpContext>]) {
        for (slot, ctx) in oracle.iter().enumerate() {
            let Some(w) = ctx else {
                assert_eq!(table.state[slot], SlotState::Vacant, "slot {slot} vacancy");
                continue;
            };
            let state = match w.run {
                WarpRun::Ready => SlotState::Ready,
                WarpRun::AtBarrier => SlotState::AtBarrier,
                WarpRun::Exited => SlotState::Exited,
            };
            assert_eq!(table.state[slot], state, "slot {slot} run state");
            assert_eq!(table.stall_until[slot], w.stall_until, "slot {slot} stall_until");
            assert_eq!(table.scoreboard[slot], w.scoreboard, "slot {slot} scoreboard");
            assert_eq!(table.age[slot], w.age, "slot {slot} age");
            assert_eq!(table.local_index[slot], w.local_index, "slot {slot} local_index");
            assert_eq!(table.domain[slot], w.domain, "slot {slot} domain");
            assert_eq!(table.outstanding[slot], w.outstanding, "slot {slot} outstanding");
            assert_eq!(table.block_slot[slot], w.block_slot, "slot {slot} block_slot");
            assert_eq!(table.stream_id[slot], w.stream_id, "slot {slot} stream_id");
            assert_eq!(table.issued[slot], w.issued, "slot {slot} issued");
            assert_eq!(table.ibuf_len[slot] as usize, w.ibuffer.len(), "slot {slot} ibuf len");
            for (i, d) in w.ibuffer.iter().enumerate() {
                assert_eq!(table.ibuf_nth(slot, i), *d, "slot {slot} ibuf[{i}]");
            }
            assert_eq!(table.ibuf_front(slot), w.ibuffer.front().copied(), "slot {slot} front");
            let head = decode_from_scratch(w, slot);
            assert_eq!(table.head[slot], head, "slot {slot} decoded head");
            let blocked = w.ibuffer.front().is_some_and(|d| {
                d.instr.dst.into_iter().chain(d.instr.sources()).any(|r| w.scoreboard.pending(r))
                    || (d.instr.op == OpClass::Exit && w.outstanding > 0)
            });
            assert_eq!(table.head_clear(slot), !blocked, "slot {slot} head_clear");
            assert_eq!(table.ibuf_has_room(slot), w.ibuffer.len() < DEPTH, "slot {slot} room");
        }
    }

    proptest! {
        /// The SoA table round-trips against the retired AoS layout: after
        /// any sequence of random mutation steps, every scheduling-relevant
        /// field matches the oracle, slot for slot.
        #[test]
        fn soa_matches_aos_oracle(ops in proptest::prop::collection::vec(arb_op(), 1..120)) {
            let mut table = WarpTable::new(SLOTS, DEPTH, BANKS);
            let mut oracle: Vec<Option<WarpContext>> = (0..SLOTS).map(|_| None).collect();
            let mut age: u64 = 0;
            let mut stream: u64 = 0;

            for op in ops {
                match op {
                    Op::Insert { slot_hint, domain, block_slot } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, false) else { continue };
                        let local = slot_hint as u32 % 8;
                        table.insert(
                            slot,
                            age,
                            local,
                            u32::from(domain),
                            test_cursor(),
                            block_slot as usize,
                            stream,
                        );
                        oracle[slot] = Some(WarpContext {
                            run: WarpRun::Ready,
                            stall_until: 0,
                            ibuffer: std::collections::VecDeque::new(),
                            scoreboard: Scoreboard::default(),
                            age,
                            local_index: local,
                            domain: u32::from(domain),
                            cursor: test_cursor(),
                            outstanding: 0,
                            block_slot: block_slot as usize,
                            stream_id: stream,
                            issued: 0,
                        });
                        age += 1;
                        stream += 1;
                    }
                    Op::Remove { slot_hint } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        table.remove(slot);
                        oracle[slot] = None;
                    }
                    Op::SetState { slot_hint, which } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        let (s, r) = match which {
                            0 => (SlotState::Ready, WarpRun::Ready),
                            1 => (SlotState::AtBarrier, WarpRun::AtBarrier),
                            _ => (SlotState::Exited, WarpRun::Exited),
                        };
                        table.state[slot] = s;
                        oracle[slot].as_mut().unwrap().run = r;
                    }
                    Op::PushIbuf { slot_hint } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        if table.ibuf_len[slot] as usize >= DEPTH {
                            continue;
                        }
                        let from_table = table.cursor[slot]
                            .as_mut()
                            .expect("occupied slots hold a cursor")
                            .next_instruction();
                        let w = oracle[slot].as_mut().unwrap();
                        let from_oracle = w.cursor.next_instruction();
                        prop_assert_eq!(from_table, from_oracle, "cursors advanced in lockstep");
                        if let Some((instr, dyn_idx)) = from_table {
                            let d = DecodedInstr { instr, dyn_idx };
                            table.ibuf_push(slot, d);
                            w.ibuffer.push_back(d);
                        }
                    }
                    Op::PopIbuf { slot_hint } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        if table.ibuf_len[slot] as usize == 0 {
                            continue;
                        }
                        let a = table.ibuf_pop(slot);
                        let b = oracle[slot].as_mut().unwrap().ibuffer.pop_front().unwrap();
                        prop_assert_eq!(a, b, "popped instruction");
                    }
                    Op::SetScore { slot_hint, reg } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        table.scoreboard[slot].set(Reg(reg));
                        oracle[slot].as_mut().unwrap().scoreboard.set(Reg(reg));
                    }
                    Op::ClearScore { slot_hint, reg } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        table.scoreboard[slot].clear(Reg(reg));
                        oracle[slot].as_mut().unwrap().scoreboard.clear(Reg(reg));
                    }
                    Op::Stall { slot_hint, until } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        table.stall_until[slot] = u64::from(until);
                        oracle[slot].as_mut().unwrap().stall_until = u64::from(until);
                    }
                    Op::Outstanding { slot_hint, up } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        let w = oracle[slot].as_mut().unwrap();
                        if up {
                            table.outstanding[slot] += 1;
                            w.outstanding += 1;
                        } else if w.outstanding > 0 {
                            table.outstanding[slot] -= 1;
                            w.outstanding -= 1;
                        }
                    }
                    Op::BumpIssued { slot_hint } => {
                        let Some(slot) = pick_slot(&oracle, slot_hint, true) else { continue };
                        table.issued[slot] += 1;
                        oracle[slot].as_mut().unwrap().issued += 1;
                    }
                }
            }

            assert_equivalent(&table, &oracle);
        }
    }

    #[test]
    fn ibuffer_ring_wraps() {
        let mut t = WarpTable::new(2, 3, BANKS);
        t.insert(1, 0, 0, 0, test_cursor(), 0, 0);
        let d = |i: u64| DecodedInstr { dyn_idx: i, ..DecodedInstr::filler() };
        t.ibuf_push(1, d(0));
        t.ibuf_push(1, d(1));
        assert_eq!(t.ibuf_pop(1).dyn_idx, 0);
        t.ibuf_push(1, d(2));
        t.ibuf_push(1, d(3)); // wraps around the 3-deep ring
        assert_eq!(t.ibuf_len[1], 3);
        assert_eq!(t.ibuf_pop(1).dyn_idx, 1);
        assert_eq!(t.ibuf_pop(1).dyn_idx, 2);
        assert_eq!(t.ibuf_pop(1).dyn_idx, 3);
        assert_eq!(t.ibuf_len[1], 0);
    }

    #[test]
    fn insert_resets_all_slot_state() {
        let mut t = WarpTable::new(1, 2, BANKS);
        t.insert(0, 7, 3, 1, test_cursor(), 2, 9);
        t.scoreboard[0].set(Reg(5));
        t.stall_until[0] = 44;
        t.outstanding[0] = 2;
        t.issued[0] = 3;
        t.ibuf_push(0, DecodedInstr::filler());
        t.outstanding[0] = 0;
        t.remove(0);
        t.insert(0, 8, 0, 0, test_cursor(), 0, 1);
        assert_eq!(t.state[0], SlotState::Ready);
        assert_eq!(t.stall_until[0], 0);
        assert!(t.scoreboard[0].is_empty());
        assert_eq!(t.age[0], 8);
        assert_eq!(t.outstanding[0], 0);
        assert_eq!(t.issued[0], 0);
        assert_eq!(t.ibuf_len[0], 0);
        assert_eq!(t.head[0], None, "no buffered instruction yet");
    }
}
