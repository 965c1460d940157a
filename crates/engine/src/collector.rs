//! The operand collector: collector units plus the per-bank arbitration
//! queues whose lengths drive the RBA score.

use crate::warp::DecodedInstr;

/// One collector unit: stages a single warp instruction while its register
/// source operands are read from the banked register file.
#[derive(Debug)]
pub(crate) struct CollectorUnit {
    /// Holds an instruction.
    pub busy: bool,
    /// All operands fetched; awaiting dispatch to an execution unit.
    pub ready: bool,
    /// Owning warp slot.
    pub warp_slot: u32,
    /// The staged instruction.
    pub instr: DecodedInstr,
    /// Source operands still waiting for a bank grant.
    pub remaining: u8,
}

impl CollectorUnit {
    pub(crate) fn empty() -> Self {
        CollectorUnit {
            busy: false,
            ready: false,
            warp_slot: 0,
            instr: DecodedInstr::filler(),
            remaining: 0,
        }
    }
}

/// The register-file read arbiter for one scheduler domain: a pending
/// request queue per bank, granting one request per bank per cycle.
///
/// The arbiter also maintains the (optionally delayed) per-bank queue-length
/// view exposed to the warp scheduler — the paper's RBA score input, with
/// the §VI-B4 score-update latency modeled by a history ring.
///
/// All state lives in flat arrays sized at construction: the per-bank FIFOs
/// are fixed-capacity rings in one contiguous arena (a domain can never
/// have more than `3 × collector units` operands in flight, since each unit
/// stages at most three source operands and holds them until granted), and
/// the grant history is a flat `(delay + 1) × banks` ring. Nothing here
/// touches the heap after `new`.
#[derive(Debug)]
pub(crate) struct Arbiter {
    banks: usize,
    /// Ring capacity of each per-bank FIFO (worst case: every in-flight
    /// operand targets one bank).
    cap: usize,
    /// Flat FIFO arena: bank `b`'s ring is `queue[b*cap .. (b+1)*cap]`,
    /// entries are collector-unit indices (one per operand).
    queue: Vec<u16>,
    /// Ring head (front entry index) per bank.
    q_head: Vec<u32>,
    /// Ring occupancy per bank.
    q_len: Vec<u32>,
    /// Cumulative enqueued requests per bank. The warp scheduler issued
    /// these itself, so its score logic sees them with no delay.
    cum_enqueues: Vec<u64>,
    /// Cumulative grants per bank.
    cum_grants: Vec<u64>,
    /// Flat ring of historical `cum_grants` snapshots: `hist_rows` rows of
    /// `banks` counters, oldest at row `hist_head`. Grant notifications
    /// travel from the register file to the scheduler, so a nonzero
    /// score-update latency makes the scheduler see *old* grant counts — it
    /// overestimates queues it recently fed, which is the conservative
    /// direction (§VI-B4).
    hist: Vec<u64>,
    hist_head: usize,
    hist_rows: usize,
    delay: usize,
    /// Scratch for the scheduler-visible queue lengths.
    visible: Vec<u16>,
    /// Requests that were enqueued behind at least one other request
    /// (bank-conflict indicator).
    conflict_enqueues: u64,
    /// Total grants (each grant = one warp-wide 128 B register read).
    grants: u64,
}

impl Arbiter {
    /// Creates an arbiter for `num_banks` banks serving `cus` collector
    /// units, with a `delay`-cycle score-update latency.
    pub(crate) fn new(num_banks: u32, delay: u32, cus: u32) -> Self {
        let banks = num_banks as usize;
        let delay = delay as usize;
        let cap = (3 * cus as usize).max(1);
        Arbiter {
            banks,
            cap,
            queue: vec![0; banks * cap],
            q_head: vec![0; banks],
            q_len: vec![0; banks],
            cum_enqueues: vec![0; banks],
            cum_grants: vec![0; banks],
            // Seeded with one all-zero row (row 0 of the zeroed arena).
            hist: vec![0; (delay + 1) * banks],
            hist_head: 0,
            hist_rows: 1,
            delay,
            visible: vec![0; banks],
            conflict_enqueues: 0,
            grants: 0,
        }
    }

    /// Enqueues a read request from collector unit `cu` for an operand in
    /// `bank`.
    pub(crate) fn enqueue(&mut self, bank: usize, cu: u16) {
        let len = self.q_len[bank] as usize;
        if len > 0 {
            self.conflict_enqueues += 1;
        }
        debug_assert!(len < self.cap, "bank FIFO overflow: more operands than 3x CUs");
        let pos = wrap(self.q_head[bank] as usize + len, self.cap);
        self.queue[bank * self.cap + pos] = cu;
        self.q_len[bank] += 1;
        self.cum_enqueues[bank] += 1;
    }

    /// True if `bank` has no pending requests (bank-stealing probe).
    pub(crate) fn bank_idle(&self, bank: usize) -> bool {
        self.q_len[bank] == 0
    }

    /// Grants one request per bank, decrementing each granted unit's
    /// `remaining` count and marking fully collected units ready. Returns
    /// the number of grants (register-file reads) this cycle.
    #[cfg(test)]
    pub(crate) fn grant(&mut self, cus: &mut [CollectorUnit]) -> u32 {
        self.grant_masked(cus, 0)
    }

    /// Like [`Arbiter::grant`], but banks whose bit is set in
    /// `blocked_banks` grant nothing this cycle (their port is consumed by
    /// a result writeback when write-port contention is modeled).
    pub(crate) fn grant_masked(&mut self, cus: &mut [CollectorUnit], blocked_banks: u32) -> u32 {
        let mut granted = 0;
        for b in 0..self.banks {
            if blocked_banks & (1 << b) != 0 || self.q_len[b] == 0 {
                continue;
            }
            let head = self.q_head[b] as usize;
            let cu = self.queue[b * self.cap + head];
            self.q_head[b] = wrap(head + 1, self.cap) as u32;
            self.q_len[b] -= 1;
            let unit = &mut cus[cu as usize];
            debug_assert!(unit.busy && unit.remaining > 0);
            unit.remaining -= 1;
            if unit.remaining == 0 {
                unit.ready = true;
            }
            self.cum_grants[b] += 1;
            granted += 1;
        }
        self.grants += u64::from(granted);
        granted
    }

    /// Records the current cumulative grant counts into the history ring.
    /// Call once per cycle, before issue.
    ///
    /// Once the ring is full (after `delay + 1` cycles), the oldest row is
    /// overwritten in place — this runs every cycle for every domain, so it
    /// must not touch the heap in steady state.
    pub(crate) fn snapshot(&mut self) {
        let rows = self.delay + 1;
        let row = if self.hist_rows == rows {
            // Overwrite the oldest row; it becomes the newest.
            let row = self.hist_head;
            self.hist_head = wrap(row + 1, rows);
            row
        } else {
            let row = wrap(self.hist_head + self.hist_rows, rows);
            self.hist_rows += 1;
            row
        };
        self.hist[row * self.banks..(row + 1) * self.banks].copy_from_slice(&self.cum_grants);
    }

    /// Advances the snapshot ring as if [`Arbiter::snapshot`] had been
    /// called `cycles` times with no intervening grants (the skip-ahead
    /// fast-forward over a quiescent span). Since the grant counters are
    /// frozen, `delay + 1` pushes saturate the ring; further pushes are
    /// identical, so only `min(cycles, delay + 1)` snapshots are taken.
    pub(crate) fn advance_idle(&mut self, cycles: u64) {
        let reps = cycles.min(self.delay as u64 + 1);
        for _ in 0..reps {
            self.snapshot();
        }
    }

    /// The per-bank queue lengths as the scheduler's score logic sees them:
    /// its own enqueues immediately, grants `delay` cycles late.
    pub(crate) fn delayed_lens(&mut self) -> &[u16] {
        let old = &self.hist[self.hist_head * self.banks..(self.hist_head + 1) * self.banks];
        for (b, v) in self.visible.iter_mut().enumerate() {
            *v = (self.cum_enqueues[b] - old[b]).min(u64::from(u16::MAX)) as u16;
        }
        &self.visible
    }

    /// Immediate queue lengths (for the operand-collector side, which is
    /// co-located with the banks).
    pub(crate) fn current_len(&self, bank: usize) -> usize {
        self.q_len[bank] as usize
    }

    /// (grants, conflict-enqueues) since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.grants, self.conflict_enqueues)
    }
}

/// `i % n` for the `i < 2n` a ring index reaches, without a `div` (ring
/// capacities such as 3 × CUs are rarely powers of two).
#[inline]
pub(crate) fn wrap(i: usize, n: usize) -> usize {
    debug_assert!(i < 2 * n);
    i - if i >= n { n } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use subcore_isa::{Instruction, OpClass, Reg};

    fn cu_with(remaining: u8) -> CollectorUnit {
        let mut cu = CollectorUnit::empty();
        cu.busy = true;
        cu.ready = false;
        cu.remaining = remaining;
        cu.instr = DecodedInstr {
            instr: Instruction::new(OpClass::FmaF32, Some(Reg(0)), &[Reg(1), Reg(2), Reg(3)]),
            dyn_idx: 0,
        };
        cu
    }

    #[test]
    fn one_grant_per_bank_per_cycle() {
        let mut a = Arbiter::new(2, 0, 2);
        let mut cus = vec![cu_with(3), cu_with(1)];
        // CU0 has two operands in bank 0 and one in bank 1; CU1 one in bank 0.
        a.enqueue(0, 0);
        a.enqueue(0, 0);
        a.enqueue(1, 0);
        a.enqueue(0, 1);
        // Cycle 1: bank0 grants CU0's first op, bank1 grants CU0's bank-1 op.
        assert_eq!(a.grant(&mut cus), 2);
        assert_eq!(cus[0].remaining, 1);
        // Cycle 2: bank0 grants CU0's second op → CU0 ready.
        assert_eq!(a.grant(&mut cus), 1);
        assert!(cus[0].ready);
        // Cycle 3: bank0 grants CU1 → ready.
        assert_eq!(a.grant(&mut cus), 1);
        assert!(cus[1].ready);
        assert_eq!(a.grant(&mut cus), 0);
        assert_eq!(a.stats().0, 4);
    }

    #[test]
    fn conflicts_counted_on_enqueue_behind() {
        let mut a = Arbiter::new(2, 0, 2);
        a.enqueue(0, 0);
        a.enqueue(0, 1); // behind → conflict
        a.enqueue(1, 1); // empty bank → no conflict
        assert_eq!(a.stats().1, 1);
    }

    #[test]
    fn delayed_view_sees_own_enqueues_but_stale_grants() {
        let mut a = Arbiter::new(1, 2, 1);
        let mut cus = vec![cu_with(3)];
        // The scheduler's own enqueues are visible immediately.
        a.enqueue(0, 0);
        a.enqueue(0, 0);
        assert_eq!(a.delayed_lens(), &[2]);
        // A grant drains the real queue at once…
        a.snapshot();
        a.grant(&mut cus);
        assert_eq!(a.current_len(0), 1);
        // …but the scheduler's view only learns of it `delay` cycles later,
        // so it conservatively overestimates the queue.
        a.snapshot();
        assert_eq!(a.delayed_lens(), &[2]);
        a.snapshot();
        a.snapshot();
        assert_eq!(a.delayed_lens(), &[1]);
    }

    #[test]
    fn zero_delay_sees_latest_snapshot() {
        let mut a = Arbiter::new(1, 0, 1);
        a.enqueue(0, 0);
        a.snapshot();
        assert_eq!(a.delayed_lens(), &[1]);
    }

    #[test]
    fn snapshot_steady_state_recycles_ring_buffers() {
        let mut a = Arbiter::new(2, 3, 1);
        let mut cus = vec![cu_with(3)];
        a.enqueue(0, 0);
        for _ in 0..10 {
            a.snapshot();
            a.grant(&mut cus);
        }
        // Ring length is pinned at delay + 1 and the newest snapshot always
        // reflects the current grant counters.
        assert_eq!(a.hist_rows, 4);
        let newest = wrap(a.hist_head + a.hist_rows - 1, a.hist_rows);
        assert_eq!(a.hist[newest * a.banks], a.cum_grants[0]);
    }

    #[test]
    fn advance_idle_matches_repeated_snapshots() {
        // Two arbiters with identical traffic; one idles via snapshot()
        // loops, the other via advance_idle(). Their scheduler-visible
        // queue views must agree at every horizon.
        for idle_span in [1u64, 2, 5, 40] {
            let mut by_loop = Arbiter::new(1, 4, 1);
            let mut by_skip = Arbiter::new(1, 4, 1);
            let mut cus_a = vec![cu_with(3)];
            let mut cus_b = vec![cu_with(3)];
            for a in [&mut by_loop, &mut by_skip] {
                a.enqueue(0, 0);
                a.enqueue(0, 0);
            }
            by_loop.snapshot();
            by_loop.grant(&mut cus_a);
            by_skip.snapshot();
            by_skip.grant(&mut cus_b);
            for _ in 0..idle_span {
                by_loop.snapshot();
            }
            by_skip.advance_idle(idle_span);
            assert_eq!(by_loop.delayed_lens(), by_skip.delayed_lens(), "span {idle_span}");
        }
    }

    #[test]
    fn bank_idle_probe() {
        let mut a = Arbiter::new(2, 0, 1);
        a.enqueue(1, 0);
        assert!(a.bank_idle(0));
        assert!(!a.bank_idle(1));
    }

    #[test]
    fn bank_fifo_ring_wraps_at_capacity() {
        // cap = 3 × 1 CU = 3: fill, drain one, refill — the ring wraps.
        let mut a = Arbiter::new(1, 0, 1);
        let mut cus = vec![cu_with(3), cu_with(3)];
        a.enqueue(0, 0);
        a.enqueue(0, 0);
        a.enqueue(0, 0);
        assert_eq!(a.grant(&mut cus), 1);
        cus[1].remaining = 3;
        a.enqueue(0, 1); // lands in the recycled front cell
        assert_eq!(a.current_len(0), 3);
        for _ in 0..3 {
            assert_eq!(a.grant(&mut cus), 1);
        }
        assert_eq!(cus[0].remaining, 0);
        assert!(a.bank_idle(0));
    }

    /// One random step, applied identically to the arbiter and the model.
    #[derive(Debug, Clone)]
    enum Step {
        /// Stage a free unit (the first at or after the hint) with
        /// `n` operands in `banks` (reduced modulo the bank count), as
        /// `Domain::collect` does.
        Stage {
            cu_hint: u8,
            n: u8,
            banks: [u8; 3],
        },
        /// Free the first fully collected unit at or after the hint.
        Retire {
            cu_hint: u8,
        },
        Grant {
            blocked: u8,
        },
        Snapshot,
        Idle {
            cycles: u64,
        },
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<u8>(), 1u8..4, (any::<u8>(), any::<u8>(), any::<u8>()))
                .prop_map(|(cu_hint, n, (a, b, c))| Step::Stage { cu_hint, n, banks: [a, b, c] }),
            any::<u8>().prop_map(|cu_hint| Step::Retire { cu_hint }),
            any::<u8>().prop_map(|blocked| Step::Grant { blocked }),
            Just(Step::Snapshot),
            (0u64..12).prop_map(|cycles| Step::Idle { cycles }),
        ]
    }

    /// The arbiter written with no rings and no index arithmetic: a
    /// `VecDeque` per bank, and every grant-counter snapshot ever taken.
    struct Model {
        queues: Vec<VecDeque<u16>>,
        cum_enqueues: Vec<u64>,
        cum_grants: Vec<u64>,
        /// Seeded with the all-zero row, like the arbiter's history ring.
        snapshots: Vec<Vec<u64>>,
        delay: usize,
        grants: u64,
        conflicts: u64,
    }

    impl Model {
        fn new(banks: usize, delay: usize) -> Self {
            Model {
                queues: vec![VecDeque::new(); banks],
                cum_enqueues: vec![0; banks],
                cum_grants: vec![0; banks],
                snapshots: vec![vec![0; banks]],
                delay,
                grants: 0,
                conflicts: 0,
            }
        }

        fn enqueue(&mut self, bank: usize, cu: u16) {
            self.conflicts += u64::from(!self.queues[bank].is_empty());
            self.queues[bank].push_back(cu);
            self.cum_enqueues[bank] += 1;
        }

        fn grant(&mut self, units: &mut [(u8, bool)], blocked: u32) -> u32 {
            let mut granted = 0;
            for (b, queue) in self.queues.iter_mut().enumerate() {
                if blocked & (1 << b) != 0 {
                    continue;
                }
                if let Some(cu) = queue.pop_front() {
                    let (remaining, ready) = &mut units[cu as usize];
                    *remaining -= 1;
                    *ready = *remaining == 0;
                    self.cum_grants[b] += 1;
                    granted += 1;
                }
            }
            self.grants += u64::from(granted);
            granted
        }

        /// The snapshot `delay` snapshots before the newest (or the seed).
        fn delayed_lens(&self) -> Vec<u16> {
            let old = &self.snapshots[self.snapshots.len().saturating_sub(self.delay + 1)];
            let lens =
                self.cum_enqueues.iter().zip(old).map(|(e, g)| (e - g).min(u64::from(u16::MAX)));
            lens.map(|l| l as u16).collect()
        }
    }

    /// First unit at or after `hint` (wrapping) that `pick` accepts.
    fn find(
        cus: &[CollectorUnit],
        hint: u8,
        pick: impl Fn(&CollectorUnit) -> bool,
    ) -> Option<usize> {
        (0..cus.len()).map(|i| (hint as usize + i) % cus.len()).find(|&i| pick(&cus[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The division-free rings (bank FIFOs of capacity 3 × CUs, mostly
        /// not powers of two, and the `delay + 1`-row grant history) match
        /// the `VecDeque` model step for step: grant order (through each
        /// unit's `remaining`/`ready`), queue lengths, the delayed view and
        /// the counters.
        #[test]
        fn rings_match_vecdeque_model(
            shape in (1usize..9, 1usize..5, 0usize..6),
            steps in proptest::prop::collection::vec(arb_step(), 1..300),
        ) {
            let (banks, cu_count, delay) = shape;
            let mut arbiter = Arbiter::new(banks as u32, delay as u32, cu_count as u32);
            let mut cus: Vec<CollectorUnit> = (0..cu_count).map(|_| CollectorUnit::empty()).collect();
            let mut model = Model::new(banks, delay);
            let mut units = vec![(0u8, false); cu_count];
            for step in steps {
                match step {
                    Step::Stage { cu_hint, n, banks: operand_banks } => {
                        let Some(cu) = find(&cus, cu_hint, |c| !c.busy) else { continue };
                        cus[cu] = cu_with(n);
                        units[cu] = (n, false);
                        for &bank in &operand_banks[..n as usize] {
                            arbiter.enqueue(bank as usize % banks, cu as u16);
                            model.enqueue(bank as usize % banks, cu as u16);
                        }
                    }
                    Step::Retire { cu_hint } => {
                        let Some(cu) = find(&cus, cu_hint, |c| c.busy && c.ready) else { continue };
                        cus[cu].busy = false;
                    }
                    Step::Grant { blocked } => {
                        let blocked = u32::from(blocked);
                        prop_assert_eq!(
                            arbiter.grant_masked(&mut cus, blocked),
                            model.grant(&mut units, blocked)
                        );
                    }
                    Step::Snapshot => {
                        arbiter.snapshot();
                        model.snapshots.push(model.cum_grants.clone());
                    }
                    Step::Idle { cycles } => {
                        arbiter.advance_idle(cycles);
                        for _ in 0..cycles {
                            model.snapshots.push(model.cum_grants.clone());
                        }
                    }
                }
                for (cu, &(remaining, ready)) in cus.iter().zip(&units) {
                    prop_assert_eq!((cu.remaining, cu.ready), (remaining, ready));
                }
                for (b, queue) in model.queues.iter().enumerate() {
                    prop_assert_eq!(arbiter.current_len(b), queue.len());
                }
                prop_assert_eq!(arbiter.delayed_lens(), &model.delayed_lens()[..]);
                prop_assert_eq!(arbiter.stats(), (model.grants, model.conflicts));
            }
        }
    }
}
