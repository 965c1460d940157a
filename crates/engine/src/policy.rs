//! Extension points: warp-scheduler selection and sub-core warp assignment.
//!
//! The engine models *today's hardware* — greedy-then-oldest (GTO) warp
//! scheduling and round-robin sub-core assignment — as built-in baselines.
//! The paper's novel policies (RBA scheduling, SRR/Shuffle hashed
//! assignment) live in the `subcore-sched` crate and plug in through the
//! [`WarpSelector`] and [`SubcoreAssigner`] traits.

use std::fmt;
use subcore_isa::Pipeline;

/// One issuable warp instruction presented to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueCandidate {
    /// SM-wide warp slot (stable identity of the warp on this SM).
    pub warp_slot: u32,
    /// Allocation age: smaller = older (assigned to the scheduler earlier).
    pub age: u64,
    /// Number of register source operands (0–3).
    pub num_srcs: u8,
    /// Register-bank index (within the scheduler's visible banks) of each
    /// source operand; entries `>= num_srcs` are meaningless.
    pub banks: [u8; 3],
    /// Execution pipeline of the instruction.
    pub pipeline: Pipeline,
}

/// Everything a warp scheduler may inspect when choosing what to issue.
///
/// `bank_queue_lens[b]` is the length of register bank `b`'s pending
/// read-request queue as seen by the scheduler — the engine delays this view
/// by [`crate::GpuConfig::score_update_latency`] cycles to model the wiring
/// distance between the operand collector and the issue logic (§VI-B4).
#[derive(Debug)]
pub struct IssueView<'a> {
    /// Issuable candidates this cycle (non-empty).
    pub candidates: &'a [IssueCandidate],
    /// Possibly delayed per-bank pending-request queue lengths.
    pub bank_queue_lens: &'a [u16],
    /// The warp slot this scheduler issued most recently, if any.
    pub last_issued: Option<u32>,
}

impl IssueView<'_> {
    /// The paper's RBA score for candidate `i`: the sum of the queue length
    /// of each source operand's bank (operands in the same bank count that
    /// bank's queue once per operand).
    pub fn rba_score(&self, i: usize) -> u32 {
        let c = &self.candidates[i];
        (0..c.num_srcs as usize).map(|k| u32::from(self.bank_queue_lens[c.banks[k] as usize])).sum()
    }
}

/// A warp scheduler: selects which ready warp instruction a scheduler slot
/// issues each cycle.
///
/// Implementations are constructed per scheduler instance and may keep
/// internal state (greedy pointers, round-robin cursors, …).
pub trait WarpSelector: fmt::Debug + Send {
    /// Chooses one of `view.candidates` (by index) to issue, or `None` to
    /// idle the slot. The engine only calls this with at least one
    /// candidate.
    fn select(&mut self, view: &IssueView<'_>) -> Option<usize>;

    /// Stable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Factory creating one [`WarpSelector`] per scheduler instance.
pub type SelectorFactory = dyn Fn() -> Box<dyn WarpSelector> + Send + Sync;

/// A sub-core warp-assignment policy: decides, at thread-block scheduling
/// time, which sub-core each warp of the block is pinned to for its entire
/// lifetime (Table I's "sub-core scheduler").
pub trait SubcoreAssigner: fmt::Debug + Send {
    /// Assigns each of a block's `warps_in_block` warps to one of
    /// `num_subcores` sub-cores, in warp-id order, appending
    /// `warps_in_block` entries (each `< num_subcores`) to `out`.
    ///
    /// Called exactly once per block scheduled on the SM this assigner
    /// serves; implementations typically advance an internal warp counter.
    /// The engine passes a recycled buffer so steady-state block accepts
    /// never allocate; implementations should only append.
    fn assign_block_into(&mut self, warps_in_block: u32, num_subcores: u32, out: &mut Vec<u32>);

    /// Convenience wrapper over [`Self::assign_block_into`] returning a
    /// fresh vector (tests and offline tools).
    fn assign_block(&mut self, warps_in_block: u32, num_subcores: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(warps_in_block as usize);
        self.assign_block_into(warps_in_block, num_subcores, &mut out);
        out
    }

    /// Stable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Factory creating one [`SubcoreAssigner`] per SM; receives the SM index so
/// randomized policies can derive distinct, deterministic seeds.
pub type AssignerFactory = dyn Fn(u32) -> Box<dyn SubcoreAssigner> + Send + Sync;

/// The policy pair a simulation runs with.
pub struct Policies {
    /// Creates the warp scheduler for each scheduler instance.
    pub selector: Box<SelectorFactory>,
    /// Creates the sub-core assigner for each SM.
    pub assigner: Box<AssignerFactory>,
}

impl fmt::Debug for Policies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Policies").finish_non_exhaustive()
    }
}

impl Policies {
    /// Today's hardware baseline: GTO warp scheduling with round-robin
    /// sub-core assignment.
    pub fn hardware_baseline() -> Self {
        Policies {
            selector: Box::new(|| Box::new(GtoSelector::new())),
            assigner: Box::new(|_| Box::new(RoundRobinAssigner::new())),
        }
    }

    /// Builds policies from explicit factories.
    pub fn new(selector: Box<SelectorFactory>, assigner: Box<AssignerFactory>) -> Self {
        Policies { selector, assigner }
    }
}

impl Default for Policies {
    fn default() -> Self {
        Self::hardware_baseline()
    }
}

/// Greedy-then-oldest warp scheduling — the baseline of every experiment in
/// the paper: keep issuing the same warp while it is ready, otherwise fall
/// back to the oldest ready warp.
#[derive(Debug, Default)]
pub struct GtoSelector {
    last: Option<u32>,
}

impl GtoSelector {
    /// Creates a GTO selector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpSelector for GtoSelector {
    fn select(&mut self, view: &IssueView<'_>) -> Option<usize> {
        let pick = view
            .last_issued
            .and_then(|w| view.candidates.iter().position(|c| c.warp_slot == w))
            .or_else(|| {
                view.candidates.iter().enumerate().min_by_key(|(_, c)| c.age).map(|(i, _)| i)
            });
        if let Some(i) = pick {
            self.last = Some(view.candidates[i].warp_slot);
        }
        pick
    }

    fn name(&self) -> &'static str {
        "gto"
    }
}

/// Loose round-robin warp scheduling (used for engine validation and
/// ablations): rotates through warp slots.
#[derive(Debug, Default)]
pub struct LrrSelector {
    next: u32,
}

impl LrrSelector {
    /// Creates an LRR selector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpSelector for LrrSelector {
    fn select(&mut self, view: &IssueView<'_>) -> Option<usize> {
        // Pick the candidate with the smallest slot >= next, wrapping.
        let i = view
            .candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                let s = c.warp_slot;
                (if s >= self.next { 0u32 } else { 1 }, s)
            })
            .map(|(i, _)| i)?;
        self.next = view.candidates[i].warp_slot + 1;
        Some(i)
    }

    fn name(&self) -> &'static str {
        "lrr"
    }
}

/// Round-robin sub-core assignment — what Volta/Ampere silicon does
/// (§III-B): warp `W` of the SM goes to sub-core `W mod N`, with the counter
/// carried across blocks.
#[derive(Debug, Default)]
pub struct RoundRobinAssigner {
    warps_assigned: u64,
}

impl RoundRobinAssigner {
    /// Creates a round-robin assigner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SubcoreAssigner for RoundRobinAssigner {
    fn assign_block_into(&mut self, warps_in_block: u32, num_subcores: u32, out: &mut Vec<u32>) {
        out.extend((0..warps_in_block).map(|_| {
            let sc = (self.warps_assigned % u64::from(num_subcores)) as u32;
            self.warps_assigned += 1;
            sc
        }));
    }

    fn name(&self) -> &'static str {
        "rr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(slot: u32, age: u64) -> IssueCandidate {
        IssueCandidate { warp_slot: slot, age, num_srcs: 0, banks: [0; 3], pipeline: Pipeline::Fma }
    }

    #[test]
    fn gto_prefers_last_issued() {
        let mut g = GtoSelector::new();
        let lens = [0u16; 2];
        let c = vec![cand(3, 10), cand(5, 1)];
        // First call: no greedy state, oldest (slot 5) wins.
        let view = IssueView { candidates: &c, bank_queue_lens: &lens, last_issued: None };
        assert_eq!(g.select(&view), Some(1));
        // Greedy: slot 5 remains ready → keep issuing it.
        let view = IssueView { candidates: &c, bank_queue_lens: &lens, last_issued: Some(5) };
        assert_eq!(g.select(&view), Some(1));
        // Slot 5 gone: fall back to oldest remaining.
        let c2 = vec![cand(3, 10), cand(7, 4)];
        let view = IssueView { candidates: &c2, bank_queue_lens: &lens, last_issued: Some(5) };
        assert_eq!(g.select(&view), Some(1), "age 4 beats age 10");
    }

    #[test]
    fn lrr_rotates() {
        let mut l = LrrSelector::new();
        let lens = [0u16; 2];
        let c = vec![cand(0, 0), cand(1, 1), cand(2, 2)];
        let view = IssueView { candidates: &c, bank_queue_lens: &lens, last_issued: None };
        assert_eq!(l.select(&view), Some(0));
        assert_eq!(l.select(&view), Some(1));
        assert_eq!(l.select(&view), Some(2));
        assert_eq!(l.select(&view), Some(0), "wraps around");
    }

    #[test]
    fn rr_assigner_matches_silicon() {
        let mut a = RoundRobinAssigner::new();
        assert_eq!(a.assign_block(8, 4), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Counter carries across blocks: a 2-warp block then continues at 2.
        let mut b = RoundRobinAssigner::new();
        assert_eq!(b.assign_block(2, 4), vec![0, 1]);
        assert_eq!(b.assign_block(4, 4), vec![2, 3, 0, 1]);
    }

    #[test]
    fn rba_score_counts_duplicate_banks_twice() {
        let lens = [5u16, 2];
        let c = [IssueCandidate {
            warp_slot: 0,
            age: 0,
            num_srcs: 3,
            banks: [0, 0, 1],
            pipeline: Pipeline::Fma,
        }];
        let view = IssueView { candidates: &c, bank_queue_lens: &lens, last_issued: None };
        assert_eq!(view.rba_score(0), 2 * 5 + 2);
    }

    #[test]
    fn hardware_baseline_names() {
        let p = Policies::hardware_baseline();
        assert_eq!((p.selector)().name(), "gto");
        assert_eq!((p.assigner)(0).name(), "rr");
    }
}
