//! Conflict-free register remapping: a semantics-preserving permutation of
//! each warp program's register names that minimizes the program's static
//! bank cost — the same `hottest-bank load + same-instruction excess` term
//! the cost model's bank bound charges.
//!
//! Registers are warp-private, so renaming them consistently within one
//! program changes *nothing* about the computation — same ops, same
//! def/use chains, same memory traffic — only which bank each operand read
//! lands on. The engine's swizzle maps register `r` of local warp `l` to
//! bank `(r + 3l) % banks` ([`subcore_engine::bank_of_register`]): for a
//! fixed program the per-bank histogram of every warp is a pure *rotation*
//! of warp 0's, and bank *equality* of two registers is
//! rotation-invariant, so one permutation optimized against warp 0's view
//! improves every warp of the group simultaneously.
//!
//! Two greedy candidates compete per program group and the cheaper one
//! wins (identity if neither strictly improves):
//!
//! * [`flattening_permutation`] — the certificate behind lint's L036
//!   advisory ([`subcore_lint::flattened_max_load`]): registers
//!   heaviest-first onto the least-loaded bank, which levels a *skewed
//!   aggregate histogram* (lint L010).
//! * a conflict-aware placement that additionally separates registers
//!   read by the *same instruction* onto distinct banks — the in-bank
//!   operand clustering (lint L011) of the structured-bank stressors,
//!   whose aggregate histograms are already flat.

use std::sync::Arc;
use subcore_engine::GpuConfig;
use subcore_isa::{App, Instruction, Kernel, KernelBuilder, Reg, Segment, WarpProgram};
use subcore_lint::dataflow::ProgramDataflow;
use subcore_lint::{operand_excess, program_groups};

/// The permutation applied to one program group of a kernel.
#[derive(Debug, Clone)]
pub struct GroupRemap {
    /// First warp slot sharing the remapped program.
    pub first_warp: u32,
    /// Last warp slot sharing the remapped program.
    pub last_warp: u32,
    /// Bijection on `0..regs_per_thread`: register `r` is renamed to
    /// `perm[r]`. Identity when the layout was already flat.
    pub perm: Vec<u8>,
    /// Hottest-bank static read load before the remap (warp 0's view).
    pub before_max_load: u64,
    /// Hottest-bank static read load after the remap.
    pub after_max_load: u64,
    /// Same-instruction same-bank operand excess before the remap
    /// (rotation-invariant; the cost model's serialization term).
    pub before_excess: u64,
    /// Same-instruction same-bank operand excess after the remap.
    pub after_excess: u64,
}

impl GroupRemap {
    /// Whether this group's permutation actually moves a register.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == usize::from(p))
    }

    /// Static bank cost before the remap: hottest aggregate load plus
    /// same-instruction excess, the numerator of the cost model's bank
    /// bound.
    pub fn before_cost(&self) -> u64 {
        self.before_max_load + self.before_excess
    }

    /// Static bank cost after the remap.
    pub fn after_cost(&self) -> u64 {
        self.after_max_load + self.after_excess
    }
}

/// A remapped kernel plus the per-group evidence of what changed.
#[derive(Debug, Clone)]
pub struct KernelRemap {
    /// The rewritten kernel (identical launch shape, renamed registers).
    pub kernel: Kernel,
    /// Per program-group permutations, in warp-slot order.
    pub groups: Vec<GroupRemap>,
}

impl KernelRemap {
    /// Whether any group's registers actually moved.
    pub fn changed(&self) -> bool {
        self.groups.iter().any(|g| !g.is_identity())
    }
}

/// Builds the flattening permutation for one program's register read
/// counts: a bijection on `0..reads.len()` placing heavy registers onto
/// distinct banks, respecting each bank's slot capacity
/// (`#{x : x % banks == b}` register names feed bank `b`).
///
/// Deterministic: ties in read count break toward the lower register, ties
/// in bank load toward the lower bank, and slots are consumed ascending.
pub fn flattening_permutation(reads: &[u64], banks: u32) -> Vec<u8> {
    let banks = banks.max(1) as usize;
    let n = reads.len();
    debug_assert!(n <= Reg::MAX_REGS, "register file capped at {}", Reg::MAX_REGS);
    // Free register names per bank, ascending (we pop from the front).
    let mut free: Vec<Vec<u8>> = vec![Vec::new(); banks];
    for slot in 0..n {
        free[slot % banks].push(slot as u8);
    }
    for f in &mut free {
        f.reverse(); // pop() now yields the lowest remaining name
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(reads[r]), r));
    let mut load = vec![0u64; banks];
    let mut perm = vec![0u8; n];
    for r in order {
        let b = (0..banks)
            .filter(|&b| !free[b].is_empty())
            .min_by_key(|&b| load[b])
            .expect("slot capacity totals the register count");
        load[b] += reads[r];
        perm[r] = free[b].pop().expect("bank has a free slot");
    }
    perm
}

/// Dynamic co-read weights: `pairs[a * n + b]` counts how often registers
/// `a` and `b` (distinct, both `< n`) are read by the *same* instruction,
/// weighted by segment repeat. Placing a heavy pair on one bank serializes
/// that instruction's operand collection every execution, no matter how
/// flat the aggregate histogram is.
fn co_read_weights(program: &WarpProgram, n: usize) -> Vec<u64> {
    let mut pairs = vec![0u64; n * n];
    for seg in program.segments() {
        let times = u64::from(seg.repeat);
        if times == 0 {
            continue;
        }
        for instr in seg.body.iter() {
            let srcs: Vec<Reg> = instr.sources().collect();
            for (i, &a) in srcs.iter().enumerate() {
                for &b in &srcs[i + 1..] {
                    let (a, b) = (a.index(), b.index());
                    if a != b && a < n && b < n {
                        pairs[a * n + b] = pairs[a * n + b].saturating_add(times);
                        pairs[b * n + a] = pairs[b * n + a].saturating_add(times);
                    }
                }
            }
        }
    }
    pairs
}

/// Conflict-aware variant of [`flattening_permutation`]: registers in
/// descending conflict participation (then read weight), each onto the
/// bank with free slots that minimizes co-read conflict with the registers
/// already placed there, breaking ties toward the lightest (then lowest)
/// bank.
fn conflict_aware_permutation(reads: &[u64], pairs: &[u64], banks: u32) -> Vec<u8> {
    let banks = banks.max(1) as usize;
    let n = reads.len();
    let mut free: Vec<Vec<u8>> = vec![Vec::new(); banks];
    for slot in 0..n {
        free[slot % banks].push(slot as u8);
    }
    for f in &mut free {
        f.reverse(); // pop() now yields the lowest remaining name
    }
    let degree: Vec<u64> = (0..n).map(|r| pairs[r * n..(r + 1) * n].iter().sum()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(degree[r]), std::cmp::Reverse(reads[r]), r));
    let mut bank_of: Vec<Option<usize>> = vec![None; n];
    let mut load = vec![0u64; banks];
    let mut perm = vec![0u8; n];
    for r in order {
        let b = (0..banks)
            .filter(|&b| !free[b].is_empty())
            .min_by_key(|&b| {
                let conflict: u64 =
                    (0..n).filter(|&s| bank_of[s] == Some(b)).map(|s| pairs[r * n + s]).sum();
                (conflict, load[b], b)
            })
            .expect("slot capacity totals the register count");
        bank_of[r] = Some(b);
        load[b] += reads[r];
        perm[r] = free[b].pop().expect("bank has a free slot");
    }
    perm
}

/// Hottest-bank static read load of warp 0's view when register `r` holds
/// `reads[r]` reads: the identity-layout side of the before/after pair.
fn max_bank_load(reads: &[u64], banks: u32) -> u64 {
    let banks = banks.max(1) as usize;
    let mut load = vec![0u64; banks];
    for (r, &c) in reads.iter().enumerate() {
        load[r % banks] += c;
    }
    load.into_iter().max().unwrap_or(0)
}

/// Rewrites one program through the permutation, preserving segment
/// structure, repeats, op classes, and memory patterns.
fn apply_permutation(program: &WarpProgram, perm: &[u8]) -> Arc<WarpProgram> {
    let rename = |r: Reg| Reg(perm[r.index()]);
    let segments = program
        .segments()
        .iter()
        .map(|seg| Segment {
            body: seg
                .body
                .iter()
                .map(|instr| {
                    let mut out: Instruction = *instr;
                    out.dst = out.dst.map(rename);
                    for s in &mut out.srcs {
                        *s = s.map(rename);
                    }
                    out
                })
                .collect(),
            repeat: seg.repeat,
        })
        .collect();
    Arc::new(WarpProgram::from_segments(segments))
}

/// Remaps `kernel`'s registers to minimize its static bank cost (hottest
/// aggregate load plus same-instruction operand excess) under `cfg`.
/// Returns `None` when any program names a register outside the declared
/// allocation (an L001 error the permutation cannot be a bijection over).
///
/// Each pointer-distinct program is remapped once and re-shared across its
/// warp span, so program-group structure (and the engine's program-level
/// caching) is preserved. A group where neither greedy candidate strictly
/// lowers the bank cost keeps the identity permutation.
pub fn remap_kernel(kernel: &Kernel, cfg: &GpuConfig) -> Option<KernelRemap> {
    let banks = cfg.domain().banks.max(1);
    let declared = u32::from(kernel.regs_per_thread());
    let mut groups = Vec::new();
    let mut programs: Vec<Arc<WarpProgram>> = Vec::with_capacity(kernel.warps_per_block() as usize);
    for (first, last, program) in program_groups(kernel) {
        let flow = ProgramDataflow::of(first, last, &program, declared);
        if !flow.out_of_range.is_empty() {
            return None;
        }
        let reads = flow.read_counts(declared);
        let pairs = co_read_weights(&program, reads.len());
        let identity_perm: Vec<u8> = (0..reads.len()).map(|r| r as u8).collect();
        let before_load = max_bank_load(&reads, banks);
        let before_excess = operand_excess(&program, banks, |r| r);
        // Two greedy candidates — aggregate flattening and conflict-aware
        // placement — scored by the cost model's bank term; the cheaper
        // wins, identity if neither strictly improves.
        let mut best: Option<(u64, u64, u64, Vec<u8>)> = None;
        for candidate in [
            flattening_permutation(&reads, banks),
            conflict_aware_permutation(&reads, &pairs, banks),
        ] {
            let mut permuted = vec![0u64; reads.len()];
            for (r, &c) in reads.iter().enumerate() {
                permuted[usize::from(candidate[r])] = c;
            }
            let load = max_bank_load(&permuted, banks);
            let excess = operand_excess(&program, banks, |r| Reg(candidate[r.index()]));
            if best.as_ref().is_none_or(|b| load + excess < b.0) {
                best = Some((load + excess, load, excess, candidate));
            }
        }
        let (cost, load, excess, candidate) = best.expect("two candidates were scored");
        let (perm, after_load, after_excess) = if cost < before_load + before_excess {
            (candidate, load, excess)
        } else {
            (identity_perm, before_load, before_excess)
        };
        let identity = perm.iter().enumerate().all(|(i, &p)| i == usize::from(p));
        let remapped = if identity { program.clone() } else { apply_permutation(&program, &perm) };
        for _ in first..=last {
            programs.push(remapped.clone());
        }
        groups.push(GroupRemap {
            first_warp: first,
            last_warp: last,
            perm,
            before_max_load: before_load,
            after_max_load: after_load,
            before_excess,
            after_excess,
        });
    }
    let kernel = KernelBuilder::new(kernel.name())
        .blocks(kernel.blocks())
        .regs_per_thread(kernel.regs_per_thread())
        .shared_mem_bytes(kernel.shared_mem_bytes())
        .per_warp_programs(programs)
        .build();
    Some(KernelRemap { kernel, groups })
}

/// Remaps every kernel of `app`, returning the rewritten app plus the
/// per-kernel evidence. Kernels the remapper must skip (out-of-range
/// registers) are carried through unchanged.
pub fn remap_app(app: &App, cfg: &GpuConfig) -> (App, Vec<Option<KernelRemap>>) {
    let mut kernels = Vec::new();
    let mut outcomes = Vec::new();
    for kernel in app.kernels() {
        match remap_kernel(kernel, cfg) {
            Some(remap) => {
                kernels.push(remap.kernel.clone());
                outcomes.push(Some(remap));
            }
            None => {
                kernels.push(kernel.clone());
                outcomes.push(None);
            }
        }
    }
    (App::new(app.name(), app.suite(), kernels), outcomes)
}
