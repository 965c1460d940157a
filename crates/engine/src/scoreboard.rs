//! Per-warp register scoreboard: tracks in-flight destination registers.

use subcore_isa::Reg;

/// A 256-register pending-write bitset, one per warp.
///
/// An instruction may issue only if none of its source registers (RAW) and
/// its destination register (WAW) have a write in flight — i.e. its hazard
/// set (a second `Scoreboard` with exactly those registers marked) does
/// not [intersect](Self::intersects) this one. Writeback clears the
/// destination's bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scoreboard {
    bits: [u64; 4],
}

impl Scoreboard {
    /// An empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn word_bit(reg: Reg) -> (usize, u64) {
        (reg.index() >> 6, 1u64 << (reg.index() & 63))
    }

    /// Marks `reg` as having a pending write.
    #[inline]
    pub fn set(&mut self, reg: Reg) {
        let (w, b) = Self::word_bit(reg);
        self.bits[w] |= b;
    }

    /// Clears the pending write on `reg`.
    #[inline]
    pub fn clear(&mut self, reg: Reg) {
        let (w, b) = Self::word_bit(reg);
        self.bits[w] &= !b;
    }

    /// True if `reg` has a pending write.
    #[inline]
    pub fn pending(&self, reg: Reg) -> bool {
        let (w, b) = Self::word_bit(reg);
        self.bits[w] & b != 0
    }

    /// True if any register marked in `mask` has a pending write
    /// (branch-free: four ANDs).
    #[inline]
    pub fn intersects(&self, mask: &Scoreboard) -> bool {
        (0..4).fold(0, |acc, w| acc | (self.bits[w] & mask.bits[w])) != 0
    }

    /// True if no writes are pending at all.
    pub fn is_empty(&self) -> bool {
        self.bits == [0; 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_roundtrip() {
        let mut sb = Scoreboard::new();
        assert!(sb.is_empty());
        sb.set(Reg(0));
        sb.set(Reg(63));
        sb.set(Reg(64));
        sb.set(Reg(255));
        assert!(sb.pending(Reg(0)) && sb.pending(Reg(63)));
        assert!(sb.pending(Reg(64)) && sb.pending(Reg(255)));
        assert!(!sb.pending(Reg(1)));
        sb.clear(Reg(63));
        assert!(!sb.pending(Reg(63)));
        sb.clear(Reg(0));
        sb.clear(Reg(64));
        sb.clear(Reg(255));
        assert!(sb.is_empty());
    }

    /// The hazard set of an instruction: destination and sources alike.
    fn hazards(regs: &[u8]) -> Scoreboard {
        let mut mask = Scoreboard::new();
        regs.iter().for_each(|&r| mask.set(Reg(r)));
        mask
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.set(Reg(5));
        assert!(sb.intersects(&hazards(&[9, 5])));
        assert!(!sb.intersects(&hazards(&[9, 6])));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.set(Reg(7));
        assert!(sb.intersects(&hazards(&[7])));
        assert!(!sb.intersects(&hazards(&[])));
    }

    #[test]
    fn intersects_checks_every_word() {
        let mut sb = Scoreboard::new();
        sb.set(Reg(200));
        assert!(sb.intersects(&hazards(&[1, 64, 200])));
        assert!(!sb.intersects(&hazards(&[8, 72, 136, 199, 201])));
        sb.set(Reg(64));
        sb.clear(Reg(200));
        assert!(sb.intersects(&hazards(&[1, 64, 200])));
    }
}
