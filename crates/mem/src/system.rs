//! The assembled memory system: per-SM L1s, sliced L2, DRAM channels, and
//! per-SM shared-memory scratchpads.
//!
//! The whole system is *passive*: an access resolves immediately into a
//! completion latency and the SM schedules the writeback itself — nothing
//! in here ticks, queues, or otherwise advances on its own between
//! accesses. The engine's idle-cycle skip-ahead (`EngineMode::Adaptive`)
//! depends on this: a span of cycles in which no SM touches the memory
//! system leaves it in exactly the state it started in, so jumping over
//! the span cannot change any future access outcome.

use crate::cache::{AccessOutcome, Cache};
use crate::config::MemConfig;
use crate::dram::DramChannel;
use crate::shared::SharedMemModel;
use subcore_persist::{Json, JsonCodec, JsonError};

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 hits across all SMs.
    pub l1_hits: u64,
    /// L1 misses across all SMs.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM transactions).
    pub l2_misses: u64,
    /// Warp-level shared-memory accesses.
    pub shared_accesses: u64,
    /// Cycles lost to shared-memory bank conflicts.
    pub shared_conflict_cycles: u64,
    /// Loads merged with an in-flight miss (MSHR hits).
    pub mshr_merges: u64,
}

impl JsonCodec for MemStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("l1_hits", Json::Uint(self.l1_hits)),
            ("l1_misses", Json::Uint(self.l1_misses)),
            ("l2_hits", Json::Uint(self.l2_hits)),
            ("l2_misses", Json::Uint(self.l2_misses)),
            ("shared_accesses", Json::Uint(self.shared_accesses)),
            ("shared_conflict_cycles", Json::Uint(self.shared_conflict_cycles)),
            ("mshr_merges", Json::Uint(self.mshr_merges)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(MemStats {
            l1_hits: json.field("l1_hits")?.as_u64()?,
            l1_misses: json.field("l1_misses")?.as_u64()?,
            l2_hits: json.field("l2_hits")?.as_u64()?,
            l2_misses: json.field("l2_misses")?.as_u64()?,
            shared_accesses: json.field("shared_accesses")?.as_u64()?,
            shared_conflict_cycles: json.field("shared_conflict_cycles")?.as_u64()?,
            mshr_merges: json.field("mshr_merges")?.as_u64()?,
        })
    }
}

/// The GPU memory system shared by every SM.
///
/// All latencies are *returned*, not simulated with events: an access at
/// cycle `now` yields the cycle at which its data is available, and DRAM
/// channel state enforces the bandwidth bound across accesses. This keeps
/// the memory system O(1) per transaction and completely deterministic.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: Vec<Cache>,
    shared: Vec<SharedMemModel>,
    l2: Vec<Cache>,
    dram: Vec<DramChannel>,
    /// Per-SM in-flight miss table: line → fill-completion cycle
    /// (populated only when MSHR merging is enabled).
    mshrs: Vec<std::collections::HashMap<u64, u64>>,
    mshr_merges: u64,
}

impl MemSystem {
    /// Builds a memory system serving `num_sms` SMs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MemConfig::validate`] or
    /// `num_sms` is zero.
    pub fn new(cfg: MemConfig, num_sms: usize) -> Self {
        cfg.validate();
        assert!(num_sms > 0, "a GPU needs at least one SM");
        let l1 = (0..num_sms).map(|_| Cache::new(cfg.l1_sets(), cfg.l1_assoc)).collect();
        let shared = (0..num_sms)
            .map(|_| SharedMemModel::new(cfg.shared_latency, cfg.shared_banks))
            .collect();
        let l2 =
            (0..cfg.l2_slices).map(|_| Cache::new(cfg.l2_sets_per_slice(), cfg.l2_assoc)).collect();
        let dram = (0..cfg.dram_channels)
            .map(|_| DramChannel::new(cfg.dram_service_interval, cfg.dram_latency))
            .collect();
        let mshrs = (0..num_sms).map(|_| std::collections::HashMap::new()).collect();
        MemSystem { cfg, l1, shared, l2, dram, mshrs, mshr_merges: 0 }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Performs a warp-level global access from SM `sm` consisting of the
    /// given line-address transactions, starting at cycle `now`. Returns the
    /// completion cycle of the last transaction.
    ///
    /// Stores are write-through no-allocate at L1 and write-allocate at L2;
    /// loads allocate at both levels.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range or `lines` is empty.
    pub fn access_global(&mut self, sm: usize, now: u64, lines: &[u64], is_store: bool) -> u64 {
        assert!(!lines.is_empty(), "global access needs at least one transaction");
        let mut done = now;
        for &line in lines {
            let t = self.access_line(sm, now, line, is_store);
            done = done.max(t);
        }
        done
    }

    fn access_line(&mut self, sm: usize, now: u64, line: u64, is_store: bool) -> u64 {
        let l1_latency = u64::from(self.cfg.l1_latency);
        let l1 = &mut self.l1[sm];
        if l1.access(line, !is_store) == AccessOutcome::Hit && !is_store {
            return now + l1_latency;
        }
        // Merge with an in-flight miss to the same line, if modeled.
        if self.cfg.mshr_merging && !is_store {
            if let Some(&ready) = self.mshrs[sm].get(&line) {
                if now < ready {
                    self.mshr_merges += 1;
                    return ready;
                }
                self.mshrs[sm].remove(&line);
            }
        }
        // Miss (or write-through store): go to the L2 slice for this line.
        let slice = (line as usize) % self.l2.len();
        let l2_latency = l1_latency + u64::from(self.cfg.l2_latency);
        let done = if self.l2[slice].access(line, true) == AccessOutcome::Hit {
            now + l2_latency
        } else {
            let ch = (line as usize) % self.dram.len();
            self.dram[ch].access(now + l2_latency)
        };
        if self.cfg.mshr_merging && !is_store {
            // Bound the table: drop stale entries opportunistically.
            if self.mshrs[sm].len() > 4096 {
                self.mshrs[sm].retain(|_, &mut r| r > now);
            }
            self.mshrs[sm].insert(line, done);
        }
        done
    }

    /// Performs a warp-level shared-memory access on SM `sm` with the given
    /// bank-conflict degree; returns the completion cycle.
    pub fn access_shared(&mut self, sm: usize, now: u64, degree: u8) -> u64 {
        self.shared[sm].access(now, degree)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for c in &self.l1 {
            let (h, m) = c.stats();
            s.l1_hits += h;
            s.l1_misses += m;
        }
        for c in &self.l2 {
            let (h, m) = c.stats();
            s.l2_hits += h;
            s.l2_misses += m;
        }
        for sh in &self.shared {
            s.shared_accesses += sh.accesses();
            s.shared_conflict_cycles += sh.conflict_cycles();
        }
        s.mshr_merges = self.mshr_merges;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(sms: usize) -> MemSystem {
        MemSystem::new(MemConfig::volta_like(), sms)
    }

    #[test]
    fn latency_spread_is_ordered() {
        let mut m = system(1);
        let cold = m.access_global(0, 0, &[42], false); // DRAM
        let l1_hit = m.access_global(0, 0, &[42], false); // now in L1
        assert!(cold > l1_hit, "cold miss ({cold}) slower than L1 hit ({l1_hit})");
        let cfg = m.config().clone();
        assert_eq!(l1_hit, u64::from(cfg.l1_latency));
        assert!(cold >= u64::from(cfg.l1_latency + cfg.l2_latency + cfg.dram_latency));
    }

    #[test]
    fn l2_is_shared_across_sms() {
        let mut m = system(2);
        m.access_global(0, 0, &[7], false); // SM0 warms L2
        let t = m.access_global(1, 0, &[7], false); // SM1 misses L1, hits L2
        let cfg = m.config().clone();
        assert_eq!(t, u64::from(cfg.l1_latency + cfg.l2_latency));
        let s = m.stats();
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn l1_is_private_per_sm() {
        let mut m = system(2);
        m.access_global(0, 0, &[7], false);
        m.access_global(0, 0, &[7], false);
        let s = m.stats();
        assert_eq!(s.l1_hits, 1, "only SM0's second access hits L1");
    }

    #[test]
    fn stores_do_not_allocate_l1() {
        let mut m = system(1);
        m.access_global(0, 0, &[9], true);
        let t = m.access_global(0, 0, &[9], false);
        let cfg = m.config().clone();
        // Store allocated L2 but not L1, so the load is an L2 hit.
        assert_eq!(t, u64::from(cfg.l1_latency + cfg.l2_latency));
    }

    #[test]
    fn multi_transaction_access_completes_at_last() {
        let mut m = system(1);
        let one = m.access_global(0, 0, &[100], false);
        // 32 cold transactions through shared DRAM channels take longer than 1.
        let lines: Vec<u64> = (200..232).collect();
        let many = m.access_global(0, 0, &lines, false);
        assert!(many >= one);
    }

    #[test]
    fn shared_memory_is_per_sm() {
        let mut m = system(2);
        let a = m.access_shared(0, 0, 32);
        let b = m.access_shared(1, 0, 1);
        assert!(a > b, "SM1's scratchpad is not blocked by SM0's conflicts");
        assert_eq!(m.stats().shared_accesses, 2);
        assert_eq!(m.stats().shared_conflict_cycles, 31);
    }

    #[test]
    fn dram_bandwidth_backpressure() {
        let mut m = system(1);
        // Hammer one channel: lines congruent mod channels go to channel 0.
        let ch = m.config().dram_channels as u64;
        let lines: Vec<u64> = (0..64).map(|i| 1_000_000 + i * ch).collect();
        let first = m.access_global(0, 0, &lines[..1], false);
        let mut m2 = system(1);
        let burst = m2.access_global(0, 0, &lines, false);
        assert!(
            burst >= first + 63 * u64::from(m2.config().dram_service_interval),
            "64 same-channel transactions serialize"
        );
    }
}
