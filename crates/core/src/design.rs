//! Named design points evaluated in the paper, each mapping to a
//! `(GpuConfig, Policies)` pair.

use crate::{RbaSelector, ShuffleAssigner, ShuffleMode, SkewedRoundRobinAssigner};
use subcore_engine::{Connectivity, GpuConfig, GtoSelector, Policies, RoundRobinAssigner};

/// A design point from the paper's evaluation (Figs. 9–18).
///
/// Every design is expressed as a transformation of a baseline
/// [`GpuConfig`] plus a [`Policies`] pair, so experiments sweep designs
/// uniformly:
///
/// ```
/// use subcore_engine::{simulate, GpuConfig, Workload};
/// use subcore_isa::{fma_kernel, App, Suite};
/// use subcore_sched::Design;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = GpuConfig::volta_v100().with_sms(1);
/// let app = App::new("k", Suite::Micro, vec![fma_kernel("k", 4, 8, 32)]);
/// for design in Design::FIGURE9 {
///     let stats = simulate(&design.config(&base), &design.policies(),
///                          Workload::App(&app), Vec::new())?;
///     println!("{:12} {:>8} cycles", design.label(), stats.cycles);
/// }
/// # Ok(())
/// # }
/// ```
/// The behavioural identity of a design's `(selector, assigner)` pair —
/// see [`Design::policy_class`].
///
/// Names match what the corresponding policy objects report from their
/// `name()` methods, so the class is checkable against the live policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyClass {
    /// Warp-selector name (`"gto"` or `"rba"`).
    pub selector: &'static str,
    /// Operand-collector assigner name (`"rr"`, `"srr"`, `"shuffle"`, or
    /// `"shuffle-table"`).
    pub assigner: &'static str,
    /// Assigner parameter (hash-table entries) when the assigner takes one.
    pub assigner_param: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// GTO warp scheduling + round-robin assignment on the partitioned SM —
    /// the normalization baseline of every figure.
    Baseline,
    /// Register-Bank-Aware warp scheduling (+ round-robin assignment).
    Rba,
    /// GTO + Skewed-Round-Robin hashed assignment.
    Srr,
    /// GTO + Random-Shuffle hashed assignment (fresh permutation stream).
    Shuffle,
    /// GTO + Random-Shuffle through a fixed hash table with the given
    /// number of entries — the literal Fig. 7 hardware (§IV-B3 compares
    /// 4 vs. 16 entries).
    ShuffleTable(u32),
    /// The combined design: RBA scheduling + Shuffle assignment.
    ShuffleRba,
    /// RBA scheduling + SRR assignment.
    SrrRba,
    /// The hypothetical fully-connected monolithic SM (Fig. 1).
    FullyConnected,
    /// RBA scheduling on top of the fully-connected SM (Fig. 11).
    FcRba,
    /// Baseline with `n` collector units per sub-core (Fig. 12 sweeps
    /// 4/8/16; 2 is the baseline).
    CuScaling(u32),
    /// The register bank-stealing baseline of Jing et al. \[36\] (Fig. 10).
    BankStealing,
    /// RBA with the given score-update latency in cycles (§VI-B4).
    RbaLatency(u32),
    /// RBA with the given number of register banks per sub-core (§VI-B5).
    RbaBanks(u32),
    /// GTO baseline with the given number of register banks per sub-core
    /// (the normalization baseline of the §VI-B5 bank-scaling study).
    Banks(u32),
}

impl Design {
    /// The designs plotted in Fig. 9 (all applications).
    pub const FIGURE9: [Design; 4] =
        [Design::Rba, Design::Shuffle, Design::ShuffleRba, Design::FullyConnected];

    /// The designs plotted in Fig. 10 (partitioning-sensitive subset).
    pub const FIGURE10: [Design; 7] = [
        Design::Rba,
        Design::Srr,
        Design::Shuffle,
        Design::ShuffleRba,
        Design::FullyConnected,
        Design::CuScaling(4),
        Design::BankStealing,
    ];

    /// The designs plotted in Figs. 15/16 (TPC-H).
    pub const TPCH_SET: [Design; 5] =
        [Design::Rba, Design::Srr, Design::Shuffle, Design::ShuffleRba, Design::FullyConnected];

    /// Derives this design's configuration from a baseline config.
    pub fn config(&self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        match *self {
            Design::FullyConnected | Design::FcRba => {
                cfg.connectivity = Connectivity::FullyConnected;
            }
            Design::CuScaling(n) => cfg.cus_per_subcore = n,
            Design::BankStealing => cfg.bank_stealing = true,
            Design::RbaLatency(l) => cfg.score_update_latency = l,
            Design::RbaBanks(b) | Design::Banks(b) => cfg.rf_banks_per_subcore = b,
            _ => {}
        }
        cfg
    }

    /// Whether this design schedules warps with the RBA selector (as opposed
    /// to plain GTO).
    fn uses_rba_selector(&self) -> bool {
        matches!(
            self,
            Design::Rba
                | Design::ShuffleRba
                | Design::SrrRba
                | Design::FcRba
                | Design::RbaLatency(_)
                | Design::RbaBanks(_)
        )
    }

    /// The behavioural identity of this design's policies.
    ///
    /// Two designs with equal [`PolicyClass`] and equal derived
    /// [`Design::config`] simulate identically, even when the `Design`
    /// variants differ (e.g. `Banks(2)` is the `Baseline` under a 2-bank
    /// base config). The experiment session uses this, not the variant
    /// itself, to fingerprint simulations.
    pub fn policy_class(&self) -> PolicyClass {
        let selector = if self.uses_rba_selector() { "rba" } else { "gto" };
        let (assigner, assigner_param) = match *self {
            Design::Srr | Design::SrrRba => ("srr", None),
            Design::Shuffle | Design::ShuffleRba => ("shuffle", None),
            Design::ShuffleTable(entries) => ("shuffle-table", Some(entries)),
            _ => ("rr", None),
        };
        PolicyClass { selector, assigner, assigner_param }
    }

    /// Builds this design's scheduling policies.
    pub fn policies(&self) -> Policies {
        let selector: Box<subcore_engine::SelectorFactory> = if self.uses_rba_selector() {
            Box::new(|| Box::new(RbaSelector::new()))
        } else {
            Box::new(|| Box::new(GtoSelector::new()))
        };
        let assigner: Box<subcore_engine::AssignerFactory> = match self {
            Design::Srr | Design::SrrRba => Box::new(|_| Box::new(SkewedRoundRobinAssigner::new())),
            Design::Shuffle | Design::ShuffleRba => {
                Box::new(|sm| Box::new(ShuffleAssigner::with_seed(0xA11CE + u64::from(sm))))
            }
            Design::ShuffleTable(entries) => {
                let entries = *entries;
                Box::new(move |sm| {
                    Box::new(ShuffleAssigner::new(
                        ShuffleMode::Table { entries },
                        0xA11CE + u64::from(sm),
                    ))
                })
            }
            _ => Box::new(|_| Box::new(RoundRobinAssigner::new())),
        };
        Policies::new(selector, assigner)
    }

    /// Short label used in report rows (matches the paper's legends).
    pub fn label(&self) -> String {
        match *self {
            Design::Baseline => "baseline".into(),
            Design::Rba => "rba".into(),
            Design::Srr => "srr".into(),
            Design::Shuffle => "shuffle".into(),
            Design::ShuffleTable(e) => format!("shuffle-table{e}"),
            Design::ShuffleRba => "shuffle+rba".into(),
            Design::SrrRba => "srr+rba".into(),
            Design::FullyConnected => "fully-connected".into(),
            Design::FcRba => "fc+rba".into(),
            Design::CuScaling(n) => format!("{n}cu"),
            Design::BankStealing => "bank-stealing".into(),
            Design::RbaLatency(l) => format!("rba-lat{l}"),
            Design::RbaBanks(b) => format!("rba-{b}banks"),
            Design::Banks(b) => format!("gto-{b}banks"),
        }
    }

    /// Parses a [`Design::label`] back into its design — the one reader of
    /// the label grammar (`repro --design`, served job specs). Returns
    /// `None` for unknown labels and for `shuffle-table0`, a table the
    /// assigner cannot build.
    pub fn from_label(label: &str) -> Option<Design> {
        let fixed = [
            Design::Baseline,
            Design::Rba,
            Design::Srr,
            Design::Shuffle,
            Design::ShuffleRba,
            Design::SrrRba,
            Design::FullyConnected,
            Design::FcRba,
            Design::BankStealing,
        ];
        if let Some(&d) = fixed.iter().find(|d| d.label() == label) {
            return Some(d);
        }
        let param = |prefix: &str, suffix: &str| {
            label.strip_prefix(prefix)?.strip_suffix(suffix)?.parse::<u32>().ok()
        };
        param("shuffle-table", "")
            .filter(|&e| e > 0)
            .map(Design::ShuffleTable)
            .or_else(|| param("rba-lat", "").map(Design::RbaLatency))
            .or_else(|| param("rba-", "banks").map(Design::RbaBanks))
            .or_else(|| param("gto-", "banks").map(Design::Banks))
            .or_else(|| param("", "cu").map(Design::CuScaling))
    }
}

impl std::str::FromStr for Design {
    type Err = String;

    fn from_str(label: &str) -> Result<Design, String> {
        Design::from_label(label).ok_or_else(|| format!("unknown design `{label}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_transformations() {
        let base = GpuConfig::volta_v100();
        assert_eq!(Design::Baseline.config(&base), base);
        assert_eq!(Design::FullyConnected.config(&base).connectivity, Connectivity::FullyConnected);
        assert_eq!(Design::CuScaling(8).config(&base).cus_per_subcore, 8);
        assert!(Design::BankStealing.config(&base).bank_stealing);
        assert_eq!(Design::RbaLatency(20).config(&base).score_update_latency, 20);
        assert_eq!(Design::RbaBanks(4).config(&base).rf_banks_per_subcore, 4);
    }

    #[test]
    fn policies_pick_the_right_selector() {
        assert_eq!((Design::Rba.policies().selector)().name(), "rba");
        assert_eq!((Design::Baseline.policies().selector)().name(), "gto");
        assert_eq!((Design::ShuffleRba.policies().selector)().name(), "rba");
        assert_eq!((Design::Shuffle.policies().selector)().name(), "gto");
        assert_eq!((Design::FcRba.policies().selector)().name(), "rba");
    }

    #[test]
    fn policies_pick_the_right_assigner() {
        assert_eq!((Design::Srr.policies().assigner)(0).name(), "srr");
        assert_eq!((Design::Shuffle.policies().assigner)(0).name(), "shuffle");
        assert_eq!((Design::Rba.policies().assigner)(0).name(), "rr");
        assert_eq!((Design::FullyConnected.policies().assigner)(0).name(), "rr");
    }

    #[test]
    fn shuffle_seeds_differ_per_sm() {
        let p = Design::Shuffle.policies();
        let mut a = (p.assigner)(0);
        let mut b = (p.assigner)(1);
        // Over 64 warps, distinct seeds almost surely produce distinct plans.
        assert_ne!(a.assign_block(64, 4), b.assign_block(64, 4));
    }

    #[test]
    fn policy_class_agrees_with_live_policies() {
        let designs = [
            Design::Baseline,
            Design::Rba,
            Design::Srr,
            Design::Shuffle,
            Design::ShuffleTable(4),
            Design::ShuffleRba,
            Design::SrrRba,
            Design::FullyConnected,
            Design::FcRba,
            Design::CuScaling(4),
            Design::BankStealing,
            Design::RbaLatency(8),
            Design::RbaBanks(4),
            Design::Banks(2),
        ];
        for d in designs {
            let class = d.policy_class();
            let p = d.policies();
            assert_eq!(class.selector, (p.selector)().name(), "{d:?}");
            let live_assigner = (p.assigner)(0).name();
            assert_eq!(class.assigner, live_assigner, "{d:?}");
            assert_eq!(class.assigner_param.is_some(), d == Design::ShuffleTable(4), "{d:?}");
        }
    }

    #[test]
    fn policy_class_identifies_behavioural_twins() {
        // Banks(n) only changes the config, so its policies are Baseline's.
        assert_eq!(Design::Banks(2).policy_class(), Design::Baseline.policy_class());
        assert_eq!(Design::CuScaling(4).policy_class(), Design::Baseline.policy_class());
        // ...while table sizes stay distinct.
        assert_ne!(Design::ShuffleTable(4).policy_class(), Design::ShuffleTable(16).policy_class());
        assert_ne!(Design::Shuffle.policy_class(), Design::ShuffleTable(4).policy_class());
    }

    #[test]
    fn every_label_parses_back_to_its_design() {
        let designs = [
            Design::Baseline,
            Design::Rba,
            Design::Srr,
            Design::Shuffle,
            Design::ShuffleTable(16),
            Design::ShuffleRba,
            Design::SrrRba,
            Design::FullyConnected,
            Design::FcRba,
            Design::CuScaling(8),
            Design::BankStealing,
            Design::RbaLatency(12),
            Design::RbaLatency(0),
            Design::RbaBanks(4),
            Design::Banks(4),
            Design::Banks(33),
        ];
        for d in designs {
            assert_eq!(Design::from_label(&d.label()), Some(d), "label {}", d.label());
            assert_eq!(d.label().parse::<Design>(), Ok(d));
        }
        for bad in ["nonsense", "xxcu", "cu", "rba-banks", "gto-xbanks", "shuffle-table0", ""] {
            assert_eq!(Design::from_label(bad), None, "{bad}");
        }
        assert_eq!("nope".parse::<Design>(), Err("unknown design `nope`".to_owned()));
    }

    #[test]
    fn labels_are_unique_across_paper_sets() {
        let mut labels: Vec<String> = Design::FIGURE10.iter().map(|d| d.label()).collect();
        labels.push(Design::Baseline.label());
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
