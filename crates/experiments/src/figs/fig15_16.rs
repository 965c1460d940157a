//! Figs. 15 & 16: per-query TPC-H speedups (compressed and uncompressed
//! databases), normalized to GTO + round-robin.
//!
//! The paper: SRR / Shuffle average +33.1 % / +27.4 % on the compressed
//! suite (its snappy decompression kernel is extremely warp-specialized)
//! and +17.5 % / +13.9 % uncompressed, and SRR wins every query, with
//! Shuffle within a few percent, since its hash matches the
//! 1-long-warp-in-4 pattern. This tree measures +28.7 % / +22.3 % and
//! +16.8 % / +9.3 %. SRR wins all 22 uncompressed queries but not every
//! compressed one: Shuffle beats it on tpcC-q6 (1.155 vs 1.140), q10
//! (1.040 vs 0.864) and q15 (1.430 vs 1.246), and SRR slows q10 down.

use crate::report::Table;
use crate::runner::tpch_base;
use crate::sweep::speedup_table;
use subcore_sched::Design;
use subcore_workloads::tpch_suite;

/// Runs one variant (Fig. 15 = compressed, Fig. 16 = uncompressed).
pub fn run(compressed: bool) -> Table {
    let (name, title) = if compressed {
        ("fig15_tpch_compressed", "Compressed TPC-H speedup over GTO+RR")
    } else {
        ("fig16_tpch_uncompressed", "Uncompressed TPC-H speedup over GTO+RR")
    };
    speedup_table(name, title, &tpch_base(), &tpch_suite(compressed), &Design::TPCH_SET)
}
