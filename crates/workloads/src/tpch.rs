//! Synthetic TPC-H query workloads (Figs. 15–17 of the paper).
//!
//! The paper runs the 22 TPC-H SQL queries through Spark-RAPIDS on a 100 GB
//! database, in two variants: *uncompressed* raw parquet and *compressed*
//! (snappy) parquet. We model each query as a short pipeline of kernels that
//! reproduces the properties the sub-core mechanisms react to:
//!
//! * a **scan** kernel — streaming, memory-bound, balanced;
//! * a **join/filter** kernel — irregular accesses and *warp-specialized*
//!   imbalance: one long-running warp every 4 warps (the pattern the paper
//!   measured and designed SRR around), with a per-query long-warp factor;
//! * an **aggregate** kernel — compute-bound, balanced.
//!
//! The compressed variant prepends a **snappy-decompression** kernel with
//! extreme warp specialization (the paper reports issue imbalance "on the
//! order of 100×" for this kernel), which is why compressed queries gain
//! more from hashed assignment (SRR +33.1% vs. +17.5% uncompressed).
//!
//! Per-query shape parameters are fixed constants chosen once (they stand in
//! for the real queries' operator mixes); they are *not* fitted per design —
//! every design point sees the same workload.

use crate::spec::{Imbalance, KernelParams, Mix};
use subcore_isa::{App, Suite};

/// Number of TPC-H queries.
pub const NUM_QUERIES: u32 = 22;

/// Per-query workload shape: (long-warp factor of the join kernel,
/// join-kernel weight, scan-kernel weight, agg-kernel weight).
///
/// Weights scale iteration counts; the factor controls inter-warp
/// divergence. Query 8 gets the largest factor (the paper's worst-balance
/// query, baseline CV 1.01); "easy" queries like q1/q6 (scan-heavy
/// aggregations) get small factors.
const QUERY_SHAPE: [(u32, u32, u32, u32); NUM_QUERIES as usize] = [
    // (join_factor, join_w, scan_w, agg_w)            query
    (2, 2, 4, 2), // q1  - scan + aggregate heavy
    (3, 3, 2, 1), // q2  - multi-join
    (3, 3, 3, 1), // q3
    (3, 2, 3, 1), // q4
    (4, 3, 2, 1), // q5  - 6-table join
    (2, 1, 4, 1), // q6  - pure scan/filter
    (3, 3, 2, 1), // q7
    (4, 4, 2, 1), // q8  - worst balance in the paper (CV 1.01)
    (4, 4, 2, 1), // q9  - largest join tree
    (3, 3, 3, 1), // q10
    (3, 2, 2, 1), // q11
    (3, 2, 3, 1), // q12
    (3, 3, 2, 1), // q13
    (3, 2, 3, 1), // q14
    (3, 2, 3, 1), // q15
    (3, 3, 2, 1), // q16
    (4, 3, 2, 1), // q17
    (4, 4, 2, 1), // q18
    (3, 2, 3, 1), // q19
    (3, 3, 2, 1), // q20
    (4, 4, 2, 1), // q21 - heavy exists/anti-join
    (3, 2, 2, 1), // q22
];

/// Long-warp factor of the snappy decompression kernel in the compressed
/// variant. Decompression is highly warp-specialized: a handful of warps do
/// nearly all the work.
const DECOMP_FACTOR: u32 = 24;

/// Builds one TPC-H query app.
///
/// # Panics
///
/// Panics if `query` is not in `1..=22`.
pub fn tpch_query(query: u32, compressed: bool) -> App {
    assert!((1..=NUM_QUERIES).contains(&query), "TPC-H defines queries 1..=22");
    let (factor, join_w, scan_w, agg_w) = QUERY_SHAPE[(query - 1) as usize];
    let suite = if compressed { Suite::TpchCompressed } else { Suite::TpchUncompressed };
    let prefix = if compressed { "tpcC" } else { "tpcU" };
    let seed = u64::from(query) * 7919 + u64::from(compressed);

    let mut kernels = Vec::new();
    if compressed {
        let mut decomp = KernelParams::base(format!("{prefix}-q{query}-snappy"));
        decomp.blocks = 48;
        decomp.warps_per_block = 8;
        decomp.regs_per_thread = 32;
        decomp.reg_span = 16;
        // Snappy decompression is cache-resident byte-shuffling integer
        // work: the few specialized warps issue huge instruction counts.
        decomp.mix = Mix { iadd: 10, fadd: 3, load_stream: 2, store: 1, ..Mix::streaming() };
        decomp.body_len = 16;
        decomp.iters = 6;
        decomp.imbalance = Imbalance::EveryNth { period: 4, factor: DECOMP_FACTOR };
        decomp.seed = seed ^ 0xdec0;
        kernels.push(decomp);
    }

    let mut scan = KernelParams::base(format!("{prefix}-q{query}-scan"));
    scan.blocks = 48;
    scan.warps_per_block = 8;
    scan.regs_per_thread = 24;
    scan.reg_span = 12;
    // Streaming scans: few instructions, each memory-bound (high CPI), so
    // the scan contributes time but few issued instructions.
    scan.mix = Mix { load_stream: 4, iadd: 2, store: 1, fma: 1, ..Mix::streaming() };
    scan.body_len = 8;
    scan.iters = 24 * scan_w;
    scan.seed = seed ^ 0x5ca0;
    kernels.push(scan);

    let mut join = KernelParams::base(format!("{prefix}-q{query}-join"));
    join.blocks = 48;
    join.warps_per_block = 8;
    join.regs_per_thread = 32;
    join.reg_span = 16;
    // Warp-specialized probe loop: the long warps spin on mostly
    // cache-resident integer work (low CPI), so they dominate *issued
    // instructions* (driving the Fig. 17 CV) while the balanced kernels
    // dominate per-instruction latency.
    join.mix = Mix { iadd: 10, fadd: 5, load_irregular: 1, ..Mix::irregular() };
    join.mem.irregular_span = 1 << 6;
    join.body_len = 16;
    join.iters = 4 * join_w;
    join.imbalance = Imbalance::EveryNth { period: 4, factor };
    join.seed = seed ^ 0x101;
    kernels.push(join);

    let mut agg = KernelParams::base(format!("{prefix}-q{query}-agg"));
    agg.blocks = 48;
    agg.warps_per_block = 8;
    agg.regs_per_thread = 24;
    agg.reg_span = 12;
    agg.mix = Mix::compute();
    agg.body_len = 8;
    agg.iters = 48 * agg_w;
    agg.seed = seed ^ 0xa66;
    kernels.push(agg);

    crate::spec::AppParams { name: format!("{prefix}-q{query}"), suite, kernels }.build()
}

/// Builds the query called `name` (`tpcU-q8`, `tpcC-q9`, ...); `None`
/// for anything [`tpch_suite`] does not yield under exactly that name.
pub(crate) fn tpch_by_name(name: &str) -> Option<App> {
    let (compressed, number) = match (name.strip_prefix("tpcU-q"), name.strip_prefix("tpcC-q")) {
        (Some(n), _) => (false, n),
        (_, Some(n)) => (true, n),
        _ => return None,
    };
    let query: u32 = number.parse().ok()?;
    // Round trip: `parse` also takes `+8` and `08`, which no app is called.
    ((1..=NUM_QUERIES).contains(&query) && number == query.to_string())
        .then(|| tpch_query(query, compressed))
}

/// All 22 queries of one variant.
pub fn tpch_suite(compressed: bool) -> Vec<App> {
    (1..=NUM_QUERIES).map(|q| tpch_query(q, compressed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_22_queries() {
        assert_eq!(tpch_suite(false).len(), 22);
        assert_eq!(tpch_suite(true).len(), 22);
    }

    #[test]
    fn names_match_table_iii_style() {
        let q8 = tpch_query(8, false);
        assert_eq!(q8.name(), "tpcU-q8");
        assert_eq!(q8.suite(), Suite::TpchUncompressed);
        let q9 = tpch_query(9, true);
        assert_eq!(q9.name(), "tpcC-q9");
        assert_eq!(q9.suite(), Suite::TpchCompressed);
    }

    #[test]
    fn compressed_adds_decompression_kernel() {
        let u = tpch_query(5, false);
        let c = tpch_query(5, true);
        assert_eq!(c.kernels().len(), u.kernels().len() + 1);
        assert!(c.kernels()[0].name().contains("snappy"));
    }

    #[test]
    fn join_kernels_are_warp_specialized() {
        let q = tpch_query(8, false);
        let join = q
            .kernels()
            .iter()
            .find(|k| k.name().contains("join"))
            .expect("every query has a join kernel");
        let long = join.program(0).dynamic_len();
        let short = join.program(1).dynamic_len();
        assert!(long >= 3 * short, "q8 long warps ≈ 4× short: {long} vs {short}");
        // One long warp every 4: warp 4 is long, warps 5-7 short.
        assert_eq!(join.program(4).dynamic_len(), long);
        assert_eq!(join.program(7).dynamic_len(), short);
    }

    #[test]
    #[should_panic(expected = "queries 1..=22")]
    fn query_zero_rejected() {
        let _ = tpch_query(0, false);
    }

    #[test]
    fn q8_has_the_largest_factor() {
        let max = QUERY_SHAPE.iter().map(|s| s.0).max().unwrap();
        assert_eq!(QUERY_SHAPE[7].0, max);
    }

    #[test]
    fn queries_are_deterministic() {
        let a = tpch_query(3, true);
        let b = tpch_query(3, true);
        assert_eq!(a.total_dynamic_instructions(), b.total_dynamic_instructions());
    }
}
