//! The non-TPC-H application registry: 68 synthetic apps across Parboil,
//! Rodinia, cuGraph, Polybench, DeepBench, and CUTLASS.
//!
//! Each entry stands in for the real benchmark named in the paper's
//! Table III, with its generation parameters chosen to match the
//! characterization the paper gives:
//!
//! * **cuGraph** — register-intensive instruction streams that reuse a
//!   *small* set of registers (the paper: "access a limited number of
//!   registers repeatedly"), plus irregular gathers → RBA-friendly,
//!   fully-connected-unfriendly;
//! * **Parboil mriq/mrig, Rodinia bp/srad/lavaMD, Polybench conv** —
//!   read-operand-stage-bound mixes (multi-pipeline, register-heavy) →
//!   sensitive to bank conflicts and collector-unit count;
//! * **CUTLASS / DeepBench** — tensor/FMA-dominated tiled kernels with
//!   shared-memory traffic;
//! * the rest — streaming, shared-tiled, FP64, or irregular mixes that are
//!   mostly *insensitive* to partitioning (they anchor the "no improvement,
//!   no degradation" half of Figs. 9/10).

use crate::spec::{AppParams, Imbalance, KernelParams, MemShape, Mix};
use subcore_isa::{App, Suite};

/// Broad behaviour class of a synthetic app; maps to mix + memory shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Dense FMA compute.
    Compute,
    /// Multi-pipeline register-bound (read-operand-stage limited).
    RegBound,
    /// Register-intensive with small register reuse set + irregular loads.
    GraphReg,
    /// Streaming memory-bound.
    Stream,
    /// Shared-memory tiled.
    SharedTiled,
    /// FP64-heavy HPC.
    Fp64,
    /// Tensor-core dominated.
    Tensor,
    /// Irregular pointer chasing.
    Irregular,
    /// SFU/transcendental heavy.
    Sfu,
}

/// One registry row: name, class, relative size, reg span override,
/// imbalance.
struct Row {
    name: &'static str,
    class: Class,
    /// Iteration-count multiplier (app "size").
    size: u32,
    /// Register working-set span (0 = class default).
    span: u8,
    imbalance: Imbalance,
}

const fn row(name: &'static str, class: Class, size: u32, span: u8) -> Row {
    Row { name, class, size, span, imbalance: Imbalance::None }
}

const fn row_imb(
    name: &'static str,
    class: Class,
    size: u32,
    span: u8,
    period: u32,
    factor: u32,
) -> Row {
    Row { name, class, size, span, imbalance: Imbalance::EveryNth { period, factor } }
}

const PARBOIL: &[Row] = &[
    row("pb-mriq", Class::RegBound, 3, 10),
    row("pb-mrig", Class::RegBound, 3, 8),
    row("pb-sad", Class::Stream, 2, 10),
    row("pb-sgemm", Class::Compute, 3, 16),
    row("pb-cutcp", Class::Sfu, 2, 12),
    row("pb-stencil", Class::SharedTiled, 2, 12),
    row("pb-spmv", Class::Irregular, 2, 10),
    row("pb-histo", Class::SharedTiled, 2, 10),
    row("pb-lbm", Class::Fp64, 2, 12),
    row("pb-tpacf", Class::Sfu, 2, 12),
];

const RODINIA: &[Row] = &[
    row("rod-lavaMD", Class::RegBound, 3, 10),
    row("rod-bp", Class::RegBound, 2, 8),
    row("rod-srad", Class::RegBound, 3, 10),
    row("rod-htsp", Class::SharedTiled, 2, 12),
    row("rod-bfs", Class::Irregular, 2, 8),
    row("rod-cfd", Class::Fp64, 2, 14),
    row("rod-gaussian", Class::Compute, 2, 12),
    row_imb("rod-heartwall", Class::RegBound, 2, 10, 8, 3),
    row("rod-kmeans", Class::Stream, 2, 10),
    row("rod-lud", Class::SharedTiled, 2, 12),
    row("rod-nn", Class::Stream, 1, 8),
    row_imb("rod-nw", Class::SharedTiled, 2, 10, 8, 2),
    row("rod-pf", Class::Sfu, 2, 10),
    row("rod-sc", Class::Stream, 2, 10),
    row("rod-btree", Class::Irregular, 2, 8),
    row("rod-dwt", Class::Compute, 2, 12),
];

const CUGRAPH: &[Row] = &[
    row("cg-lou", Class::GraphReg, 3, 10),
    row("cg-bfs", Class::GraphReg, 2, 10),
    row("cg-sssp", Class::GraphReg, 2, 10),
    row("cg-pgrnk", Class::GraphReg, 3, 10),
    row("cg-wcc", Class::GraphReg, 2, 10),
    row("cg-katz", Class::GraphReg, 2, 10),
    row("cg-hits", Class::GraphReg, 2, 10),
    row("cg-jaccard", Class::GraphReg, 2, 10),
    row("cg-tri", Class::GraphReg, 2, 10),
    row("cg-core", Class::GraphReg, 2, 10),
    row("cg-leiden", Class::GraphReg, 3, 10),
    row("cg-ecg", Class::GraphReg, 2, 10),
];

const POLYBENCH: &[Row] = &[
    row("ply-2Dcon", Class::RegBound, 3, 10),
    row("ply-3Dcon", Class::RegBound, 3, 10),
    row("ply-atax", Class::Stream, 2, 10),
    row("ply-bicg", Class::Stream, 2, 10),
    row("ply-gemm", Class::Compute, 3, 16),
    row("ply-gesummv", Class::Stream, 2, 10),
    row("ply-mvt", Class::Stream, 2, 10),
    row("ply-syr2k", Class::Compute, 3, 14),
    row("ply-syrk", Class::Compute, 2, 14),
    row("ply-corr", Class::RegBound, 2, 8),
    row("ply-cov", Class::RegBound, 2, 8),
    row("ply-fdtd", Class::SharedTiled, 2, 12),
    row("ply-adi", Class::Stream, 2, 12),
    row("ply-3mm", Class::Compute, 3, 16),
];

const DEEPBENCH: &[Row] = &[
    row("db-conv-tr", Class::Tensor, 3, 14),
    row("db-conv-inf", Class::Tensor, 2, 12),
    row_imb("db-rnn-tr", Class::RegBound, 3, 10, 8, 3),
    row_imb("db-rnn-inf", Class::RegBound, 2, 8, 8, 3),
    row("db-gemm-tr", Class::Tensor, 3, 14),
    row("db-gemm-inf", Class::Tensor, 2, 12),
    row("db-lstm-tr", Class::RegBound, 3, 10),
    row("db-lstm-inf", Class::RegBound, 2, 8),
];

const CUTLASS: &[Row] = &[
    row("cutlass-512", Class::Tensor, 1, 12),
    row("cutlass-1024", Class::Tensor, 2, 12),
    row("cutlass-2048", Class::Tensor, 2, 14),
    row("cutlass-4096", Class::Tensor, 3, 14),
    row("cutlass-conv-512", Class::SharedTiled, 1, 12),
    row("cutlass-conv-1024", Class::SharedTiled, 2, 12),
    row("cutlass-conv-2048", Class::SharedTiled, 2, 14),
    row("cutlass-conv-4096", Class::SharedTiled, 3, 14),
];

fn class_params(class: Class, p: &mut KernelParams) {
    match class {
        Class::Compute => {
            p.mix = Mix::compute();
        }
        Class::RegBound => {
            // Long unrolled bodies over a small, asymmetric register
            // working set: the read-operand-stage-bound shape where
            // bank-aware issue has real choices (§VI-B3).
            p.mix = Mix::register_bound();
            p.body_len = 16;
            p.structured_banks = true;
        }
        Class::GraphReg => {
            // The register-bound "update" phase of a graph kernel: heavy
            // reuse of a small register set (the paper's cuGraph
            // characterization); the memory-bound gather phase is a
            // separate kernel (see `build_row`).
            p.mix = Mix::register_bound();
            p.body_len = 16;
            p.structured_banks = true;
        }
        Class::Stream => {
            p.mix = Mix::streaming();
        }
        Class::SharedTiled => {
            p.mix = Mix::shared_tiled();
            p.shared_mem_bytes = 8 * 1024;
            p.mem.shared_conflict = 2;
        }
        Class::Fp64 => {
            p.mix = Mix { fp64: 5, iadd: 2, load_stream: 2, ..Mix { ..Mix::compute() } };
        }
        Class::Tensor => {
            p.mix = Mix { tensor: 4, fma: 2, iadd: 1, load_shared: 2, ..Mix::compute() };
            p.shared_mem_bytes = 16 * 1024;
        }
        Class::Irregular => {
            p.mix = Mix::irregular();
            p.mem.irregular_span = 1 << 17;
        }
        Class::Sfu => {
            p.mix = Mix { sfu: 3, fma: 3, iadd: 2, ..Mix::compute() };
        }
    }
}

fn suite_discriminant(suite: Suite) -> u64 {
    match suite {
        Suite::Parboil => 1,
        Suite::Rodinia => 2,
        Suite::CuGraph => 3,
        Suite::Polybench => 4,
        Suite::Deepbench => 5,
        Suite::Cutlass => 6,
        _ => 7,
    }
}

fn build_row(row: &Row, suite: Suite, index: u64) -> App {
    let mut p = KernelParams::base(format!("{}-k0", row.name));
    p.blocks = 10;
    p.warps_per_block = 16;
    p.regs_per_thread = 32;
    p.body_len = 8;
    p.iters = 24 * row.size;
    p.imbalance = row.imbalance;
    p.seed =
        0x5117e5 ^ (index + (suite_discriminant(suite) << 8)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    class_params(row.class, &mut p);
    if row.span >= 4 {
        p.reg_span = row.span;
    }
    if row.class == Class::GraphReg {
        // Graph analytics alternate a short memory-bound gather phase with
        // the register-bound update phase modeled by `p`.
        let mut gather = KernelParams::base(format!("{}-gather", row.name));
        gather.blocks = 10;
        gather.warps_per_block = 16;
        gather.regs_per_thread = 32;
        gather.reg_span = 12;
        gather.body_len = 8;
        gather.iters = 4 * row.size;
        gather.mix = Mix::irregular();
        gather.mem = MemShape { irregular_span: 1 << 14, ..MemShape::default() };
        gather.seed = p.seed ^ 0x6a7;
        p.name = format!("{}-update", row.name);
        return AppParams { name: row.name.to_owned(), suite, kernels: vec![gather, p] }.build();
    }
    AppParams::single(row.name, suite, p).build()
}

/// The six suites built from row tables, in registry order.
pub(crate) const ROW_SUITES: [Suite; 6] = [
    Suite::Parboil,
    Suite::Cutlass,
    Suite::Rodinia,
    Suite::CuGraph,
    Suite::Polybench,
    Suite::Deepbench,
];

fn suite_rows(suite: Suite) -> &'static [Row] {
    match suite {
        Suite::Parboil => PARBOIL,
        Suite::Rodinia => RODINIA,
        Suite::CuGraph => CUGRAPH,
        Suite::Polybench => POLYBENCH,
        Suite::Deepbench => DEEPBENCH,
        Suite::Cutlass => CUTLASS,
        _ => &[],
    }
}

/// Builds all apps of one (non-TPC-H) suite.
pub fn suite_apps(suite: Suite) -> Vec<App> {
    suite_rows(suite).iter().enumerate().map(|(i, r)| build_row(r, suite, i as u64 + 1)).collect()
}

/// Builds the one (non-TPC-H) app called `name` — the same app, seed
/// index included, that [`suite_apps`] yields for its row.
pub(crate) fn suite_app_by_name(name: &str) -> Option<App> {
    ROW_SUITES.iter().find_map(|&suite| {
        let rows = suite_rows(suite);
        let i = rows.iter().position(|r| r.name == name)?;
        Some(build_row(&rows[i], suite, i as u64 + 1))
    })
}

/// Names of every app in a (non-TPC-H) suite.
pub fn suite_names(suite: Suite) -> Vec<&'static str> {
    suite_rows(suite).iter().map(|r| r.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_sum_to_68() {
        let total: usize = [
            Suite::Parboil,
            Suite::Rodinia,
            Suite::CuGraph,
            Suite::Polybench,
            Suite::Deepbench,
            Suite::Cutlass,
        ]
        .iter()
        .map(|&s| suite_apps(s).len())
        .sum();
        assert_eq!(total, 68);
    }

    #[test]
    fn table_iii_apps_present() {
        for (suite, name) in [
            (Suite::Parboil, "pb-mriq"),
            (Suite::Parboil, "pb-sgemm"),
            (Suite::Rodinia, "rod-lavaMD"),
            (Suite::Rodinia, "rod-srad"),
            (Suite::CuGraph, "cg-lou"),
            (Suite::CuGraph, "cg-pgrnk"),
            (Suite::Polybench, "ply-2Dcon"),
            (Suite::Deepbench, "db-conv-tr"),
            (Suite::Cutlass, "cutlass-4096"),
        ] {
            assert!(suite_names(suite).contains(&name), "{name} missing from {suite}");
        }
    }

    #[test]
    fn names_are_globally_unique() {
        let mut all: Vec<&str> = Vec::new();
        for s in [
            Suite::Parboil,
            Suite::Rodinia,
            Suite::CuGraph,
            Suite::Polybench,
            Suite::Deepbench,
            Suite::Cutlass,
        ] {
            all.extend(suite_names(s));
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }

    #[test]
    fn apps_build_and_are_nontrivial() {
        for s in [Suite::Parboil, Suite::CuGraph, Suite::Cutlass] {
            for app in suite_apps(s) {
                assert!(app.total_dynamic_instructions() > 10_000, "{} is too small", app.name());
            }
        }
    }

    #[test]
    fn cugraph_uses_small_register_spans() {
        // The paper's characterization: graph apps reuse few registers.
        for app in suite_apps(Suite::CuGraph) {
            assert!(app.kernels()[0].regs_per_thread() >= 32);
        }
    }

    #[test]
    fn app_names_carry_suite_prefix() {
        for s in [
            Suite::Parboil,
            Suite::Rodinia,
            Suite::CuGraph,
            Suite::Polybench,
            Suite::Deepbench,
            Suite::Cutlass,
        ] {
            for app in suite_apps(s) {
                assert!(
                    app.name().starts_with(s.prefix()),
                    "{} should start with {}",
                    app.name(),
                    s.prefix()
                );
            }
        }
    }
}
