//! Microbenchmarks of the simulator's building blocks.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use subcore_engine::{
    GtoSelector, IssueCandidate, IssueView, RoundRobinAssigner, Scoreboard, SubcoreAssigner,
    WarpSelector,
};
use subcore_isa::{fma_kernel, MemPattern, Pipeline, ProgramBuilder, Reg};
use subcore_mem::{coalesce, Cache, DramChannel, MemConfig, MemSystem, StreamCtx};
use subcore_sched::{RbaSelector, ShuffleAssigner, SkewedRoundRobinAssigner};

fn cache_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_cache");
    g.bench_function("l1-hit-stream", |b| {
        let mut cache = Cache::new(128, 8);
        for l in 0..1024u64 {
            cache.access(l, true);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(cache.access(i, true))
        })
    });
    g.bench_function("miss-stream", |b| {
        let mut cache = Cache::new(128, 8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cache.access(i, true))
        })
    });
    g.finish();
}

fn coalescer(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_coalescer");
    let ctx = StreamCtx { stream_id: 3, dynamic_index: 99 };
    let mut out = Vec::with_capacity(32);
    g.bench_function("coalesced", |b| {
        b.iter(|| {
            out.clear();
            coalesce(MemPattern::Coalesced { region: 1, step: 128 }, ctx, 128, &mut out)
        })
    });
    g.bench_function("strided-32", |b| {
        b.iter(|| {
            out.clear();
            coalesce(MemPattern::Strided { region: 1, stride: 32 }, ctx, 128, &mut out)
        })
    });
    g.bench_function("irregular", |b| {
        b.iter(|| {
            out.clear();
            coalesce(MemPattern::Irregular { region: 1, span_lines: 1 << 14 }, ctx, 128, &mut out)
        })
    });
    g.finish();
}

fn mem_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_mem_system");
    g.bench_function("global-access", |b| {
        let mut mem = MemSystem::new(MemConfig::volta_like(), 1);
        let mut now = 0u64;
        let mut line = 0u64;
        b.iter(|| {
            now += 1;
            line += 1;
            black_box(mem.access_global(0, now, &[line % 4096], false))
        })
    });
    g.bench_function("dram-channel", |b| {
        let mut ch = DramChannel::new(4, 160);
        let mut now = 0u64;
        b.iter(|| {
            now += 2;
            black_box(ch.access(now))
        })
    });
    g.finish();
}

fn scoreboard(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_scoreboard");
    g.bench_function("set-check-clear", |b| {
        let mut sb = Scoreboard::new();
        let mut hazards = Scoreboard::new();
        [Reg(3), Reg(17), Reg(4)].into_iter().for_each(|r| hazards.set(r));
        b.iter(|| {
            sb.set(Reg(17));
            let blocked = sb.intersects(black_box(&hazards));
            sb.clear(Reg(17));
            black_box(blocked)
        })
    });
    g.finish();
}

fn selectors(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_selectors");
    let candidates: Vec<IssueCandidate> = (0..16)
        .map(|i| IssueCandidate {
            warp_slot: i,
            age: u64::from(i),
            num_srcs: 3,
            banks: [(i % 2) as u8, ((i + 1) % 2) as u8, (i % 2) as u8],
            pipeline: Pipeline::Fma,
        })
        .collect();
    let lens = [3u16, 1];
    g.bench_function("gto", |b| {
        let mut s = GtoSelector::new();
        b.iter(|| {
            let view =
                IssueView { candidates: &candidates, bank_queue_lens: &lens, last_issued: None };
            black_box(s.select(&view))
        })
    });
    g.bench_function("rba", |b| {
        let mut s = RbaSelector::new();
        b.iter(|| {
            let view =
                IssueView { candidates: &candidates, bank_queue_lens: &lens, last_issued: None };
            black_box(s.select(&view))
        })
    });
    g.finish();
}

fn assigners(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_assigners");
    g.bench_function("round-robin", |b| {
        let mut a = RoundRobinAssigner::new();
        b.iter(|| black_box(a.assign_block(16, 4)))
    });
    g.bench_function("srr", |b| {
        let mut a = SkewedRoundRobinAssigner::new();
        b.iter(|| black_box(a.assign_block(16, 4)))
    });
    g.bench_function("shuffle", |b| {
        let mut a = ShuffleAssigner::with_seed(7);
        b.iter(|| black_box(a.assign_block(16, 4)))
    });
    g.finish();
}

fn trace_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("component_trace");
    let program = ProgramBuilder::new()
        .repeat(4096, |b| {
            b.fma(Reg(0), Reg(0), Reg(1), Reg(2));
        })
        .build();
    g.bench_function("cursor-4096-fma", |b| {
        b.iter(|| {
            let mut cur = program.cursor();
            let mut n = 0u64;
            while cur.next_instruction().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.bench_function("kernel-build", |b| {
        b.iter(|| black_box(fma_kernel("bench", 8, 8, 128)).total_dynamic_instructions())
    });
    g.finish();
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = components;
    config = criterion_config();
    targets = cache_access, coalescer, mem_system, scoreboard, selectors, assigners, trace_replay
}
criterion_main!(components);
