//! Hot-path microbenches: the struct-of-arrays event queue under churn,
//! one full RREQ flood on the paper's 6×6 grid, and the
//! `NormalProfile::train` tabulation that hammers the dense link counter.
//!
//! The `hotpath/` keys here mirror the `micro` map `reproduce --bench`
//! writes into `BENCH_repro.json`, which `scripts/perf_gate.sh` gates
//! against `.baseline/`; this bench is the interactive view of the same
//! workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manet_routing::prelude::*;
use manet_sim::event::EventQueue;
use manet_sim::prelude::*;
use sam::prelude::*;
use sam_experiments::microbench::churn;
use std::hint::black_box;
use std::time::Duration;

/// Normal-condition route sets for the tabulation bench: one flood's
/// worth of routes per set, grid topology.
fn training_sets(sets: usize) -> Vec<Vec<Route>> {
    let plan = uniform_grid(6, 6, 1);
    let src = plan.src_pool[0];
    let dst = plan.dst_pool[0];
    (0..sets)
        .map(|run| run_discovery(&plan, ProtocolKind::Mr, src, dst, run as u64).routes)
        .collect()
}

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    // Event-queue churn: a deep backlog of schedules and pops.
    const OPS: u64 = 100_000;
    group.bench_with_input(BenchmarkId::new("queue_churn", "soa"), &OPS, |b, &ops| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            black_box(churn(&mut q, ops))
        })
    });

    // One full MR flood on the 6×6 grid — the engine + routing hot loop
    // end to end.
    let plan = uniform_grid(6, 6, 1);
    let src = plan.src_pool[0];
    let dst = plan.dst_pool[0];
    group.bench_function("flood_grid6x6", |b| {
        b.iter(|| black_box(run_discovery(&plan, ProtocolKind::Mr, src, dst, 7)))
    });

    // NormalProfile::train over captured route sets — LinkStats
    // tabulation (the dense LinkMap) dominates.
    let sets = training_sets(30);
    group.bench_function("profile_train", |b| {
        b.iter(|| black_box(NormalProfile::train(&sets, 10)))
    });

    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
