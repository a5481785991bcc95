//! Benchmarks for the `sam-serve` detection service: end-to-end service
//! throughput at several worker counts, and the single-request pipeline
//! cost it amortizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manet_routing::Route;
use manet_sim::NodeId;
use sam::prelude::*;
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn route(ids: &[u32]) -> Route {
    Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
}

fn normal_set(salt: u32) -> Vec<Route> {
    (0..8u32)
        .map(|i| {
            let a = 1 + (salt + i) % 6;
            let b = 8 + (salt + 2 * i) % 5;
            route(&[0, a, b, 15])
        })
        .collect()
}

fn worm_set(salt: u32) -> Vec<Route> {
    (0..8u32)
        .map(|i| {
            let a = 1 + (salt + i) % 6;
            let b = 8 + (salt + 3 * i) % 5;
            route(&[0, a, 20, 21, b, 15])
        })
        .collect()
}

fn profiles() -> ProfileSource {
    Arc::new(|_key: &ProfileKey| {
        let sets: Vec<Vec<Route>> = (0..8).map(normal_set).collect();
        NormalProfile::train(&sets, 20)
    })
}

fn requests(n: u64) -> Vec<DetectionRequest> {
    (0..n)
        .map(|i| DetectionRequest {
            id: i,
            key: ProfileKey::new("bench", "mr"),
            routes: if i % 3 == 0 {
                worm_set((i % 13) as u32)
            } else {
                normal_set((i % 13) as u32)
            },
            probe_ack_ratio: if i % 6 == 0 { Some(0.1) } else { None },
            detector: None,
        })
        .collect()
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    let reqs = requests(512);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("service_512req", workers),
            &workers,
            |b, &workers| {
                let service = DetectionService::start(
                    ServiceConfig {
                        workers,
                        queue_capacity: 1024,
                        max_batch: 32,
                        cache_capacity: 4,
                        ..ServiceConfig::default()
                    },
                    profiles(),
                );
                b.iter(|| {
                    let pending: Vec<Pending> = reqs
                        .iter()
                        .map(|r| {
                            service
                                .submit(r.clone())
                                .expect("queue sized for the batch")
                        })
                        .collect();
                    for p in pending {
                        black_box(p.wait());
                    }
                });
            },
        );
    }

    // The per-request pipeline the service amortizes: the procedure a
    // worker runs for a request naming no detector — `run_procedure` over
    // the registry's `"sam"` entry — against a pre-trained profile.
    let profile = profiles()(&ProfileKey::new("bench", "mr"));
    let registry = DetectorRegistry::with_sam(ServiceConfig::default().detector);
    let sam = registry.get("sam").expect("standard registry entry");
    let procedure = ServiceConfig::default().procedure;
    let attacked = worm_set(3);
    group.bench_function("pipeline_single", |b| {
        b.iter(|| {
            let mut transport = all_ack_transport();
            let input = DetectorInput::new(&attacked, &profile);
            black_box(run_procedure(
                sam.as_ref(),
                &input,
                &procedure,
                &mut transport,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
