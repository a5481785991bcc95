//! In-process hot-path microbenches for `reproduce --bench`.
//!
//! The three workloads mirror `crates/bench/benches/hotpath.rs` (the
//! interactive Criterion view of the same paths): event-queue churn,
//! one full RREQ flood on the paper's 6×6 grid, and
//! [`NormalProfile::train`] tabulation. Each is reported as a
//! *throughput* (per-second) figure into the `micro` map of
//! `BENCH_repro.json`, so `scripts/perf_gate.sh` can gate every key in
//! the same higher-is-better direction as the end-to-end numbers.

use manet_routing::prelude::*;
use manet_sim::event::{EventKind, EventQueue};
use manet_sim::prelude::*;
use manet_sim::time::SimTime;
use sam::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic (time, key) workload shared with the Criterion bench
/// (`crates/bench/benches/hotpath.rs`): a sawtooth of bursts and drains
/// that keeps a deep backlog, like a flood wavefront does. Returns a
/// checksum of the popped events.
pub fn churn(queue: &mut EventQueue<u64>, ops: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut popped = 0u64;
    for step in 0..ops {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if x % 5 < 3 {
            queue.schedule(
                SimTime(x % 10_000),
                EventKind::Timer {
                    node: NodeId((x % 64) as u32),
                    key: step,
                },
            );
        } else if let Some(e) = queue.pop() {
            popped = popped.wrapping_add(e.at.0).wrapping_add(e.seq);
        }
    }
    while let Some(e) = queue.pop() {
        popped = popped.wrapping_add(e.at.0).wrapping_add(e.seq);
    }
    popped
}

/// Fastest of `reps` timed invocations, in seconds. Minimum (not mean)
/// because timing noise on a shared box is strictly additive.
fn best_of<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Run the microbenches and return `(key, per-second throughput)`
/// pairs for [`BenchReport::micro`](sam_telemetry::BenchReport).
pub fn measure() -> Vec<(String, f64)> {
    const OPS: u64 = 100_000;
    let churn_s = best_of(5, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        churn(&mut q, OPS)
    });

    let plan = uniform_grid(6, 6, 1);
    let src = plan.src_pool[0];
    let dst = plan.dst_pool[0];
    let flood_s = best_of(30, || run_discovery(&plan, ProtocolKind::Mr, src, dst, 7));

    let sets: Vec<Vec<Route>> = (0..30)
        .map(|run| run_discovery(&plan, ProtocolKind::Mr, src, dst, run as u64).routes)
        .collect();
    let train_s = best_of(100, || NormalProfile::train(&sets, 10));

    vec![
        (
            "queue_churn_soa_ops_per_s".to_string(),
            OPS as f64 / churn_s,
        ),
        ("flood_grid6x6_per_s".to_string(), 1.0 / flood_s),
        ("profile_train_per_s".to_string(), 1.0 / train_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_all_keys_with_positive_throughput() {
        let micro = measure();
        let keys: Vec<&str> = micro.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "queue_churn_soa_ops_per_s",
                "flood_grid6x6_per_s",
                "profile_train_per_s"
            ]
        );
        for (k, v) in &micro {
            assert!(v.is_finite() && *v > 0.0, "{k} = {v}");
        }
    }
}
