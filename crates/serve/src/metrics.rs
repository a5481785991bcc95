//! Service observability, backed by the shared [`sam_telemetry`]
//! registry.
//!
//! [`ServiceMetrics`] is a thin façade of named instruments (`serve.*`)
//! in a [`Registry`], so stats windows and exported snapshots read the
//! same numbers. Everything on the hot path is a single relaxed atomic
//! update.

use crate::request::{micros, StageTiming};
use sam_telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Batch sizes are tracked exactly up to this value; larger batches land
/// in the final overflow bucket.
const BATCH_BUCKETS: usize = 64;

/// Registry-backed counters for one
/// [`DetectionService`](crate::service::DetectionService).
///
/// Instrument names: `serve.submitted`, `serve.rejected`,
/// `serve.completed`, `serve.failed`, `serve.batches`, `serve.latency_us`
/// (power-of-two histogram), `serve.batch_size` (exact up to 64), and the
/// per-stage breakdown `serve.queue_wait_us` / `serve.compute_us`
/// (power-of-two). Every accepted request ends as exactly one of
/// `completed` or `failed`. A request served on its caller's thread is a
/// batch of one that waited 0 µs.
pub struct ServiceMetrics {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    batches: Arc<Counter>,
    latency_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    compute_us: Arc<Histogram>,
}

impl ServiceMetrics {
    /// Metrics recording into `registry`'s `serve.*` instruments.
    pub fn with_registry(registry: &Registry) -> Self {
        ServiceMetrics {
            submitted: registry.counter("serve.submitted"),
            rejected: registry.counter("serve.rejected"),
            completed: registry.counter("serve.completed"),
            failed: registry.counter("serve.failed"),
            batches: registry.counter("serve.batches"),
            latency_us: registry.histogram_pow2("serve.latency_us"),
            batch_size: registry.histogram_linear("serve.batch_size", BATCH_BUCKETS),
            queue_wait_us: registry.histogram_pow2("serve.queue_wait_us"),
            compute_us: registry.histogram_pow2("serve.compute_us"),
        }
    }

    /// A request was accepted into the queue or into compute.
    pub fn record_submitted(&self) {
        self.submitted.inc();
    }

    /// A request was shed because the queue, or compute, was full.
    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// A worker drained a batch of `size` requests in one wake.
    pub fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batch_size.record(size as u64);
    }

    /// A response was delivered `latency` after submission.
    pub fn record_completed(&self, latency: Duration) {
        self.completed.inc();
        self.latency_us.record(micros(latency));
    }

    /// An accepted request panicked in its profile source or detector and
    /// gets no response.
    pub fn record_failed(&self) {
        self.failed.inc();
    }

    /// One request's stage breakdown: time spent queued and time spent
    /// computing the verdict.
    pub fn record_stages(&self, timing: &StageTiming) {
        self.queue_wait_us.record(timing.queue_wait_us);
        self.compute_us.record(timing.compute_us);
    }

    /// Requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Responses delivered so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_histogram_is_sparse() {
        // perfbench reads `serve.batches` to report the mean batch size.
        let registry = Registry::new();
        let m = ServiceMetrics::with_registry(&registry);
        m.record_batch(1);
        m.record_batch(1);
        m.record_batch(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.batches"), 3);
        let sizes = snap.histogram("serve.batch_size").unwrap();
        assert_eq!(sizes.buckets, vec![(1, 2), (7, 1)]);
        assert!((sizes.mean - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_registry_sees_the_same_numbers() {
        let registry = Registry::new();
        let m = ServiceMetrics::with_registry(&registry);
        m.record_submitted();
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_batch(2);
        m.record_completed(Duration::from_micros(100));
        m.record_failed();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.submitted"), 3);
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.counter("serve.completed"), 1);
        assert_eq!(snap.counter("serve.failed"), 1);
        assert_eq!(snap.counter("serve.batches"), 1);
        assert_eq!(snap.histogram("serve.latency_us").unwrap().count, 1);
        assert_eq!(snap.histogram("serve.batch_size").unwrap().count, 1);
        // And the typed getters agree with the snapshot.
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.completed(), 1);
    }
}
