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

/// Registry-backed counters for one
/// [`DetectionService`](crate::service::DetectionService).
///
/// Instrument names: `serve.submitted`, `serve.rejected`,
/// `serve.completed`, `serve.failed`, `serve.batches` (one per served
/// request), `serve.latency_us` (power-of-two histogram), and the
/// per-stage breakdown `serve.queue_wait_us` / `serve.compute_us`
/// (power-of-two). Every accepted request ends as exactly one of
/// `completed` or `failed`. Requests run on their caller's thread, so
/// each waits 0 µs.
pub struct ServiceMetrics {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    batches: Arc<Counter>,
    latency_us: Arc<Histogram>,
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
            queue_wait_us: registry.histogram_pow2("serve.queue_wait_us"),
            compute_us: registry.histogram_pow2("serve.compute_us"),
        }
    }

    /// A request was accepted into compute, on its own: a batch of one.
    /// `serve.batches` stays for readers that divide completions by it
    /// for a mean batch size, which reads 1.
    pub fn record_submitted(&self) {
        self.submitted.inc();
        self.batches.inc();
    }

    /// A request was shed because compute was full.
    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// A response was delivered `latency` after its request entered
    /// compute.
    pub fn record_completed(&self, latency: Duration) {
        self.completed.inc();
        self.latency_us.record(micros(latency));
    }

    /// An accepted request panicked in its profile source or detector and
    /// gets no response.
    pub fn record_failed(&self) {
        self.failed.inc();
    }

    /// One request's stage breakdown: time spent queued (0, since nothing
    /// queues) and time spent computing the verdict.
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
    fn shared_registry_sees_the_same_numbers() {
        let registry = Registry::new();
        let m = ServiceMetrics::with_registry(&registry);
        m.record_submitted();
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_completed(Duration::from_micros(100));
        m.record_failed();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.submitted"), 3);
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.counter("serve.completed"), 1);
        assert_eq!(snap.counter("serve.failed"), 1);
        assert_eq!(snap.counter("serve.batches"), 3, "one per submission");
        assert_eq!(snap.histogram("serve.latency_us").unwrap().count, 1);
        // And the typed getters agree with the snapshot.
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.completed(), 1);
    }
}
