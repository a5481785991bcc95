//! Service observability, backed by the shared [`sam_telemetry`]
//! registry.
//!
//! Since the telemetry unification this module no longer owns histogram
//! or percentile code: [`ServiceMetrics`] is a thin façade of named
//! instruments (`serve.*`) in a [`Registry`], so the same numbers are
//! visible both through the typed [`MetricsReport`] this module has
//! always produced and through any registry snapshot exported to JSONL.
//! Everything on the hot path is still a single relaxed atomic update.

use crate::request::{micros, StageTiming};
use sam_telemetry::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch sizes are tracked exactly up to this value; larger batches land
/// in the final overflow bucket.
const BATCH_BUCKETS: usize = 64;

/// Registry-backed counters for one
/// [`DetectionService`](crate::service::DetectionService).
///
/// Instrument names: `serve.submitted`, `serve.rejected`,
/// `serve.completed`, `serve.batches`, `serve.latency_us` (power-of-two
/// histogram), `serve.batch_size` (exact up to 64), and the per-stage
/// breakdown `serve.queue_wait_us` / `serve.compute_us` (power-of-two).
pub struct ServiceMetrics {
    started: Instant,
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    batches: Arc<Counter>,
    latency_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
    compute_us: Arc<Histogram>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh metrics over a private registry; the throughput clock starts
    /// now.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Metrics recording into `registry`'s `serve.*` instruments — the
    /// form [`DetectionService`](crate::service::DetectionService) uses so
    /// its report and the exported telemetry snapshot are one source of
    /// truth.
    pub fn with_registry(registry: &Registry) -> Self {
        ServiceMetrics {
            started: Instant::now(),
            submitted: registry.counter("serve.submitted"),
            rejected: registry.counter("serve.rejected"),
            completed: registry.counter("serve.completed"),
            batches: registry.counter("serve.batches"),
            latency_us: registry.histogram_pow2("serve.latency_us"),
            batch_size: registry.histogram_linear("serve.batch_size", BATCH_BUCKETS),
            queue_wait_us: registry.histogram_pow2("serve.queue_wait_us"),
            compute_us: registry.histogram_pow2("serve.compute_us"),
        }
    }

    /// A request was accepted into a shard queue.
    pub fn record_submitted(&self) {
        self.submitted.inc();
    }

    /// A request was shed because its shard queue was full.
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

    /// One request's stage breakdown: time spent queued and time spent
    /// computing the verdict.
    pub fn record_stages(&self, timing: &StageTiming) {
        self.queue_wait_us.record(timing.queue_wait_us);
        self.compute_us.record(timing.compute_us);
    }

    /// Requests accepted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Requests shed so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Responses delivered so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Snapshot every counter into an owned report.
    pub fn report(&self, queue_depth: usize) -> MetricsReport {
        let completed = self.completed();
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let batch_hist: Vec<(usize, u64)> = self
            .batch_size
            .nonzero_buckets()
            .into_iter()
            .map(|(size, count)| (size as usize, count))
            .collect();
        MetricsReport {
            submitted: self.submitted(),
            rejected: self.rejected(),
            completed,
            queue_depth,
            throughput_rps: completed as f64 / elapsed,
            batches: self.batches.get(),
            mean_batch: self.batch_size.mean(),
            batch_hist,
            p50_us: self.latency_us.percentile(0.50),
            p90_us: self.latency_us.percentile(0.90),
            p99_us: self.latency_us.percentile(0.99),
        }
    }
}

/// A point-in-time snapshot of [`ServiceMetrics`], serializable for
/// `BENCH_serve.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests shed with [`SubmitError::Rejected`](crate::request::SubmitError).
    pub rejected: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Requests sitting in shard queues at snapshot time.
    pub queue_depth: usize,
    /// Completed requests per second since service start.
    pub throughput_rps: f64,
    /// Worker wakes that drained at least one request.
    pub batches: u64,
    /// Mean requests drained per wake.
    pub mean_batch: f64,
    /// Sparse batch-size histogram as `(size, count)` pairs (sizes above
    /// 64 collapse into the 64 bucket).
    pub batch_hist: Vec<(usize, u64)>,
    /// Median latency upper bound, microseconds (0 with no samples).
    pub p50_us: u64,
    /// 90th-percentile latency upper bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} shed, {} queued",
            self.submitted, self.completed, self.rejected, self.queue_depth
        )?;
        writeln!(f, "throughput: {:.0} req/s", self.throughput_rps)?;
        writeln!(
            f,
            "batching: {} wakes, mean batch {:.2}",
            self.batches, self.mean_batch
        )?;
        write!(
            f,
            "latency: p50 < {}us, p90 < {}us, p99 < {}us",
            self.p50_us, self.p90_us, self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_walk_the_cdf() {
        let m = ServiceMetrics::new();
        // 90 fast samples (< 2us → bucket edge 2), 10 slow (~1ms).
        for _ in 0..90 {
            m.record_completed(Duration::from_micros(1));
        }
        for _ in 0..10 {
            m.record_completed(Duration::from_micros(1000));
        }
        let r = m.report(0);
        assert_eq!(r.completed, 100);
        assert!(r.p50_us <= 2, "median in the fast bucket, got {}", r.p50_us);
        assert!(
            r.p99_us >= 1024,
            "tail in the slow bucket, got {}",
            r.p99_us
        );
    }

    #[test]
    fn empty_metrics_report_zero_percentiles() {
        // With no completed requests the percentile is an explicit 0 —
        // not the top bucket edge the CDF walk would fall through to.
        let m = ServiceMetrics::new();
        let r = m.report(0);
        assert_eq!(r.completed, 0);
        assert_eq!(r.p50_us, 0);
        assert_eq!(r.p90_us, 0);
        assert_eq!(r.p99_us, 0);
        assert_eq!(r.mean_batch, 0.0);
        assert!(r.batch_hist.is_empty());
    }

    #[test]
    fn batch_histogram_is_sparse() {
        let m = ServiceMetrics::new();
        m.record_batch(1);
        m.record_batch(1);
        m.record_batch(7);
        let r = m.report(0);
        assert_eq!(r.batches, 3);
        assert_eq!(r.batch_hist, vec![(1, 2), (7, 1)]);
        assert!((r.mean_batch - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_registry_sees_the_same_numbers() {
        let registry = Registry::new();
        let m = ServiceMetrics::with_registry(&registry);
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_batch(2);
        m.record_completed(Duration::from_micros(100));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.submitted"), 2);
        assert_eq!(snap.counter("serve.rejected"), 1);
        assert_eq!(snap.counter("serve.completed"), 1);
        assert_eq!(snap.counter("serve.batches"), 1);
        let lat = snap.histogram("serve.latency_us").unwrap();
        assert_eq!(lat.count, 1);
        assert_eq!(snap.histogram("serve.batch_size").unwrap().count, 1);
        // And the typed report agrees with the snapshot.
        let r = m.report(0);
        assert_eq!(r.submitted, 2);
        assert_eq!(r.p50_us, lat.p50);
    }
}
