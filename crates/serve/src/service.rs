//! The detection service: one request body, run on the caller's thread.
//!
//! ## Architecture
//!
//! ```text
//!  serve() ──▶ detector name known? ──▶ admission count ──▶ the caller's
//!               (no: UnknownDetector)    (full: Rejected)    own thread
//!                  shared: ProfileCache + ServiceMetrics
//! ```
//!
//! * **One way in** — [`DetectionService::serve`] judges a request on the
//!   thread that calls it, with no queue and no hand-off; the gateway's
//!   connection workers call it. The service spawns no thread.
//! * **Backpressure** — `serve` never blocks: it admits at most
//!   `queue_capacity` requests into compute at once and sheds the next
//!   with [`SubmitError::Rejected`] carrying that count.
//! * **Isolation** — each request runs under `catch_unwind`. A panicking
//!   [`ProfileSource`] or detector fails that request alone: `serve`
//!   answers `None`, `serve.failed` counts it, its place in compute is
//!   given back, and the caller goes on to its next request.
//! * **Determinism** — a verdict is a pure function of the request's
//!   routes, its profile (itself a pure function of the
//!   [`ProfileKey`]), and its reported probe behaviour. The number of
//!   calling threads, the thread a request runs on, and arrival order
//!   cannot change any verdict; the
//!   `verdicts_are_invariant_across_calling_threads` test pins this.

use crate::cache::ProfileCache;
use crate::metrics::ServiceMetrics;
use crate::request::{
    micros, DetectionRequest, DetectionResponse, ProfileKey, StageTiming, SubmitError, Verdict,
};
use manet_routing::{ProbeOutcome, Route};
use sam::{
    run_procedure, DetectorInput, DetectorRegistry, NormalProfile, ProcedureConfig, SamConfig,
};
use sam_telemetry::{Registry, TraceContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a [`DetectionService`] is shaped.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Unused: the service runs every request on its caller's thread.
    /// Kept so existing configurations still build.
    pub workers: usize,
    /// The most requests [`serve`](DetectionService::serve) admits into
    /// compute at once; the next is shed. At least 1.
    pub queue_capacity: usize,
    /// Unused: the service runs each request on its own. Kept so existing
    /// configurations still build.
    pub max_batch: usize,
    /// Profiles retained in the shared LRU cache.
    pub cache_capacity: usize,
    /// The SAM configuration — the one threshold-calibration point. The
    /// service builds its [`DetectorRegistry`] from it
    /// ([`DetectorRegistry::with_sam`]), so the `"sam"` entry (which
    /// requests naming no detector get) and the ensemble's SAM member
    /// share it.
    pub detector: SamConfig,
    /// Attach a verdict [`Explanation`](sam::Explanation) to every
    /// response (suspect link, per-route leave-one-out contributions),
    /// built from the verdict the procedure already computed. Off by
    /// default: the leave-one-out statistics cost a ranking of the link
    /// table per response, and explanations grow responses considerably.
    pub explain: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            queue_capacity: 256,
            max_batch: 32,
            cache_capacity: 16,
            detector: SamConfig::default(),
            explain: false,
        }
    }
}

/// Produces the normal-condition profile for a deployment key. Must be
/// deterministic in the key — the determinism contract leans on it.
pub type ProfileSource = Arc<dyn Fn(&ProfileKey) -> NormalProfile + Send + Sync>;

/// The in-process detection service. See the [module
/// docs](crate::service) for the architecture.
pub struct DetectionService {
    /// Named detectors requests select from (`"sam"` when they name
    /// none).
    detectors: DetectorRegistry,
    /// Attach an [`Explanation`](sam::Explanation) to every response.
    explain: bool,
    cache: ProfileCache,
    metrics: ServiceMetrics,
    profiles: ProfileSource,
    /// Requests in compute right now.
    in_compute: AtomicUsize,
    queue_capacity: usize,
}

impl DetectionService {
    /// A service recording every `serve.*` instrument into `registry`.
    /// `profiles` trains (or loads) the normal profile for a key on first
    /// sight; results are cached. A multi-shard embedder (the gateway)
    /// passes its own registry to every shard, so all `serve.*`
    /// instruments aggregate alongside its own. `cfg.workers` and
    /// `cfg.max_batch` are not used.
    pub fn new(cfg: ServiceConfig, profiles: ProfileSource, registry: Arc<Registry>) -> Self {
        assert!(cfg.queue_capacity >= 1, "need queue capacity >= 1");
        DetectionService {
            detectors: DetectorRegistry::with_sam(cfg.detector),
            explain: cfg.explain,
            cache: ProfileCache::with_counters(
                cfg.cache_capacity,
                registry.counter("serve.cache_hits"),
                registry.counter("serve.cache_misses"),
            ),
            metrics: ServiceMetrics::with_registry(&registry),
            profiles,
            in_compute: AtomicUsize::new(0),
            queue_capacity: cfg.queue_capacity,
        }
    }

    /// Serve a request on the calling thread, without waiting.
    ///
    /// A request naming a detector the registry does not hold is refused
    /// with [`SubmitError::UnknownDetector`] before it takes a place in
    /// compute. At most `queue_capacity` requests are in compute at once;
    /// the next is shed with [`SubmitError::Rejected`] carrying that
    /// count, and the caller decides whether to retry, downsample, or
    /// surface the overload. `Ok(None)` when the request failed: its
    /// profile source or detector panicked.
    ///
    /// Nothing waits, so the response's `queue_wait_us` is 0; each call
    /// counts as one `serve.batches`. With telemetry installed, a `trace`
    /// parents the `serve.process` span; `None` costs nothing.
    pub fn serve(
        &self,
        request: DetectionRequest,
        trace: Option<TraceContext>,
    ) -> Result<Option<DetectionResponse>, SubmitError> {
        if let Some(name) = &request.detector {
            if !self.detectors.contains(name) {
                return Err(SubmitError::UnknownDetector { name: name.clone() });
            }
        }
        let cap = self.queue_capacity;
        if let Err(queue_depth) =
            self.in_compute
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < cap).then_some(n + 1)
                })
        {
            self.metrics.record_rejected();
            return Err(SubmitError::Rejected { queue_depth });
        }
        // Leaves compute on every path out, unwinding included.
        let _admitted = Admitted(&self.in_compute);
        self.metrics.record_submitted();
        match catch_unwind(AssertUnwindSafe(|| self.process(request, trace))) {
            Ok(response) => Ok(Some(response)),
            Err(_) => {
                self.metrics.record_failed();
                Ok(None)
            }
        }
    }

    /// Requests in compute right now.
    pub fn queue_depth(&self) -> usize {
        self.in_compute.load(Ordering::Acquire)
    }

    /// The shared profile cache (hit/miss counters live here).
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Judge one request. Its compute (profile lookup, procedure,
    /// explanation) lands in the serve.* histograms and travels back on
    /// the response.
    fn process(&self, request: DetectionRequest, trace: Option<TraceContext>) -> DetectionResponse {
        let started = Instant::now();
        let mut timing = StageTiming::default();
        // Traced requests open their compute under the handed-off
        // context, stitching this work into the caller's trace. Untraced
        // (or telemetry-off) requests skip even the global lookup.
        let mut span = match &trace {
            Some(ctx) => match sam_telemetry::global() {
                Some(tel) => tel.span_in("serve.process", ctx),
                None => sam_telemetry::SpanGuard::disabled(),
            },
            None => sam_telemetry::SpanGuard::disabled(),
        };
        if span.is_recording() {
            span.field("id", request.id);
            span.field("key", &request.key);
            span.field("queue_wait_us", timing.queue_wait_us);
        }
        let (profile, cache_hit) = self
            .cache
            .get_or_train(&request.key, || (self.profiles)(&request.key));

        // The requesting node already ran its probe test; replay its
        // observed ACK ratio through the procedure's transport hook.
        let ratio = request.probe_ack_ratio.unwrap_or(1.0).clamp(0.0, 1.0);
        let mut transport = |_route: &Route, count: u32| ProbeOutcome {
            sent: count,
            acked: ((count as f64) * ratio).round() as u32,
        };

        // One path for every request: the procedure over the registry
        // entry it names. Explanations explain the verdict already
        // computed, so they stay deterministic in (routes, profile).
        let name = request.detector.as_deref().unwrap_or("sam");
        let detector = self
            .detectors
            .get(name)
            .expect("serve validated the detector name");
        let input = DetectorInput::new(&request.routes, &profile);
        let outcome = run_procedure(
            detector.as_ref(),
            &input,
            &ProcedureConfig::default(),
            &mut transport,
        );
        let step1 = outcome.verdict();
        // The one SAM-specific wire rule (see `DetectionResponse::score`).
        let score = if name == "sam" && !step1.anomalous {
            0.0
        } else {
            step1.score
        };
        // The explainer reads the link table the detector tabulated.
        let explanation = self
            .explain
            .then(|| sam::Explanation::from_verdict_with(&request.routes, input.stats(), step1));
        let verdict = Verdict::from_detector_outcome(&outcome);

        // Count before answering, so a metrics snapshot taken the instant
        // `serve` returns already includes this response.
        timing.compute_us = micros(started.elapsed());
        self.metrics.record_completed(started.elapsed());
        self.metrics.record_stages(&timing);
        drop(span); // close before the caller answers
        DetectionResponse {
            id: request.id,
            detector: name.to_string(),
            score,
            verdict,
            profile_cache_hit: cache_hit,
            timing,
            explanation,
        }
    }
}

/// One request's place in compute; dropping it frees the place.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}
