//! The sharded, batching detection service.
//!
//! ## Architecture
//!
//! ```text
//!  submit() ──rr──▶ [bounded queue 0] ──▶ worker 0 ─┐
//!            └────▶ [bounded queue 1] ──▶ worker 1 ─┼─▶ Pending slots
//!                      …                     …      ┘
//!                         shared: ProfileCache + ServiceMetrics
//! ```
//!
//! * **Sharding** — each worker owns one bounded channel. `submit`
//!   round-robins across shards and fails over to the next shard when the
//!   preferred one is full; only when *every* queue is full is the
//!   request shed with [`SubmitError::Rejected`].
//! * **Batching** — a worker blocks on `recv` for its first request, then
//!   opportunistically drains up to `max_batch - 1` more with `try_recv`
//!   before processing, amortizing wakeups under load while adding zero
//!   latency when idle.
//! * **Determinism** — a verdict is a pure function of the request's
//!   routes, its profile (itself a pure function of the
//!   [`ProfileKey`]), and its reported probe behaviour. Worker count,
//!   batch boundaries, and arrival order cannot change any verdict; the
//!   `worker_invariance` integration test pins this.

use crate::cache::ProfileCache;
use crate::metrics::ServiceMetrics;
use crate::request::{
    micros, DetectionRequest, DetectionResponse, ProfileKey, StageTiming, SubmitError, Verdict,
};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use manet_routing::{ProbeOutcome, Route};
use sam::{
    run_procedure, DetectorInput, DetectorRegistry, NormalProfile, ProcedureConfig, SamConfig,
};
use sam_telemetry::{Registry, TraceContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a [`DetectionService`] is shaped.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (= shards). At least 1.
    pub workers: usize,
    /// Bounded capacity of each shard's queue. At least 1.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per wake. At least 1.
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
    /// default: the leave-one-out statistics cost a scan of the link
    /// table per suspect-crossing route, and explanations grow responses
    /// considerably.
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

/// A handle to one in-flight request's eventual response.
///
/// This is a tiny oneshot: the worker fills the slot and notifies; the
/// caller blocks in [`wait`](Pending::wait).
pub struct Pending {
    slot: Arc<(Mutex<Option<DetectionResponse>>, Condvar)>,
}

impl Pending {
    fn new() -> (Pending, Pending) {
        let slot = Arc::new((Mutex::new(None), Condvar::new()));
        (Pending { slot: slot.clone() }, Pending { slot })
    }

    fn fill(&self, response: DetectionResponse) {
        let (lock, cvar) = &*self.slot;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(response);
        cvar.notify_all();
    }

    /// Block until the response arrives.
    pub fn wait(self) -> DetectionResponse {
        let (lock, cvar) = &*self.slot;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = cvar.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One queued unit of work.
struct Job {
    request: DetectionRequest,
    accepted_at: Instant,
    /// The request's trace, handed explicitly across the channel — the
    /// worker thread's span stack cannot see the submitter's spans.
    trace: Option<TraceContext>,
    reply: Pending,
}

/// Produces the normal-condition profile for a deployment key. Must be
/// deterministic in the key — the determinism contract leans on it.
pub type ProfileSource = Arc<dyn Fn(&ProfileKey) -> NormalProfile + Send + Sync>;

/// The in-process batch detection service. See the [module
/// docs](crate::service) for the architecture.
pub struct DetectionService {
    shards: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    next_shard: AtomicUsize,
    cache: Arc<ProfileCache>,
    metrics: Arc<ServiceMetrics>,
    registry: Arc<Registry>,
    detectors: DetectorRegistry,
}

impl DetectionService {
    /// Start the worker pool. `profiles` trains (or loads) the normal
    /// profile for a key on first sight; results are cached.
    pub fn start(cfg: ServiceConfig, profiles: ProfileSource) -> Self {
        // All instruments live in one registry: the process-global one
        // when telemetry is installed (so `serve.*` shows up in exported
        // snapshots), a private one otherwise.
        let registry = sam_telemetry::global()
            .map(|t| t.registry().clone())
            .unwrap_or_default();
        Self::start_with_registry(cfg, profiles, registry)
    }

    /// Like [`start`](Self::start), but recording into an explicit
    /// `registry` instead of the global-or-private default. A multi-shard
    /// embedder (the gateway) passes its own registry to every shard so
    /// all `serve.*` instruments aggregate alongside its own, regardless
    /// of whether process-global telemetry is installed.
    pub fn start_with_registry(
        cfg: ServiceConfig,
        profiles: ProfileSource,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_capacity >= 1, "need queue capacity >= 1");
        assert!(cfg.max_batch >= 1, "need max_batch >= 1");

        let cache = Arc::new(ProfileCache::with_counters(
            cfg.cache_capacity,
            registry.counter("serve.cache_hits"),
            registry.counter("serve.cache_misses"),
        ));
        let metrics = Arc::new(ServiceMetrics::with_registry(&registry));
        let detectors = DetectorRegistry::with_sam(cfg.detector);
        let mut shards = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);

        for shard in 0..cfg.workers {
            let (tx, rx) = bounded::<Job>(cfg.queue_capacity);
            shards.push(tx);
            let worker = Worker {
                rx,
                max_batch: cfg.max_batch,
                detectors: detectors.clone(),
                explain: cfg.explain,
                cache: cache.clone(),
                metrics: metrics.clone(),
                profiles: profiles.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sam-serve-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread"),
            );
        }

        DetectionService {
            shards,
            workers,
            next_shard: AtomicUsize::new(0),
            cache,
            metrics,
            registry,
            detectors,
        }
    }

    /// Submit a request without blocking.
    ///
    /// On success the returned [`Pending`] resolves to the response. When
    /// every shard queue is full the request is shed with
    /// [`SubmitError::Rejected`] carrying the depth of the preferred
    /// shard's queue — callers decide whether to retry, downsample, or
    /// surface the overload.
    pub fn submit(&self, request: DetectionRequest) -> Result<Pending, SubmitError> {
        self.submit_traced(request, None)
    }

    /// [`submit`](Self::submit) with a trace context carried across the
    /// shard boundary: when telemetry is installed, the worker's
    /// `serve.process` span is parented under `trace` instead of being a
    /// detached root. `None` is exactly `submit` — no trace, no cost.
    pub fn submit_traced(
        &self,
        request: DetectionRequest,
        trace: Option<TraceContext>,
    ) -> Result<Pending, SubmitError> {
        // Detector names are validated here, at the door: a typo'd
        // request never consumes a queue slot, and workers can trust
        // every queued name resolves.
        if let Some(name) = &request.detector {
            if !self.detectors.contains(name) {
                return Err(SubmitError::UnknownDetector { name: name.clone() });
            }
        }
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let n = self.shards.len();
        let (theirs, ours) = Pending::new();
        let mut job = Job {
            request,
            accepted_at: Instant::now(),
            trace,
            reply: theirs,
        };
        for i in 0..n {
            let shard = &self.shards[(start + i) % n];
            match shard.try_send(job) {
                Ok(()) => {
                    self.metrics.record_submitted();
                    return Ok(ours);
                }
                Err(TrySendError::Full(j)) => job = j,
                Err(TrySendError::Disconnected(_)) => return Err(SubmitError::Closed),
            }
        }
        self.metrics.record_rejected();
        Err(SubmitError::Rejected {
            queue_depth: self.shards[start % n].len(),
        })
    }

    /// Requests currently waiting in shard queues.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The shared profile cache (hit/miss counters live here).
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }

    /// The detector registry requests select from by name.
    pub fn detectors(&self) -> &DetectorRegistry {
        &self.detectors
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The registry holding every `serve.*` instrument — the global
    /// telemetry registry when one was installed at start, a private one
    /// otherwise.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stop accepting work, drain the queues, and join every worker.
    ///
    /// Already-queued requests are still processed and their `Pending`s
    /// still resolve; only new submissions fail (with
    /// [`SubmitError::Closed`]).
    pub fn shutdown(mut self) {
        self.shards.clear(); // disconnects senders; workers drain + exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        self.shards.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct Worker {
    rx: Receiver<Job>,
    max_batch: usize,
    /// Named detectors requests select from (`"sam"` when they name
    /// none); shared across workers (trait objects behind `Arc`s).
    detectors: DetectorRegistry,
    /// Attach an [`Explanation`](sam::Explanation) to every response.
    explain: bool,
    cache: Arc<ProfileCache>,
    metrics: Arc<ServiceMetrics>,
    profiles: ProfileSource,
}

impl Worker {
    fn run(self) {
        let mut batch = Vec::with_capacity(self.max_batch);
        loop {
            // Block for the first request; senders dropping ends the loop
            // once the queue is empty (bounded channels deliver queued
            // items before reporting disconnection).
            match self.rx.recv() {
                Ok(job) => batch.push(job),
                Err(_) => return,
            }
            // Opportunistically drain the rest of the batch.
            while batch.len() < self.max_batch {
                match self.rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            self.metrics.record_batch(batch.len());
            let mut span = sam_telemetry::span("serve.batch");
            span.field("size", batch.len());
            for job in batch.drain(..) {
                self.process(job);
            }
            drop(span);
        }
    }

    fn process(&self, job: Job) {
        let Job {
            request,
            accepted_at,
            trace,
            reply,
        } = job;
        // Stage clock: submission → here is queue wait (plus batch
        // predecessors); here → verdict is compute. Both land in the
        // serve.* histograms and travel back on the response.
        let dequeued_at = Instant::now();
        let mut timing = StageTiming {
            queue_wait_us: micros(dequeued_at.duration_since(accepted_at)),
            ..StageTiming::default()
        };
        // Traced requests open their compute under the handed-off
        // context, stitching this thread's work into the submitter's
        // trace. Untraced (or telemetry-off) requests skip even the
        // global lookup.
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
            .expect("submit validated the detector name");
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
        let explanation = self
            .explain
            .then(|| sam::Explanation::from_verdict(&request.routes, step1));
        let verdict = Verdict::from_detector_outcome(&outcome);

        // Count before waking the caller, so a metrics snapshot taken the
        // instant `wait` returns already includes this response.
        timing.compute_us = micros(dequeued_at.elapsed());
        self.metrics.record_completed(accepted_at.elapsed());
        self.metrics.record_stages(&timing);
        drop(span); // close before the caller wakes
        reply.fill(DetectionResponse {
            id: request.id,
            detector: name.to_string(),
            score,
            verdict,
            profile_cache_hit: cache_hit,
            timing,
            explanation,
        });
    }
}
