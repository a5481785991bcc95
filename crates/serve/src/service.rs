//! The detection service: one request body, run by a pool of workers
//! draining one bounded queue, or on the caller's own thread.
//!
//! ## Architecture
//!
//! ```text
//!  submit() ──▶ [bounded queue] ──┬──▶ worker 0 ─┐
//!                                 ├──▶ worker 1 ─┼─▶ one reply channel
//!                                 …       …      ┘   per request
//!  serve()  ──▶ admission count ──▶ the caller's own thread
//!                  shared: ProfileCache + ServiceMetrics
//! ```
//!
//! * **Two ways in** — [`DetectionService::start`] spawns a worker pool
//!   for [`submit`](DetectionService::submit), which hands the request
//!   to a worker and answers through a [`Pending`].
//!   [`serve`](DetectionService::serve) runs the same body on the calling
//!   thread, with no queue and no hand-off; a service built by
//!   [`DetectionService::inline`] has no pool and serves only that way
//!   (the gateway's connection workers call it).
//! * **Queueing** — every worker drains the service's one bounded
//!   channel. `submit` never blocks: when the queue is full the request is
//!   shed with [`SubmitError::Rejected`]. `serve` admits at most
//!   `queue_capacity` requests into compute at once and sheds the next
//!   one the same way.
//! * **Batching** — a worker blocks on `recv` for its first request, then
//!   opportunistically drains up to `max_batch - 1` more with `try_recv`
//!   before processing, amortizing wakeups under load while adding zero
//!   latency when idle. A request `serve` runs is a batch of one.
//! * **Isolation** — each request runs under `catch_unwind`. A panicking
//!   [`ProfileSource`] or detector fails that request alone:
//!   [`Pending::wait`] and `serve` answer `None`, `serve.failed` counts
//!   it, and the worker or caller goes on to the next request.
//! * **Determinism** — a verdict is a pure function of the request's
//!   routes, its profile (itself a pure function of the
//!   [`ProfileKey`]), and its reported probe behaviour. Worker count,
//!   batch boundaries, the thread it runs on, and arrival order cannot
//!   change any verdict; the `verdicts_are_invariant_across_worker_counts`
//!   test pins this.

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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How a [`DetectionService`] is shaped.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the service's queue. At least 1. Unused
    /// by [`DetectionService::inline`].
    pub workers: usize,
    /// Bounded capacity of the service's one queue; a submission that
    /// finds it full is shed. Also the most requests
    /// [`serve`](DetectionService::serve) admits into compute at once.
    /// At least 1.
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per wake. At least 1. Unused by
    /// [`DetectionService::inline`].
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

/// A handle to one in-flight request's eventual response: the receiving
/// end of a one-message channel whose sender travels with the request.
pub struct Pending(Receiver<DetectionResponse>);

impl Pending {
    /// Block until the request is finished. `None` when it failed: a
    /// panic in its profile source or detector dropped the sender unsent.
    pub fn wait(self) -> Option<DetectionResponse> {
        self.0.recv().ok()
    }
}

/// One queued unit of work.
struct Job {
    request: DetectionRequest,
    accepted_at: Instant,
    /// The request's trace, handed explicitly across the channel — the
    /// worker thread's span stack cannot see the submitter's spans.
    trace: Option<TraceContext>,
    reply: Sender<DetectionResponse>,
}

/// Produces the normal-condition profile for a deployment key. Must be
/// deterministic in the key — the determinism contract leans on it.
pub type ProfileSource = Arc<dyn Fn(&ProfileKey) -> NormalProfile + Send + Sync>;

/// The in-process detection service. See the [module
/// docs](crate::service) for the architecture.
pub struct DetectionService {
    /// `None` for an [`inline`](DetectionService::inline) service, and
    /// while dropping: taking it disconnects the workers.
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// The one request body, shared by the pool's threads and `serve`'s
    /// callers.
    worker: Arc<Worker>,
    /// Requests in compute through `serve` right now.
    in_compute: AtomicUsize,
    queue_capacity: usize,
}

impl DetectionService {
    /// Start the worker pool, recording every `serve.*` instrument into
    /// `registry`. `profiles` trains (or loads) the normal profile for a
    /// key on first sight; results are cached. A multi-shard embedder
    /// (the gateway) passes its own registry to every shard, so all
    /// `serve.*` instruments aggregate alongside its own.
    pub fn start(cfg: ServiceConfig, profiles: ProfileSource, registry: Arc<Registry>) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_batch >= 1, "need max_batch >= 1");
        let (workers, max_batch, capacity) = (cfg.workers, cfg.max_batch, cfg.queue_capacity);
        let mut service = Self::inline(cfg, profiles, registry);
        let (queue, rx) = bounded::<Job>(capacity);
        service.workers = (0..workers)
            .map(|i| {
                let (worker, rx) = (service.worker.clone(), rx.clone());
                std::thread::Builder::new()
                    .name(format!("sam-serve-{i}"))
                    .spawn(move || worker.run(&rx, max_batch))
                    .expect("spawn worker thread")
            })
            .collect();
        service.queue = Some(queue);
        service
    }

    /// The service without a worker pool: every request runs on the
    /// thread that calls [`serve`](DetectionService::serve), and
    /// [`submit`](DetectionService::submit), finding no queue, answers
    /// [`SubmitError::Closed`]. `cfg.workers` and `cfg.max_batch` are not
    /// used. Instruments and profiles as in [`start`](DetectionService::start).
    pub fn inline(cfg: ServiceConfig, profiles: ProfileSource, registry: Arc<Registry>) -> Self {
        assert!(cfg.queue_capacity >= 1, "need queue capacity >= 1");
        let worker = Worker {
            detectors: DetectorRegistry::with_sam(cfg.detector),
            explain: cfg.explain,
            cache: Arc::new(ProfileCache::with_counters(
                cfg.cache_capacity,
                registry.counter("serve.cache_hits"),
                registry.counter("serve.cache_misses"),
            )),
            metrics: Arc::new(ServiceMetrics::with_registry(&registry)),
            profiles,
        };
        DetectionService {
            queue: None,
            workers: Vec::new(),
            worker: Arc::new(worker),
            in_compute: AtomicUsize::new(0),
            queue_capacity: cfg.queue_capacity,
        }
    }

    /// Detector names are validated at the door: a typo'd request never
    /// takes a queue slot or a place in compute, and the body can trust
    /// every name it gets resolves.
    fn check_detector(&self, request: &DetectionRequest) -> Result<(), SubmitError> {
        match &request.detector {
            Some(name) if !self.worker.detectors.contains(name) => {
                Err(SubmitError::UnknownDetector { name: name.clone() })
            }
            _ => Ok(()),
        }
    }

    /// Submit a request without blocking.
    ///
    /// On success the returned [`Pending`] resolves to the response. When
    /// the queue is full the request is shed with
    /// [`SubmitError::Rejected`] carrying the queue's depth — callers
    /// decide whether to retry, downsample, or surface the overload.
    ///
    /// With telemetry installed, a `trace` parents the worker's
    /// `serve.process` span across the queue; `None` costs nothing.
    pub fn submit(
        &self,
        request: DetectionRequest,
        trace: Option<TraceContext>,
    ) -> Result<Pending, SubmitError> {
        self.check_detector(&request)?;
        let Some(queue) = &self.queue else {
            return Err(SubmitError::Closed);
        };
        let (reply, pending) = bounded(1);
        let job = Job {
            request,
            accepted_at: Instant::now(),
            trace,
            reply,
        };
        match queue.try_send(job) {
            Ok(()) => {
                self.worker.metrics.record_submitted();
                Ok(Pending(pending))
            }
            Err(TrySendError::Full(_)) => {
                self.worker.metrics.record_rejected();
                Err(SubmitError::Rejected {
                    queue_depth: queue.len(),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Closed),
        }
    }

    /// Serve a request on the calling thread: the body a pool worker
    /// runs, under the same `catch_unwind` and counters, with no queue
    /// and no hand-off. At most `queue_capacity` requests are in compute
    /// this way at once; the next is shed with [`SubmitError::Rejected`]
    /// carrying that count, without waiting. `Ok(None)` when the request
    /// failed (its profile source or detector panicked), as from
    /// [`Pending::wait`]. Never answers [`SubmitError::Closed`].
    ///
    /// Nothing waits, so the response's `queue_wait_us` is 0; each call
    /// counts as one `serve.batches`. A `trace` parents the
    /// `serve.process` span, as for [`submit`](DetectionService::submit).
    pub fn serve(
        &self,
        request: DetectionRequest,
        trace: Option<TraceContext>,
    ) -> Result<Option<DetectionResponse>, SubmitError> {
        self.check_detector(&request)?;
        let metrics = &self.worker.metrics;
        let cap = self.queue_capacity;
        if let Err(queue_depth) =
            self.in_compute
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < cap).then_some(n + 1)
                })
        {
            metrics.record_rejected();
            return Err(SubmitError::Rejected { queue_depth });
        }
        // Leaves compute on every path out, unwinding included.
        let _admitted = Admitted(&self.in_compute);
        metrics.record_submitted();
        metrics.record_batch(1);
        let now = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| {
            self.worker.process(request, now, now, trace)
        })) {
            Ok(response) => Ok(Some(response)),
            Err(_) => {
                metrics.record_failed();
                Ok(None)
            }
        }
    }

    /// Requests the service holds: those waiting in the queue, plus
    /// those in compute through [`serve`](DetectionService::serve).
    pub fn queue_depth(&self) -> usize {
        self.queue.as_ref().map_or(0, Sender::len) + self.in_compute.load(Ordering::Acquire)
    }

    /// The shared profile cache (hit/miss counters live here).
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.worker.cache
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.worker.metrics
    }

    /// Stop accepting work, drain the queue, and join every worker.
    ///
    /// Already-queued requests are still processed and their `Pending`s
    /// still resolve. Dropping the service does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for DetectionService {
    fn drop(&mut self) {
        // Disconnecting the queue ends each worker once it is empty
        // (bounded channels deliver queued items before reporting
        // disconnection).
        self.queue = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One request's place in compute through `serve`; dropping it frees
/// the place.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The per-request body, one per service: the pool's threads run it on
/// queued jobs, `serve` on its caller's thread.
struct Worker {
    /// Named detectors requests select from (`"sam"` when they name
    /// none).
    detectors: DetectorRegistry,
    /// Attach an [`Explanation`](sam::Explanation) to every response.
    explain: bool,
    cache: Arc<ProfileCache>,
    metrics: Arc<ServiceMetrics>,
    profiles: ProfileSource,
}

impl Worker {
    fn run(&self, rx: &Receiver<Job>, max_batch: usize) {
        let mut batch = Vec::with_capacity(max_batch);
        // Block for the first request; the service dropping its sender
        // ends the loop once the queue is empty.
        while let Ok(job) = rx.recv() {
            batch.push(job);
            // Opportunistically drain the rest of the batch.
            while batch.len() < max_batch {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            self.metrics.record_batch(batch.len());
            let mut span = sam_telemetry::span("serve.batch");
            span.field("size", batch.len());
            for Job {
                request,
                accepted_at,
                trace,
                reply,
            } in batch.drain(..)
            {
                match catch_unwind(AssertUnwindSafe(|| {
                    self.process(request, accepted_at, Instant::now(), trace)
                })) {
                    Ok(response) => {
                        // A caller that stopped waiting is no error.
                        let _ = reply.send(response);
                    }
                    // Count before `reply` drops and wakes the caller.
                    Err(_) => self.metrics.record_failed(),
                }
            }
            drop(span);
        }
    }

    /// Judge one request. Stage clock: `accepted_at` → `dequeued_at` is
    /// queue wait (plus batch predecessors), `dequeued_at` → verdict is
    /// compute. Both land in the serve.* histograms and travel back on
    /// the response.
    fn process(
        &self,
        request: DetectionRequest,
        accepted_at: Instant,
        dequeued_at: Instant,
        trace: Option<TraceContext>,
    ) -> DetectionResponse {
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
