//! # sam-serve — a detection service over the SAM core
//!
//! SAM is a pure statistical post-processor over route sets: it needs no
//! protocol changes and no per-node state beyond a trained
//! [`NormalProfile`](sam::NormalProfile). That makes it exactly the kind
//! of component a real deployment runs as a **shared online service** fed
//! by many nodes' route discoveries, rather than a one-shot offline call
//! inside an experiment runner.
//!
//! This crate provides that service as a library; `sam-gateway` puts it
//! behind a socket:
//!
//! * [`DetectionService`](service::DetectionService) — one way in:
//!   `serve` judges one request, the paper's three-step procedure over
//!   one discovery's route set, on the thread that calls it. That is how
//!   `sam-gateway`'s connection workers use it; the service spawns no
//!   thread. A request whose profile source or detector panics answers
//!   `None` and fails alone.
//! * **Backpressure** — `serve` never blocks: once `queue_capacity`
//!   requests are in compute, the next caller gets
//!   [`SubmitError::Rejected`](request::SubmitError) carrying that count,
//!   and the shed is counted. No hidden unbounded buffering, no deadlock.
//! * [`ProfileCache`](cache::ProfileCache) — an LRU of trained profiles
//!   keyed by [`ProfileKey`](request::ProfileKey), shared across calling
//!   threads behind a `parking_lot` mutex, with hit/miss accounting.
//!   Training is single-flight and runs outside the lock: concurrent
//!   misses on one key share one training, and a hit never waits on
//!   another key's training.
//! * [`ServiceMetrics`](metrics::ServiceMetrics) — `serve.*` counters
//!   (submitted, rejected, completed, failed) and latency histograms in a
//!   `sam-telemetry` registry.
//!
//! The service is **deterministic**: a request's verdict is a pure
//! function of its route set, its profile, and its reported probe
//! behaviour — never of the calling thread, how many threads call, or
//! arrival order. The `verdicts_are_invariant_across_calling_threads`
//! test pins this at 1, 2, and 8 calling threads.
//!
//! The `loadgen` binary replays simulated route-discovery traffic from
//! `sam-experiments` scenarios against a running `sam-gateway` and prints
//! a throughput/latency report (`--json` writes the same
//! [`LoadgenSummary`](report::LoadgenSummary)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod report;
pub mod request;
pub mod service;
pub mod stats;
pub mod trace;
pub mod wire;

/// The service-facing surface in one import.
pub mod prelude {
    pub use crate::cache::ProfileCache;
    pub use crate::metrics::ServiceMetrics;
    pub use crate::report::{LoadgenSummary, SlowestRequest, TransportErrors};
    pub use crate::request::{
        DetectionRequest, DetectionResponse, ProfileKey, StageTiming, SubmitError, Verdict,
    };
    pub use crate::service::{DetectionService, ServiceConfig};
    pub use crate::stats::{ShardStats, StatsReport, StatsTotals, WindowStats};
    pub use crate::trace::{AuditRecord, TraceExemplar, TraceSpan};
    pub use crate::wire::{
        decode_line, FrameError, FrameReader, WireCommand, WireError, WireLine, WireRequest,
        WireResponse,
    };
}
