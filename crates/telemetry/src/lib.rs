//! # sam-telemetry — unified observability for the SAM workspace
//!
//! Before this crate the workspace had three disjoint telemetry islands:
//! `sam-serve`'s bespoke `ServiceMetrics`, the simulator's per-node tx/rx
//! counters, and raw `Instant` + `println!` timing in the `reproduce`
//! binary. This crate is the one substrate they all share:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and power-of-two
//!   [`Histogram`]s with CDF-walk percentiles — all lock-free on the
//!   update path;
//! * a span/event API: [`Telemetry::span`] returns an RAII [`SpanGuard`]
//!   recording name, parent, wall-clock duration, and `key=value` fields
//!   into a lock-free collector channel;
//! * a JSONL sink ([`report::write_jsonl`]) and a [`TelemetryReport`]
//!   summarizer that turns a stream into a per-phase time/count table.
//!
//! ## Global wiring
//!
//! Instrumented crates (`manet-sim`, `manet-routing`, `sam-serve`,
//! `sam-experiments`) consult the process-global handle: [`install`] one
//! with `--telemetry` in `reproduce`/`sam-gateway` and every layer records;
//! leave it uninstalled and the cost is a single relaxed atomic load per
//! check — no collector is allocated and no counter is touched. The
//! `telemetry_off_is_zero_overhead` test in `manet-sim` pins that
//! guarantee for the engine hot path.
//!
//! ```
//! use sam_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! {
//!     let mut span = tel.span("discovery");
//!     span.field("seed", 42);
//! } // recorded on drop
//! tel.registry().counter("discovery.count").inc();
//! let records = tel.drain();
//! assert_eq!(records[0].name, "discovery");
//! assert_eq!(tel.snapshot().counter("discovery.count"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;
pub mod window;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use report::TelemetryReport;
pub use span::{EventRecord, SpanGuard, SpanParent};
pub use trace::{TraceContext, TraceId, TraceIdGen};
pub use window::{WindowDelta, WindowRing, DEFAULT_WINDOW_SLOTS};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use span::Shared;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A telemetry context: one registry plus one span/event collector.
/// Clones share state (`Arc` inside), so handing a handle to another
/// thread or crate is free.
#[derive(Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    shared: Arc<Shared>,
    rx: Receiver<EventRecord>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh context; the span clock (`start_us`) starts now.
    pub fn new() -> Self {
        let (tx, rx) = unbounded();
        Telemetry {
            registry: Arc::new(Registry::new()),
            shared: Arc::new(Shared {
                tx,
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
            }),
            rx,
        }
    }

    /// The metrics registry backing this context.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Open a recording span named `name`; the record is emitted when the
    /// guard drops. Nested spans on one thread link their `parent` ids.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::recording(self.shared.clone(), name)
    }

    /// Open a recording span under an explicit [`TraceContext`] instead
    /// of the thread-local stack — the cross-thread handoff used when a
    /// request hops a channel boundary. Spans nested inside the guard
    /// (same thread) inherit the trace automatically.
    pub fn span_in(&self, name: &str, ctx: &TraceContext) -> SpanGuard {
        SpanGuard::recording_in(self.shared.clone(), name, ctx)
    }

    /// Inject a pre-built record into the collector, assigning it a fresh
    /// id when `record.id` is 0. Returns the record's id. This is how the
    /// gateway emits spans it *synthesizes* from stage timings after a
    /// request completes, rather than measuring with live guards.
    pub fn record_raw(&self, mut record: EventRecord) -> u64 {
        if record.id == 0 {
            record.id = self.shared.fresh_id();
        }
        let id = record.id;
        let _ = self.shared.tx.send(record);
        id
    }

    /// Microseconds from this context's epoch to `at` (saturating), the
    /// same clock `start_us` is expressed in — lets callers place
    /// synthesized records on the shared span timeline.
    pub fn offset_us(&self, at: Instant) -> u64 {
        self.shared.micros_since_epoch(at)
    }

    /// Record an instantaneous point event with the given fields.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        let now = Instant::now();
        let _ = self.shared.tx.send(EventRecord {
            kind: "event".to_string(),
            id: self.shared.fresh_id(),
            parent: 0,
            name: name.to_string(),
            start_us: self.shared.micros_since_epoch(now),
            dur_us: 0,
            trace: None,
            fields: fields
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Drain every record emitted so far, in emission order.
    pub fn drain(&self) -> Vec<EventRecord> {
        let mut out = Vec::new();
        while let Ok(r) = self.rx.try_recv() {
            out.push(r);
        }
        out
    }

    /// Point-in-time snapshot of the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

/// Fast-path flag: `true` iff a global context is installed. Checked
/// before touching the global mutex so the disabled cost is one relaxed
/// load.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Telemetry>> = Mutex::new(None);

/// Install `tel` as the process-global context consulted by the
/// instrumented crates. Replaces any previous global.
pub fn install(tel: Telemetry) {
    *GLOBAL.lock() = Some(tel);
    ENABLED.store(true, Ordering::Release);
}

/// Remove and return the global context, disabling all instrumentation.
pub fn uninstall() -> Option<Telemetry> {
    ENABLED.store(false, Ordering::Release);
    GLOBAL.lock().take()
}

/// Whether a global context is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// The global context, if installed. One relaxed atomic load when
/// disabled — safe to call on warm paths.
pub fn global() -> Option<Telemetry> {
    if !enabled() {
        return None;
    }
    GLOBAL.lock().clone()
}

/// A span against the global context: recording when telemetry is
/// installed, a timing-only [`SpanGuard::disabled`] otherwise (so callers
/// can still print elapsed time).
pub fn span(name: &str) -> SpanGuard {
    match global() {
        Some(tel) => tel.span(name),
        None => SpanGuard::disabled(),
    }
}

/// One-stop imports for instrumented crates.
pub mod prelude {
    pub use crate::registry::{
        Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
    };
    pub use crate::report::{write_jsonl, TelemetryReport};
    pub use crate::span::{EventRecord, SpanGuard, SpanParent};
    pub use crate::trace::{TraceContext, TraceId, TraceIdGen};
    pub use crate::window::{WindowDelta, WindowRing, DEFAULT_WINDOW_SLOTS};
    pub use crate::{enabled, global, install, span, uninstall, Telemetry};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global install/uninstall lives in ONE test: unit tests share a
    /// process, and a second test toggling the global concurrently would
    /// race with the disabled-path assertions below.
    #[test]
    fn global_lifecycle() {
        // Disabled: helper spans time but record nowhere.
        assert!(!enabled());
        assert!(global().is_none());
        let g = span("orphan");
        assert!(!g.is_recording());
        drop(g);

        // Installed: the same call sites record.
        let tel = Telemetry::new();
        install(tel.clone());
        assert!(enabled());
        {
            let mut sp = span("global-phase");
            assert!(sp.is_recording());
            sp.field("k", 1);
        }
        let removed = uninstall().expect("was installed");
        let records = removed.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "global-phase");

        // A parent handed to a worker thread: the worker's span is its
        // child and untraced; a worker that enters no parent opens a root.
        install(tel.clone());
        assert_eq!(SpanParent::current(), SpanParent::default(), "none open");
        let series = span("series");
        let parent = SpanParent::current();
        std::thread::scope(|s| {
            s.spawn(|| parent.enter(|| drop(span("run"))));
            s.spawn(|| drop(span("orphan")));
        });
        drop(series);
        let records = uninstall().expect("was installed").drain();
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap().clone();
        let (series, run) = (by_name("series"), by_name("run"));
        assert_eq!(run.parent, series.id);
        assert_eq!(run.trace, None);
        assert_eq!(by_name("orphan").parent, 0);

        // Uninstalled again: back to zero-cost, and no parent to hand over.
        assert!(!enabled());
        assert!(global().is_none());
        assert!(!span("after").is_recording());
        let open = Telemetry::new();
        let _local = open.span("local");
        assert_eq!(SpanParent::current(), SpanParent::default());
        assert!(tel.drain().is_empty(), "drained handle saw everything");
    }

    #[test]
    fn drain_preserves_emission_order_across_threads() {
        let tel = Telemetry::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let tel = tel.clone();
                s.spawn(move || {
                    let mut sp = tel.span("worker");
                    sp.field("thread", t);
                });
            }
        });
        let records = tel.drain();
        assert_eq!(records.len(), 4);
        // Worker spans are roots: no cross-thread parent leakage.
        assert!(records.iter().all(|r| r.parent == 0));
        // Ids are unique.
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }
}
