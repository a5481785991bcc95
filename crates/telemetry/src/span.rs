//! Spans and point events.
//!
//! A [`SpanGuard`] measures a scope: it captures the wall clock on
//! creation and, on drop, sends one [`EventRecord`] (name, parent span,
//! start offset, duration, `key=value` fields) into the owning
//! collector's lock-free channel. Parentage is tracked per thread with a
//! span stack, so nested guards on one thread link up automatically. A
//! span opened on another thread is a root unless its parent is handed
//! over: a [`SpanParent`] for untraced work such as a parallel experiment
//! series, a [`TraceContext`] for a traced request.
//!
//! Guards are cheap when disabled: a guard detached from any collector
//! only records an `Instant`, so callers can still read
//! [`elapsed`](SpanGuard::elapsed) for progress output with telemetry
//! off.

use crate::trace::{TraceContext, TraceId};
use crossbeam::channel::Sender;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished span or point event, as exported to JSONL.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct EventRecord {
    /// Line discriminator: `"span"` or `"event"`.
    pub kind: String,
    /// Span id, unique within one collector; ids start at 1.
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for roots.
    pub parent: u64,
    /// Span/event name (a phase like `discovery` or `serve.process`).
    pub name: String,
    /// Start offset from collector creation, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds; 0 for point events.
    pub dur_us: u64,
    /// The request trace this record belongs to (32 hex digits), when it
    /// was opened under a [`TraceContext`]. `None` for untraced spans.
    pub trace: Option<String>,
    /// `key=value` annotations, in insertion order.
    pub fields: Vec<(String, String)>,
}

/// The recording half shared between a `Telemetry` handle and its spans.
pub(crate) struct Shared {
    pub(crate) tx: Sender<EventRecord>,
    pub(crate) epoch: Instant,
    pub(crate) next_id: AtomicU64,
}

impl Shared {
    pub(crate) fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

thread_local! {
    /// Stack of open spans on this thread (innermost last): id plus the
    /// trace it runs under, so nested spans inherit both.
    static SPAN_STACK: RefCell<Vec<(u64, Option<TraceId>)>> = const { RefCell::new(Vec::new()) };
}

/// Remove span `id` from this thread's stack. Guards are scope-bound so
/// drops are LIFO in practice; the position scan keeps a stray
/// out-of-order drop from corrupting ancestry.
fn leave(id: u64) {
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|&(open, _)| open == id) {
            s.remove(pos);
        }
    });
}

/// The innermost span open on one thread, handed to another thread so
/// that the spans it opens there are children: take
/// [`SpanParent::current`] on the opening thread and run the work inside
/// [`SpanParent::enter`] on the other.
///
/// Only the parent crosses, never a trace: spans opened under it are
/// untraced. Traced work crosses threads with a [`TraceContext`] and
/// [`Telemetry::span_in`](crate::Telemetry::span_in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanParent(u64);

impl SpanParent {
    /// The calling thread's innermost open span; no parent when none is
    /// open or no global telemetry is installed, which costs one atomic
    /// load.
    pub fn current() -> SpanParent {
        if !crate::enabled() {
            return SpanParent(0);
        }
        SpanParent(SPAN_STACK.with(|s| s.borrow().last().map_or(0, |&(id, _)| id)))
    }

    /// Run `f` with this parent re-entered on the calling thread, so the
    /// spans `f` opens here without a parent of their own have it as
    /// their parent.
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        /// Leaves the re-entered parent when `f` returns or unwinds.
        struct Reentered(u64);
        impl Drop for Reentered {
            fn drop(&mut self) {
                leave(self.0);
            }
        }
        if self.0 == 0 {
            return f();
        }
        SPAN_STACK.with(|s| s.borrow_mut().push((self.0, None)));
        let _reentered = Reentered(self.0);
        f()
    }
}

/// An RAII span. Created through `Telemetry::span` (recording) or
/// [`SpanGuard::disabled`] (timing only); the record is emitted on drop.
pub struct SpanGuard {
    started: Instant,
    inner: Option<SpanInner>,
}

struct SpanInner {
    shared: Arc<Shared>,
    id: u64,
    parent: u64,
    trace: Option<TraceId>,
    name: String,
    fields: Vec<(String, String)>,
}

impl SpanGuard {
    pub(crate) fn recording(shared: Arc<Shared>, name: &str) -> SpanGuard {
        let id = shared.fresh_id();
        let (parent, trace) = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, trace) = s.last().copied().unwrap_or((0, None));
            s.push((id, trace));
            (parent, trace)
        });
        SpanGuard {
            started: Instant::now(),
            inner: Some(SpanInner {
                shared,
                id,
                parent,
                trace,
                name: name.to_string(),
                fields: Vec::new(),
            }),
        }
    }

    /// Like [`recording`](Self::recording), but parented explicitly under
    /// `ctx` instead of the thread-local stack — the cross-thread handoff
    /// primitive. The guard still pushes onto this thread's stack, so
    /// spans nested inside it link up normally and inherit the trace.
    pub(crate) fn recording_in(shared: Arc<Shared>, name: &str, ctx: &TraceContext) -> SpanGuard {
        let id = shared.fresh_id();
        SPAN_STACK.with(|s| s.borrow_mut().push((id, Some(ctx.trace))));
        SpanGuard {
            started: Instant::now(),
            inner: Some(SpanInner {
                shared,
                id,
                parent: ctx.span,
                trace: Some(ctx.trace),
                name: name.to_string(),
                fields: Vec::new(),
            }),
        }
    }

    /// The context a downstream thread should open its spans in: this
    /// span's trace with this span as the parent. `None` when the guard
    /// is not recording or carries no trace.
    pub fn context(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        Some(TraceContext {
            trace: inner.trace?,
            span: inner.id,
        })
    }

    /// A guard that measures time but records nothing — what the global
    /// [`span`](fn@crate::span) helper returns when telemetry is off.
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            started: Instant::now(),
            inner: None,
        }
    }

    /// Attach a `key=value` field. A no-op (the value is never formatted)
    /// when the guard is not recording.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Whether this guard will emit a record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall-clock time since the guard was created. Works whether or not
    /// the guard records, so progress prints need no separate `Instant`.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        leave(inner.id);
        let record = EventRecord {
            kind: "span".to_string(),
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            start_us: inner.shared.micros_since_epoch(self.started),
            dur_us: self.started.elapsed().as_micros() as u64,
            trace: inner.trace.map(|t| t.to_string()),
            fields: inner.fields,
        };
        // A send only fails when every receiver is gone, i.e. the
        // collector was torn down mid-span; dropping the record then is
        // the right behaviour.
        let _ = inner.shared.tx.send(record);
    }
}

/// Attach `key = value` fields to a [`SpanGuard`] at creation:
///
/// ```
/// let tel = sam_telemetry::Telemetry::new();
/// let n = 3;
/// let _sp = sam_telemetry::span_with!(tel.span("phase"), runs = n, id = "fig6");
/// ```
#[macro_export]
macro_rules! span_with {
    ($span:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let mut __span = $span;
        $( __span.field(stringify!($key), $value); )*
        __span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn spans_nest_on_one_thread_and_carry_fields() {
        let tel = Telemetry::new();
        {
            let mut outer = tel.span("outer");
            outer.field("phase", "a");
            {
                let _inner = span_with!(tel.span("inner"), k = 42);
            }
        }
        let records = tel.drain();
        assert_eq!(records.len(), 2, "inner drops first, then outer");
        let inner = &records[0];
        let outer = &records[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, outer.id, "nesting links parent ids");
        assert_eq!(outer.parent, 0, "outer is a root");
        assert_eq!(outer.fields, vec![("phase".to_string(), "a".to_string())]);
        assert_eq!(inner.fields, vec![("k".to_string(), "42".to_string())]);
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tel = Telemetry::new();
        {
            let _root = tel.span("root");
            let _a = tel.span("a");
        }
        {
            let _b = tel.span("b");
        }
        let records = tel.drain();
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(by_name("a").parent, by_name("root").id);
        assert_eq!(by_name("b").parent, 0, "previous root was popped");
    }

    #[test]
    fn disabled_guard_times_but_does_not_record() {
        let tel = Telemetry::new();
        let mut g = SpanGuard::disabled();
        assert!(!g.is_recording());
        g.field("ignored", "value");
        drop(g);
        assert!(tel.drain().is_empty());
    }

    #[test]
    fn point_events_have_zero_duration() {
        let tel = Telemetry::new();
        tel.event("artifact", &[("path", "results/fig6.json")]);
        let records = tel.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "event");
        assert_eq!(records[0].dur_us, 0);
        assert_eq!(
            records[0].fields,
            vec![("path".to_string(), "results/fig6.json".to_string())]
        );
    }

    #[test]
    fn span_in_hands_a_trace_across_threads_and_nested_spans_inherit_it() {
        use crate::trace::{TraceContext, TraceId};
        let tel = Telemetry::new();
        let trace = TraceId(0xaa, 0xbb);
        let ctx = {
            let parent = tel.span_in("gateway.request", &TraceContext::root(trace));
            parent
                .context()
                .expect("recording traced span has a context")
        };
        assert_eq!(ctx.trace, trace);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _worker = tel.span_in("serve.process", &ctx);
                let _nested = tel.span("detector.compute");
            });
        });
        let records = tel.drain();
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap().clone();
        let parent = by_name("gateway.request");
        let worker = by_name("serve.process");
        let nested = by_name("detector.compute");
        let hex = trace.to_string();
        assert_eq!(parent.trace.as_deref(), Some(hex.as_str()));
        assert_eq!(worker.trace.as_deref(), Some(hex.as_str()));
        assert_eq!(
            nested.trace.as_deref(),
            Some(hex.as_str()),
            "same-thread nesting inherits the trace"
        );
        assert_eq!(worker.parent, parent.id, "explicit cross-thread linkage");
        assert_eq!(nested.parent, worker.id);
    }

    #[test]
    fn untraced_spans_have_no_context() {
        let tel = Telemetry::new();
        {
            let s = tel.span("plain");
            assert!(s.context().is_none(), "no trace → no handoff context");
        }
        let records = tel.drain();
        assert_eq!(records[0].trace, None);
    }

    #[test]
    fn records_round_trip_through_json() {
        let tel = Telemetry::new();
        {
            let _s = span_with!(tel.span("roundtrip"), seed = 7u64);
        }
        let records = tel.drain();
        let line = serde_json::to_string(&records[0]).unwrap();
        let back: EventRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, records[0]);
    }
}
