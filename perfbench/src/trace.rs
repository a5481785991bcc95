//! In-memory spans recorded around calls into each layer's public
//! functions, from the benchmark's own code.
//!
//! Each thread owns one [`SpanLog`]; nothing is shared or locked while
//! measuring. A span's self time is its duration minus the time its
//! child spans cover. Logs are aggregated, and written out as JSONL,
//! only after the measured phases end.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `manet-routing.discover`.
    pub name: &'static str,
    /// The operation (trial or request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Time covered by direct children, ns.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the children's share, ns.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

/// One thread's span log. A disabled log records nothing and costs one
/// branch per scope.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    /// A log timing against `origin`; `enabled = false` makes every
    /// scope a plain call.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        SpanLog {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `op`.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            child_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
        let (dur, parent) = (span.dur_ns, span.parent);
        if let Some(p) = parent {
            self.spans[p].child_ns += dur;
        }
        out
    }
}

/// Self time of every span named `name`, µs.
pub fn self_us(logs: &[SpanLog], name: &str) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.self_ns() as f64 / 1e3)
        .collect()
}

/// Summed self time of every span in `logs`, s.
pub fn total_self_s(logs: &[SpanLog]) -> f64 {
    logs.iter()
        .flat_map(|l| l.spans.iter())
        .map(|s| s.self_ns() as f64 / 1e9)
        .sum()
}

/// Write every span as one JSONL line (`thread` is the log's index).
pub fn write_jsonl(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.dur_ns,
                s.self_ns()
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now(), true);
        log.scope("outer", 1, |log| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.scope("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = &log.spans[0];
        let inner = &log.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.child_ns, inner.dur_ns);
        assert_eq!(outer.self_ns(), outer.dur_ns - inner.dur_ns);
        assert!(inner.dur_ns >= 5_000_000);
        assert!(outer.self_ns() >= 2_000_000);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let v = log.scope("x", 0, |log| log.scope("y", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(log.spans.is_empty());
    }
}
