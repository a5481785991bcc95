//! Turning a telemetry stream into a human-readable per-phase summary,
//! and writing the JSONL export.
//!
//! ## JSONL schema
//!
//! One JSON object per line, discriminated by its `kind` field:
//!
//! * `"span"` / `"event"` — an [`EventRecord`]: `id`, `parent` (0 =
//!   root), `name`, `start_us` (offset from collector creation), `dur_us`
//!   (0 for point events), and `fields` as `[key, value]` string pairs.
//! * `"snapshot"` — a final [`RegistrySnapshot`]: sorted `counters` and
//!   `gauges` as `[name, value]` pairs and histogram summaries with
//!   sparse buckets.

use crate::registry::RegistrySnapshot;
use crate::span::EventRecord;
use std::fmt;
use std::io::{self, Write};

/// Per-phase aggregate of every span/event sharing one name.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Span/event name.
    pub name: String,
    /// Records aggregated.
    pub count: u64,
    /// Sum of durations, milliseconds.
    pub total_ms: f64,
    /// Mean duration, milliseconds.
    pub mean_ms: f64,
    /// Longest single duration, milliseconds.
    pub max_ms: f64,
}

/// A per-phase time/count table distilled from a telemetry stream —
/// the "where did this run spend its time" answer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    rows: Vec<PhaseRow>,
}

impl TelemetryReport {
    /// Aggregate `records` by name. Rows are ordered by total time,
    /// longest first (ties by name), so the dominant phase leads.
    pub fn from_records(records: &[EventRecord]) -> Self {
        let mut rows: Vec<PhaseRow> = Vec::new();
        for r in records {
            let ms = r.dur_us as f64 / 1e3;
            match rows.iter_mut().find(|row| row.name == r.name) {
                Some(row) => {
                    row.count += 1;
                    row.total_ms += ms;
                    row.max_ms = row.max_ms.max(ms);
                }
                None => rows.push(PhaseRow {
                    name: r.name.clone(),
                    count: 1,
                    total_ms: ms,
                    mean_ms: 0.0,
                    max_ms: ms,
                }),
            }
        }
        for row in &mut rows {
            row.mean_ms = row.total_ms / row.count as f64;
        }
        rows.sort_by(|a, b| {
            b.total_ms
                .partial_cmp(&a.total_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        TelemetryReport { rows }
    }

    /// The aggregated rows, dominant phase first.
    pub fn rows(&self) -> &[PhaseRow] {
        &self.rows
    }

    /// The row named `name`, if any record carried that name.
    pub fn phase(&self, name: &str) -> Option<&PhaseRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return write!(f, "telemetry: no spans recorded");
        }
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(5)
            .max("phase".len());
        writeln!(
            f,
            "{:name_w$}  {:>8}  {:>12}  {:>10}  {:>10}",
            "phase", "count", "total_ms", "mean_ms", "max_ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:name_w$}  {:>8}  {:>12.1}  {:>10.3}  {:>10.1}",
                r.name, r.count, r.total_ms, r.mean_ms, r.max_ms
            )?;
        }
        Ok(())
    }
}

/// Write `records` (one line each) followed by an optional final
/// `snapshot` line to `w` in the JSONL schema above.
pub fn write_jsonl<W: Write>(
    mut w: W,
    records: &[EventRecord],
    snapshot: Option<&RegistrySnapshot>,
) -> io::Result<()> {
    for r in records {
        let line = serde_json::to_string(r)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    if let Some(s) = snapshot {
        let line = serde_json::to_string(s)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, dur_us: u64) -> EventRecord {
        EventRecord {
            kind: "span".to_string(),
            id: 1,
            parent: 0,
            name: name.to_string(),
            start_us: 0,
            dur_us,
            trace: None,
            fields: vec![],
        }
    }

    #[test]
    fn report_aggregates_and_orders_by_total() {
        let records = vec![rec("fast", 1_000), rec("slow", 30_000), rec("fast", 3_000)];
        let report = TelemetryReport::from_records(&records);
        assert_eq!(report.rows().len(), 2);
        assert_eq!(report.rows()[0].name, "slow", "dominant phase first");
        let fast = report.phase("fast").unwrap();
        assert_eq!(fast.count, 2);
        assert!((fast.total_ms - 4.0).abs() < 1e-9);
        assert!((fast.mean_ms - 2.0).abs() < 1e-9);
        assert!((fast.max_ms - 3.0).abs() < 1e-9);
        let rendered = report.to_string();
        assert!(rendered.contains("phase"));
        assert!(rendered.contains("slow"));
        assert!(report.phase("missing").is_none());
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let report = TelemetryReport::from_records(&[]);
        assert_eq!(report.to_string(), "telemetry: no spans recorded");
    }

    #[test]
    fn jsonl_lines_are_individually_parseable() {
        let tel = crate::Telemetry::new();
        {
            let _s = tel.span("a");
        }
        tel.registry().counter("c").add(2);
        let records = tel.drain();
        let snapshot = tel.snapshot();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records, Some(&snapshot)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span: EventRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(span.name, "a");
        let snap: RegistrySnapshot = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(snap.counter("c"), 2);
    }
}
