//! The on-disk flight recording.
//!
//! ## JSONL schema
//!
//! One JSON object per line, discriminated by its `kind` field:
//!
//! * `"flight"` — the [`FlightMeta`] header: scenario/protocol/seed,
//!   topology size, endpoints, attacker pairs, and the trace's
//!   dropped-entry count. Always the first line.
//! * `"packet"` — one causal trace entry, wrapped as `{"kind":
//!   "packet", "entry": TraceEntry}` (see `manet_sim::trace`).
//! * `"span"` / `"event"` — a `sam-telemetry` [`EventRecord`], verbatim.
//! * `"snapshot"` — the final [`RegistrySnapshot`], verbatim.
//! * `"explanation"` — the SAM verdict explanation, an opaque JSON
//!   object produced by the `sam` core (kept opaque here so this crate
//!   needs no detector dependency).
//!
//! Unknown kinds are skipped on read, so the format can grow.

use manet_sim::{Trace, TraceEntry};
use sam_telemetry::{EventRecord, RegistrySnapshot};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// The recording header: everything needed to interpret (or re-run) the
/// scenario the trace came from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightMeta {
    /// Line discriminator, always `"flight"`.
    pub kind: String,
    /// Scenario name (e.g. `two_cluster`).
    pub scenario: String,
    /// Routing protocol the run used.
    pub protocol: String,
    /// The run seed.
    pub seed: u64,
    /// Number of nodes in the topology.
    pub nodes: u64,
    /// Discovery source node id.
    pub src: u32,
    /// Discovery destination node id.
    pub dst: u32,
    /// Active attacker pairs, as `(a, b)` node ids.
    pub attacker_pairs: Vec<(u32, u32)>,
    /// Trace entries lost to the recorder's capacity bound.
    pub dropped: u64,
}

impl FlightMeta {
    /// A header with the `kind` discriminator filled in and no attackers.
    pub fn new(scenario: &str, protocol: &str, seed: u64) -> Self {
        FlightMeta {
            kind: "flight".to_string(),
            scenario: scenario.to_string(),
            protocol: protocol.to_string(),
            seed,
            nodes: 0,
            src: 0,
            dst: 0,
            attacker_pairs: Vec::new(),
            dropped: 0,
        }
    }
}

/// Wire wrapper for one trace entry line.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PacketLine {
    kind: String,
    entry: TraceEntry,
}

/// One run's complete observability record.
#[derive(Clone, Debug)]
pub struct FlightRecording {
    /// The scenario header.
    pub meta: FlightMeta,
    /// Causal trace entries, in dispatch order.
    pub entries: Vec<TraceEntry>,
    /// Telemetry spans/events emitted during the run.
    pub spans: Vec<EventRecord>,
    /// Final metrics snapshot, when telemetry was installed.
    pub snapshot: Option<RegistrySnapshot>,
    /// The SAM verdict explanation, when the explainer ran. Must be a
    /// JSON object carrying `"kind": "explanation"`.
    pub explanation: Option<Value>,
}

impl FlightRecording {
    /// An empty recording under `meta`.
    pub fn new(meta: FlightMeta) -> Self {
        FlightRecording {
            meta,
            entries: Vec::new(),
            spans: Vec::new(),
            snapshot: None,
            explanation: None,
        }
    }

    /// Rebuild a queryable [`Trace`] over the recorded entries.
    pub fn trace(&self) -> Trace {
        Trace::from_entries(self.entries.clone(), self.meta.dropped)
    }

    /// Write the recording in the JSONL schema (header first).
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{}", json_line(&self.meta)?)?;
        for e in &self.entries {
            let line = PacketLine {
                kind: "packet".to_string(),
                entry: *e,
            };
            writeln!(w, "{}", json_line(&line)?)?;
        }
        for s in &self.spans {
            writeln!(w, "{}", json_line(s)?)?;
        }
        if let Some(snap) = &self.snapshot {
            writeln!(w, "{}", json_line(snap)?)?;
        }
        if let Some(ex) = &self.explanation {
            writeln!(w, "{}", json_line(ex)?)?;
        }
        Ok(())
    }

    /// Parse a recording from a JSONL reader. Lines with unknown kinds
    /// are skipped; a missing `"flight"` header is an error.
    pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Self> {
        let mut meta: Option<FlightMeta> = None;
        let mut entries = Vec::new();
        let mut spans = Vec::new();
        let mut snapshot = None;
        let mut explanation = None;
        for (n, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let value: Value = serde_json::from_str(&line)
                .map_err(|e| bad_data(format!("line {}: {e}", n + 1)))?;
            let kind = value
                .field("kind")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            match kind.as_str() {
                "flight" => {
                    meta = Some(parse_line(&line, n)?);
                }
                "packet" => {
                    let p: PacketLine = parse_line(&line, n)?;
                    entries.push(p.entry);
                }
                "span" | "event" => {
                    spans.push(parse_line(&line, n)?);
                }
                "snapshot" => {
                    snapshot = Some(parse_line(&line, n)?);
                }
                "explanation" => {
                    explanation = Some(value);
                }
                _ => {} // forward compatibility: ignore unknown lines
            }
        }
        let meta = meta.ok_or_else(|| bad_data("no \"flight\" header line".to_string()))?;
        Ok(FlightRecording {
            meta,
            entries,
            spans,
            snapshot,
            explanation,
        })
    }

    /// Write the recording to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let f = File::create(path)?;
        self.write_jsonl(BufWriter::new(f))
    }

    /// Load a recording from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let f = File::open(path)?;
        Self::read_jsonl(BufReader::new(f))
    }
}

fn json_line<T: Serialize>(v: &T) -> io::Result<String> {
    serde_json::to_string(v).map_err(|e| bad_data(e.to_string()))
}

fn parse_line<T: Deserialize>(line: &str, n: usize) -> io::Result<T> {
    serde_json::from_str(line).map_err(|e| bad_data(format!("line {}: {e}", n + 1)))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Channel, NodeId, SimTime, TraceKind};

    fn sample() -> FlightRecording {
        let mut meta = FlightMeta::new("line", "mr", 7);
        meta.nodes = 4;
        meta.src = 0;
        meta.dst = 3;
        meta.attacker_pairs = vec![(1, 2)];
        meta.dropped = 5;
        let mut rec = FlightRecording::new(meta);
        rec.entries = vec![
            TraceEntry {
                id: 0,
                cause: None,
                at: SimTime(1),
                node: NodeId(1),
                kind: TraceKind::Deliver {
                    from: NodeId(0),
                    channel: Channel::Broadcast,
                },
            },
            TraceEntry {
                id: 1,
                cause: Some(0),
                at: SimTime(2),
                node: NodeId(2),
                kind: TraceKind::Deliver {
                    from: NodeId(1),
                    channel: Channel::Tunnel,
                },
            },
        ];
        rec.spans = vec![EventRecord {
            kind: "span".to_string(),
            id: 1,
            parent: 0,
            name: "discovery".to_string(),
            start_us: 10,
            dur_us: 250,
            trace: None,
            fields: vec![("routes".to_string(), "3".to_string())],
        }];
        rec
    }

    #[test]
    fn recording_round_trips_through_jsonl() {
        let rec = sample();
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.lines().next().unwrap().contains("\"flight\""));
        let back = FlightRecording::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.meta, rec.meta);
        assert_eq!(back.entries, rec.entries);
        assert_eq!(back.spans, rec.spans);
        assert!(back.snapshot.is_none());
        assert!(back.explanation.is_none());
        let trace = back.trace();
        assert_eq!(trace.dropped(), 5);
        assert_eq!(trace.lineage_depth(1), 2);
    }

    #[test]
    fn explanation_line_survives_as_opaque_json() {
        let mut rec = sample();
        rec.explanation =
            Some(serde_json::from_str(r#"{"kind":"explanation","p_max":0.8}"#).unwrap());
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let back = FlightRecording::read_jsonl(&buf[..]).unwrap();
        let ex = back.explanation.expect("explanation preserved");
        assert_eq!(
            ex.field("kind").and_then(Value::as_str),
            Some("explanation")
        );
    }

    #[test]
    fn unknown_kinds_are_skipped_and_missing_header_errors() {
        let rec = sample();
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("{\"kind\":\"future-thing\",\"x\":1}\n");
        let back = FlightRecording::read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.entries.len(), 2);

        let headless = "{\"kind\":\"future-thing\"}\n";
        assert!(FlightRecording::read_jsonl(headless.as_bytes()).is_err());
    }
}
