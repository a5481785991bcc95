//! Export a flight recording as Chrome trace-event JSON.
//!
//! Two synthetic "processes" appear in the viewer:
//!
//! * **pid 1 — telemetry**: every span/event from the recording's
//!   `sam-telemetry` stream, as complete/instant events on track 1
//!   (real wall-clock microseconds).
//! * **pid 2 — simulation**: every trace entry as an instant event whose
//!   timestamp is the *simulated* microsecond and whose track (`tid`) is
//!   the receiving node id — so each node gets a lane and the flood
//!   wavefront reads left to right. `args` carries the lineage id, the
//!   causal parent, and the sender, so clicking a tunnel crossing shows
//!   exactly which reception spawned it.

use crate::record::FlightRecording;
use manet_sim::{Channel, FaultKind, TraceEntry, TraceKind};
use sam_telemetry::chrome::{event_to_chrome, obj, process_name, trace_document};
use serde_json::Value;

/// Instant name for one entry: the delivery channel or `timer`.
fn entry_name(e: &TraceEntry) -> &'static str {
    match e.kind {
        TraceKind::Deliver { channel, .. } => match channel {
            Channel::Broadcast => "deliver.broadcast",
            Channel::Unicast => "deliver.unicast",
            Channel::Tunnel => "deliver.tunnel",
        },
        TraceKind::Timer { .. } => "timer",
        TraceKind::Fault { kind } => match kind {
            FaultKind::BurstStart { .. } => "fault.burst_start",
            FaultKind::BurstEnd { .. } => "fault.burst_end",
            FaultKind::NodeDown => "fault.node_down",
            FaultKind::NodeUp => "fault.node_up",
            FaultKind::Dropped { .. } => "fault.dropped",
            FaultKind::Duplicated { .. } => "fault.duplicated",
        },
    }
}

/// Convert one trace entry into an instant event on the simulation
/// process, one track per receiving node.
fn entry_to_chrome(e: &TraceEntry) -> Value {
    let mut args = vec![("id", Value::UInt(e.id))];
    match e.cause {
        Some(c) => args.push(("cause", Value::UInt(c))),
        None => args.push(("cause", Value::Null)),
    }
    if let TraceKind::Deliver { from, .. } = e.kind {
        args.push(("from", Value::UInt(u64::from(from.0))));
    }
    if let TraceKind::Timer { key } = e.kind {
        args.push(("key", Value::UInt(key)));
    }
    if let TraceKind::Fault {
        kind: FaultKind::Dropped { from } | FaultKind::Duplicated { from },
    } = e.kind
    {
        args.push(("from", Value::UInt(u64::from(from.0))));
    }
    obj(vec![
        ("name", Value::Str(entry_name(e).to_string())),
        ("cat", Value::Str("sim".to_string())),
        ("ph", Value::Str("i".to_string())),
        ("ts", Value::UInt(e.at.0)),
        ("s", Value::Str("t".to_string())),
        ("pid", Value::UInt(2)),
        ("tid", Value::UInt(u64::from(e.node.0))),
        (
            "args",
            Value::Object(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
    ])
}

/// Build the full trace-event document for `recording`.
pub fn chrome_trace(recording: &FlightRecording) -> Value {
    let mut events = vec![process_name(1, "telemetry"), process_name(2, "simulation")];
    for r in &recording.spans {
        events.push(event_to_chrome(r, 1, 1));
    }
    for e in &recording.entries {
        events.push(entry_to_chrome(e));
    }
    trace_document(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FlightMeta;
    use manet_sim::{NodeId, SimTime};
    use sam_telemetry::EventRecord;

    #[test]
    fn exports_spans_and_entries_with_metadata() {
        let mut rec = FlightRecording::new(FlightMeta::new("line", "dsr", 1));
        rec.spans.push(EventRecord {
            kind: "span".to_string(),
            id: 1,
            parent: 0,
            name: "discovery".to_string(),
            start_us: 0,
            dur_us: 100,
            trace: None,
            fields: vec![],
        });
        rec.entries.push(TraceEntry {
            id: 4,
            cause: Some(2),
            at: SimTime(1_500),
            node: NodeId(7),
            kind: TraceKind::Deliver {
                from: NodeId(3),
                channel: Channel::Tunnel,
            },
        });
        let doc = chrome_trace(&rec);
        let events = doc.field("traceEvents").and_then(Value::as_array).unwrap();
        // 2 process_name metadata + 1 span + 1 entry.
        assert_eq!(events.len(), 4);
        let tunnel = &events[3];
        assert_eq!(
            tunnel.field("name").and_then(Value::as_str),
            Some("deliver.tunnel")
        );
        assert!(matches!(tunnel.field("tid"), Some(Value::UInt(7))));
        assert!(matches!(tunnel.field("ts"), Some(Value::UInt(1_500))));
        let args = tunnel.field("args").unwrap();
        assert!(matches!(args.field("cause"), Some(Value::UInt(2))));
        assert!(matches!(args.field("from"), Some(Value::UInt(3))));
        // The whole document survives a serialize→parse cycle.
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back.field("traceEvents")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(4)
        );
    }
}
