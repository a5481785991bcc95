//! One-screen statistics over a recording, and recording-vs-recording
//! diffs (e.g. "normal run vs wormhole run of the same scenario").

use crate::record::FlightRecording;
use manet_sim::Channel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregate statistics of one flight recording.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightSummary {
    /// Line discriminator, `"flight_summary"`.
    pub kind: String,
    /// Scenario name from the header.
    pub scenario: String,
    /// Protocol from the header.
    pub protocol: String,
    /// Run seed from the header.
    pub seed: u64,
    /// Recorded trace entries.
    pub entries: u64,
    /// Entries lost to the capacity bound.
    pub dropped: u64,
    /// Causal roots (harness timers/injections).
    pub roots: u64,
    /// Timer firings recorded.
    pub timers: u64,
    /// Fault-channel entries (injected directives plus their drops and
    /// duplicates); 0 on fault-free runs.
    pub faults: u64,
    /// Broadcast deliveries recorded.
    pub broadcast: u64,
    /// Unicast deliveries recorded.
    pub unicast: u64,
    /// Tunnel deliveries recorded (wormhole forensics).
    pub tunnel: u64,
    /// Longest causal chain over all entries.
    pub max_lineage_depth: u64,
    /// Telemetry spans/events in the recording.
    pub spans: u64,
    /// Whether a verdict explanation is attached.
    pub has_explanation: bool,
}

impl FlightSummary {
    /// Summarize `recording`.
    pub fn from_recording(recording: &FlightRecording) -> Self {
        let trace = recording.trace();
        let channel_count = |c: Channel| -> u64 {
            trace
                .entries()
                .iter()
                .filter(|e| e.channel() == Some(c))
                .count() as u64
        };
        FlightSummary {
            kind: "flight_summary".to_string(),
            scenario: recording.meta.scenario.clone(),
            protocol: recording.meta.protocol.clone(),
            seed: recording.meta.seed,
            entries: trace.entries().len() as u64,
            dropped: recording.meta.dropped,
            roots: trace.roots().count() as u64,
            timers: trace
                .entries()
                .iter()
                .filter(|e| matches!(e.kind, manet_sim::TraceKind::Timer { .. }))
                .count() as u64,
            faults: trace.entries().iter().filter(|e| e.is_fault()).count() as u64,
            broadcast: channel_count(Channel::Broadcast),
            unicast: channel_count(Channel::Unicast),
            tunnel: channel_count(Channel::Tunnel),
            max_lineage_depth: trace.max_lineage_depth() as u64,
            spans: recording.spans.len() as u64,
            has_explanation: recording.explanation.is_some(),
        }
    }

    /// The numeric fields as `(name, value)` rows, in display order.
    fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("entries", self.entries),
            ("dropped", self.dropped),
            ("roots", self.roots),
            ("timers", self.timers),
            ("faults", self.faults),
            ("broadcast", self.broadcast),
            ("unicast", self.unicast),
            ("tunnel", self.tunnel),
            ("max_lineage_depth", self.max_lineage_depth),
            ("spans", self.spans),
        ]
    }
}

impl fmt::Display for FlightSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flight: {} · {} · seed {}",
            self.scenario, self.protocol, self.seed
        )?;
        for (name, value) in self.rows() {
            writeln!(f, "  {name:<18} {value}")?;
        }
        writeln!(
            f,
            "  {:<18} {}",
            "explanation",
            if self.has_explanation { "yes" } else { "no" }
        )
    }
}

/// Render a field-by-field diff of two summaries (`b − a` deltas). The
/// interesting signal under a wormhole is the `tunnel` and
/// `max_lineage_depth` rows lighting up.
pub fn diff_summaries(a: &FlightSummary, b: &FlightSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>8}\n",
        "field", "a", "b", "delta"
    ));
    for ((name, va), (_, vb)) in a.rows().into_iter().zip(b.rows()) {
        let delta = vb as i64 - va as i64;
        out.push_str(&format!("{name:<18} {va:>12} {vb:>12} {delta:>+8}\n"));
    }
    if a.has_explanation != b.has_explanation {
        out.push_str(&format!(
            "{:<18} {:>12} {:>12}\n",
            "explanation", a.has_explanation, b.has_explanation
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FlightMeta;
    use manet_sim::{NodeId, SimTime, TraceEntry, TraceKind};

    fn recording(tunnel_entries: u64) -> FlightRecording {
        let mut rec = FlightRecording::new(FlightMeta::new("two_cluster", "mr", 3));
        rec.meta.dropped = 2;
        for i in 0..tunnel_entries {
            rec.entries.push(TraceEntry {
                id: i,
                cause: i.checked_sub(1),
                at: SimTime(i),
                node: NodeId(1),
                kind: TraceKind::Deliver {
                    from: NodeId(0),
                    channel: manet_sim::Channel::Tunnel,
                },
            });
        }
        rec.entries.push(TraceEntry {
            id: 100,
            cause: None,
            at: SimTime(0),
            node: NodeId(0),
            kind: TraceKind::Timer { key: 1 },
        });
        rec
    }

    #[test]
    fn summary_counts_channels_and_depth() {
        let s = FlightSummary::from_recording(&recording(3));
        assert_eq!(s.entries, 4);
        assert_eq!(s.tunnel, 3);
        assert_eq!(s.timers, 1);
        assert_eq!(s.faults, 0);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.max_lineage_depth, 3);
        assert_eq!(s.roots, 2, "first delivery and the timer");
        assert!(!s.has_explanation);
        let rendered = s.to_string();
        assert!(rendered.contains("two_cluster"));
        assert!(rendered.contains("max_lineage_depth"));
    }

    #[test]
    fn fault_entries_count_as_faults_not_timers() {
        let mut rec = recording(1);
        rec.entries.push(TraceEntry {
            id: 101,
            cause: None,
            at: SimTime(5),
            node: NodeId(2),
            kind: TraceKind::Fault {
                kind: manet_sim::FaultKind::NodeDown,
            },
        });
        let s = FlightSummary::from_recording(&rec);
        assert_eq!(s.faults, 1);
        assert_eq!(s.timers, 1, "fault entries must not inflate timers");
        assert!(s.to_string().contains("faults"));
    }

    #[test]
    fn diff_shows_tunnel_delta() {
        let a = FlightSummary::from_recording(&recording(1));
        let b = FlightSummary::from_recording(&recording(4));
        let d = diff_summaries(&a, &b);
        assert!(d.contains("tunnel"), "{d}");
        assert!(d.contains("+3"), "{d}");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = FlightSummary::from_recording(&recording(2));
        let line = serde_json::to_string(&s).unwrap();
        let back: FlightSummary = serde_json::from_str(&line).unwrap();
        assert_eq!(back, s);
    }
}
