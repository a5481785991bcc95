//! Structural event tracing — the causal flight recorder.
//!
//! When enabled on a [`Network`](crate::engine::Network), every dispatched
//! event is recorded *structurally* — time, node, channel, peers — without
//! cloning message payloads, so tracing stays cheap enough for tests and
//! post-mortem analysis of whole discoveries (e.g. verifying the flood
//! wavefront ordering, or counting how often a tunnel fired).
//!
//! Beyond the flat log, every entry carries **causal lineage**: its own
//! event id plus the id of the event during whose handling it was
//! scheduled (`cause`). A rebroadcast RREQ's delivery points at the
//! reception that triggered it, a wormhole's egress points at its tunnel
//! ingress, and an RREP hop points at the previous hop — so the full
//! flood-to-verdict provenance of any packet is a walk up the `cause`
//! chain ([`Trace::lineage`]). Causes always refer to *earlier* dispatched
//! events (you can only schedule from inside a handler), which makes the
//! causal graph acyclic by construction; the lineage property test pins
//! this.

use crate::event::{Channel, FaultKind};
use crate::ids::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What kind of event was dispatched.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TraceKind {
    /// A message delivery over the given channel.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Delivery channel.
        channel: Channel,
    },
    /// A timer firing with the given key.
    Timer {
        /// Behaviour-defined key.
        key: u64,
    },
    /// A fault activation or consequence — the trace's "fault channel".
    /// Scheduled directives (burst edges, churn) record at dispatch;
    /// per-delivery consequences (drops, duplicates) record at decision
    /// time with `cause` pointing at the event whose handler scheduled the
    /// affected delivery.
    Fault {
        /// What happened.
        kind: FaultKind,
    },
}

/// One dispatched event, with causal lineage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TraceEntry {
    /// This event's id (the engine's scheduling sequence number — unique
    /// per network, but *not* monotone in dispatch order, since a later
    /// scheduling can fire earlier).
    pub id: u64,
    /// Id of the event during whose handling this one was scheduled;
    /// `None` for roots (harness-scheduled timers and injections).
    pub cause: Option<u64>,
    /// When the event fired.
    pub at: SimTime,
    /// The node it was dispatched to.
    pub node: NodeId,
    /// What it was.
    pub kind: TraceKind,
}

impl TraceEntry {
    /// The delivery channel, if this entry is a delivery.
    pub fn channel(&self) -> Option<Channel> {
        match self.kind {
            TraceKind::Deliver { channel, .. } => Some(channel),
            TraceKind::Timer { .. } | TraceKind::Fault { .. } => None,
        }
    }

    /// The sending node, if this entry is a delivery.
    pub fn from(&self) -> Option<NodeId> {
        match self.kind {
            TraceKind::Deliver { from, .. } => Some(from),
            TraceKind::Timer { .. } | TraceKind::Fault { .. } => None,
        }
    }

    /// Whether this entry rides the fault channel.
    pub fn is_fault(&self) -> bool {
        matches!(self.kind, TraceKind::Fault { .. })
    }
}

/// A bounded trace buffer. When full, further entries are counted in
/// [`Trace::dropped`] but not stored (the capacity bound keeps long runs
/// from ballooning).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace buffer holding up to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Rebuild a trace from previously recorded entries (e.g. a flight
    /// recording loaded from disk), so the lineage queries work offline.
    /// `dropped` restores the original run's overflow count.
    pub fn from_entries(entries: Vec<TraceEntry>, dropped: u64) -> Self {
        let capacity = entries.len();
        Trace {
            entries,
            capacity,
            dropped,
        }
    }

    /// Record one entry.
    pub fn record(&mut self, entry: TraceEntry) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded entries, in dispatch order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries that exceeded the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clear the buffer (keeps the capacity).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }

    /// Deliveries to `node`, in order.
    pub fn deliveries_to(&self, node: NodeId) -> impl Iterator<Item = &TraceEntry> {
        self.entries
            .iter()
            .filter(move |e| e.node == node && matches!(e.kind, TraceKind::Deliver { .. }))
    }

    /// Number of tunnel deliveries recorded (attack forensics).
    pub fn tunnel_deliveries(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.channel() == Some(Channel::Tunnel))
            .count()
    }

    /// First delivery time at `node`, if any — the flood wavefront.
    pub fn first_delivery_at(&self, node: NodeId) -> Option<SimTime> {
        self.deliveries_to(node).map(|e| e.at).next()
    }

    /// The entry with event id `id`, if recorded.
    pub fn entry(&self, id: u64) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// The causal chain of event `id`, from the event itself back to its
    /// root, child first. Empty when `id` was never recorded; the chain
    /// stops early if an ancestor fell past the capacity bound.
    pub fn lineage(&self, id: u64) -> Vec<TraceEntry> {
        let by_id: HashMap<u64, &TraceEntry> = self.entries.iter().map(|e| (e.id, e)).collect();
        let mut chain = Vec::new();
        let mut cursor = Some(id);
        // Causes always precede their children in dispatch order, so the
        // chain cannot cycle; the bound is pure defence against a
        // corrupted (hand-built) trace.
        while let Some(cur) = cursor {
            let Some(entry) = by_id.get(&cur) else { break };
            chain.push(**entry);
            cursor = entry.cause;
            if chain.len() > self.entries.len() {
                break;
            }
        }
        chain
    }

    /// Length of the causal chain of `id` (0 when unknown).
    pub fn lineage_depth(&self, id: u64) -> usize {
        self.lineage(id).len()
    }

    /// Tunnel deliveries on the causal chain of `id` — how many times the
    /// packet's provenance crossed a wormhole.
    pub fn tunnel_traversals(&self, id: u64) -> usize {
        self.lineage(id)
            .iter()
            .filter(|e| e.channel() == Some(Channel::Tunnel))
            .count()
    }

    /// The longest causal chain over all recorded entries. Single pass:
    /// a cause is always dispatched (hence recorded) before its children,
    /// so each entry's depth is its cause's depth plus one.
    pub fn max_lineage_depth(&self) -> usize {
        let mut depth: HashMap<u64, usize> = HashMap::with_capacity(self.entries.len());
        let mut max = 0usize;
        for e in &self.entries {
            let d = e
                .cause
                .and_then(|c| depth.get(&c).copied())
                .map_or(1, |p| p + 1);
            depth.insert(e.id, d);
            max = max.max(d);
        }
        max
    }

    /// Recorded roots: entries with no recorded cause (harness timers,
    /// injections, or children of dropped ancestors).
    pub fn roots(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(|e| e.cause.is_none())
    }

    /// Number of fault-channel entries recorded (activations, drops,
    /// duplicates) — zero on a clean run.
    pub fn fault_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_fault()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(id: u64, cause: Option<u64>, at: u64, node: u32, from: u32) -> TraceEntry {
        TraceEntry {
            id,
            cause,
            at: SimTime(at),
            node: NodeId(node),
            kind: TraceKind::Deliver {
                from: NodeId(from),
                channel: Channel::Broadcast,
            },
        }
    }

    fn tunnel(id: u64, cause: Option<u64>, at: u64, node: u32, from: u32) -> TraceEntry {
        TraceEntry {
            kind: TraceKind::Deliver {
                from: NodeId(from),
                channel: Channel::Tunnel,
            },
            ..deliver(id, cause, at, node, from)
        }
    }

    #[test]
    fn records_up_to_capacity_then_counts_drops() {
        let mut t = Trace::with_capacity(2);
        t.record(deliver(0, None, 1, 0, 1));
        t.record(deliver(1, Some(0), 2, 0, 1));
        t.record(deliver(2, Some(1), 3, 0, 1));
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.entries().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn filters_by_node_and_channel() {
        let mut t = Trace::with_capacity(10);
        t.record(deliver(0, None, 1, 5, 1));
        t.record(tunnel(1, Some(0), 2, 5, 2));
        t.record(tunnel(2, Some(1), 3, 6, 1));
        t.record(TraceEntry {
            id: 3,
            cause: None,
            at: SimTime(4),
            node: NodeId(5),
            kind: TraceKind::Timer { key: 9 },
        });
        assert_eq!(t.deliveries_to(NodeId(5)).count(), 2);
        assert_eq!(t.tunnel_deliveries(), 2);
        assert_eq!(t.first_delivery_at(NodeId(5)), Some(SimTime(1)));
        assert_eq!(t.first_delivery_at(NodeId(9)), None);
    }

    #[test]
    fn lineage_walks_back_to_the_root() {
        let mut t = Trace::with_capacity(10);
        t.record(deliver(0, None, 1, 1, 0));
        t.record(tunnel(1, Some(0), 2, 2, 1));
        t.record(deliver(2, Some(1), 3, 3, 2));
        t.record(deliver(7, None, 3, 9, 8)); // unrelated root
        let chain = t.lineage(2);
        assert_eq!(
            chain.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
        assert_eq!(t.lineage_depth(2), 3);
        assert_eq!(t.lineage_depth(0), 1);
        assert_eq!(t.lineage_depth(99), 0, "unknown id has no lineage");
        assert_eq!(t.tunnel_traversals(2), 1);
        assert_eq!(t.tunnel_traversals(0), 0);
        assert_eq!(t.max_lineage_depth(), 3);
        assert_eq!(t.roots().count(), 2);
        assert_eq!(t.entry(7).unwrap().node, NodeId(9));
    }

    #[test]
    fn fault_entries_ride_their_own_channel() {
        let mut t = Trace::with_capacity(10);
        t.record(deliver(0, None, 1, 5, 1));
        t.record(TraceEntry {
            id: 1,
            cause: Some(0),
            at: SimTime(2),
            node: NodeId(3),
            kind: TraceKind::Fault {
                kind: FaultKind::Dropped { from: NodeId(5) },
            },
        });
        t.record(TraceEntry {
            id: 2,
            cause: None,
            at: SimTime(3),
            node: NodeId(0),
            kind: TraceKind::Fault {
                kind: FaultKind::BurstStart { idx: 0 },
            },
        });
        assert_eq!(t.fault_entries(), 2);
        let fault = t.entry(1).unwrap();
        assert!(fault.is_fault());
        assert_eq!(fault.channel(), None, "faults are not deliveries");
        assert_eq!(fault.from(), None);
        assert_eq!(
            t.deliveries_to(NodeId(3)).count(),
            0,
            "a dropped delivery never counts as delivered"
        );
        // Fault consequences carry causal lineage like any other entry.
        assert_eq!(t.lineage_depth(1), 2);
    }

    #[test]
    fn lineage_stops_at_a_dropped_ancestor() {
        let mut t = Trace::with_capacity(10);
        // Cause 5 was never recorded (fell past capacity in a real run).
        t.record(deliver(6, Some(5), 2, 1, 0));
        t.record(deliver(7, Some(6), 3, 2, 1));
        let chain = t.lineage(7);
        assert_eq!(
            chain.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![7, 6],
            "chain truncates where the trace lost the ancestor"
        );
        assert_eq!(t.max_lineage_depth(), 2);
    }
}
