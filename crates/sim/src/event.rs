//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`. The monotonically increasing
//! sequence number breaks ties deterministically in insertion order, which
//! is what makes whole simulation runs reproducible from a seed: two events
//! scheduled for the same microsecond always fire in the order they were
//! scheduled.
//!
//! ## Layout
//!
//! The queue is struct-of-arrays: a manual binary heap over 24-byte
//! `(at, seq, slot)` keys, with the variable-sized payloads (`cause` +
//! [`EventKind`]) parked in a slot arena addressed by `u32` index and
//! recycled through a free list. Sift operations therefore move small
//! fixed-size keys instead of whole events — the payload for a routing
//! simulation carries a `Vec<NodeId>` path, so a `BinaryHeap<Event<M>>`
//! would shuffle ~64-byte structs on every push/pop.
//!
//! Because `seq` is unique, `(at, seq)` is a *total* order: any correct
//! priority queue yields the identical pop sequence, so "pop the minimum
//! pending `(at, seq)`" fully specifies the queue. The tests below and
//! `tests/props_sim.rs` check every pop against an ordered-set model of
//! the pending keys, and `tests/differential_hotpath.rs` checks whole
//! scenario traces against output frozen from the pre-overhaul
//! `BinaryHeap` queue.

use crate::ids::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// How a message reached a node. Routing behaviours generally treat the
/// channels identically, but attack analysis and traces distinguish them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Channel {
    /// Over-the-air reception of a local broadcast.
    Broadcast,
    /// Over-the-air reception of a unicast addressed to this node.
    Unicast,
    /// Delivery over an out-of-band tunnel (the wormhole's private channel).
    Tunnel,
}

/// What a fault-channel event does. Scheduled directives (burst edges,
/// churn) fire through the run loop like any other event; per-delivery
/// consequences (drops, duplicates) are recorded at decision time. Either
/// way the activation lands in the causal trace, so a recording explains
/// *why* a route set changed, not just that it did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FaultKind {
    /// A loss burst (plan index `idx`) switches on.
    BurstStart {
        /// Index into the fault plan's burst list.
        idx: u32,
    },
    /// A loss burst switches off.
    BurstEnd {
        /// Index into the fault plan's burst list.
        idx: u32,
    },
    /// The node's radio goes down (crash or leave).
    NodeDown,
    /// The node's radio comes back (recover or join).
    NodeUp,
    /// A delivery from `from` to this node was dropped by a fault.
    Dropped {
        /// The dropped delivery's sender.
        from: NodeId,
    },
    /// A delivery from `from` to this node was duplicated by jitter.
    Duplicated {
        /// The duplicated delivery's sender.
        from: NodeId,
    },
}

/// A scheduled occurrence.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// Deliver `msg` to node `to`; it was sent by `from` over `channel`.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Sending node.
        from: NodeId,
        /// Delivery channel.
        channel: Channel,
        /// The payload.
        msg: M,
    },
    /// Fire the timer `key` at node `node`. `key` is behaviour-defined.
    Timer {
        /// Node whose timer fires.
        node: NodeId,
        /// Behaviour-defined timer key.
        key: u64,
    },
    /// A scheduled fault directive fires (dispatched to the network's
    /// fault hook, not to a behaviour). `node` is the affected node for
    /// churn directives and `NodeId(0)` for network-scoped burst edges.
    Fault {
        /// Affected node (churn) or `NodeId(0)` (network-scoped).
        node: NodeId,
        /// What the directive does.
        kind: FaultKind,
    },
}

/// An event plus its firing time, tie-break sequence, and causal parent.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// Firing time.
    pub at: SimTime,
    /// Scheduling sequence number (tie-break). Doubles as the event's
    /// lineage id: unique per queue, so traces can link effects to causes.
    pub seq: u64,
    /// Lineage id (`seq`) of the event during whose handling this one was
    /// scheduled; `None` for harness-scheduled roots.
    pub cause: Option<u64>,
    /// What happens.
    pub kind: EventKind<M>,
}

/// One heap key: the total order `(at, seq)` plus the arena slot holding
/// the payload. Sifts move these 24-byte keys, never the payload.
#[derive(Clone, Copy)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    #[inline]
    fn precedes(self, other: HeapKey) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Arena-parked payload of one pending event.
struct Slot<M> {
    cause: Option<u64>,
    kind: EventKind<M>,
}

/// Priority queue of pending events: a min-heap of `(at, seq, slot)`
/// keys plus the payload arena (see the module docs).
pub struct EventQueue<M> {
    heap: Vec<HeapKey>,
    slots: Vec<Option<Slot<M>>>,
    free: Vec<u32>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `kind` at absolute time `at` as a causal root.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        self.schedule_caused(at, kind, None);
    }

    /// Schedule `kind` at absolute time `at`, recording the lineage id of
    /// the event that caused it (the engine passes the id of the event
    /// currently being dispatched).
    pub fn schedule_caused(&mut self, at: SimTime, kind: EventKind<M>, cause: Option<u64>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let payload = Some(Slot { cause, kind });
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = payload;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(payload);
                s
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Allocate one lineage id without scheduling anything. Used for
    /// occurrences that are recorded but never dispatched — e.g. a
    /// fault-dropped delivery gets a trace entry with a fresh id in place
    /// of the event it would have been.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.heap.is_empty() {
            return None;
        }
        let key = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let payload = self.slots[key.slot as usize]
            .take()
            .expect("popped key addresses a live slot");
        self.free.push(key.slot);
        Some(Event {
            at: key.at,
            seq: key.seq,
            cause: payload.cause,
            kind: payload.kind,
        })
    }

    /// The time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (diagnostic; bounds run cost).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Number of arena slots currently holding a pending payload. Always
    /// equals [`EventQueue::len`]. Exposed for the no-leak property tests.
    pub fn live_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total arena slots ever allocated (live + free-listed). A drained
    /// queue must satisfy `free_slots() == slot_capacity()` — otherwise a
    /// slot leaked.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently on the free list, ready for reuse.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Hole-technique sift (one copy per level, like `BinaryHeap`):
    /// the moving key is held in a register while displaced keys shift
    /// into the hole, and is written back once at its final position.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if key.precedes(self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = key;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let key = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < len && self.heap[right].precedes(self.heap[left]) {
                best = right;
            }
            if self.heap[best].precedes(key) {
                self.heap[i] = self.heap[best];
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn timer(node: u32, key: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            key,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(0, 0));
        q.schedule(SimTime(10), timer(1, 0));
        q.schedule(SimTime(20), timer(2, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for k in 0..5u64 {
            q.schedule(SimTime(7), timer(0, k));
        }
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cause_rides_with_the_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), timer(0, 0));
        q.schedule_caused(SimTime(2), timer(0, 1), Some(0));
        assert_eq!(q.pop().unwrap().cause, None);
        assert_eq!(q.pop().unwrap().cause, Some(0));
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1), timer(0, 0));
        q.schedule(SimTime(2), timer(0, 1));
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(2)));
    }

    #[test]
    fn slots_recycle_without_leaking() {
        let mut q: EventQueue<()> = EventQueue::new();
        for round in 0..3u64 {
            for k in 0..8 {
                q.schedule(SimTime(round * 100 + k), timer(0, k));
            }
            while q.pop().is_some() {}
            assert_eq!(q.live_slots(), 0, "round {round}");
            assert_eq!(q.free_slots(), q.slot_capacity(), "round {round}");
        }
        // The arena never grew past the first round's high-water mark.
        assert_eq!(q.slot_capacity(), 8);
    }

    #[test]
    fn backends_agree_on_interleaved_schedules_and_pops() {
        // Model: pending `(at, seq)` keys mapped to their causes. `(at,
        // seq)` is a total order, so every pop must return the model's
        // first entry.
        type Model = BTreeMap<(SimTime, u64), Option<u64>>;
        type Popped = Option<(SimTime, u64, Option<u64>)>;
        fn pop_both(q: &mut EventQueue<()>, model: &mut Model) -> (Popped, Popped) {
            let got = q.pop().map(|e| (e.at, e.seq, e.cause));
            let want = model.pop_first().map(|((at, seq), cause)| (at, seq, cause));
            (got, want)
        }
        let mut q: EventQueue<()> = EventQueue::new();
        let mut model = Model::new();
        // Deterministic pseudo-random interleaving.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_seq = 0u64;
        for step in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x.is_multiple_of(3) {
                let (got, want) = pop_both(&mut q, &mut model);
                assert_eq!(got, want, "step {step}");
            } else {
                let at = SimTime(x % 50);
                let cause = x.is_multiple_of(5).then_some(step);
                q.schedule_caused(at, timer(0, step), cause);
                model.insert((at, next_seq), cause);
                next_seq += 1;
            }
            assert_eq!(q.len(), model.len(), "step {step}");
            assert_eq!(
                q.peek_time(),
                model.keys().next().map(|&(at, _)| at),
                "step {step}"
            );
        }
        loop {
            let (got, want) = pop_both(&mut q, &mut model);
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
