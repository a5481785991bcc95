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
//! Every pending event sits in a slot arena addressed by `u32` index and
//! recycled through a free list: its `at`, `seq`, `cause`, [`EventKind`]
//! and a `next` link. Its key is in exactly one of two structures:
//!
//! - **The wheel** holds every event due in `[base, base +`
//!   [`WHEEL_WINDOW_US`]`)`, where `base` is the time of the latest popped
//!   event and never decreases. It has one bucket per microsecond; a
//!   bucket is a FIFO list threaded through the slots' `next` links. A
//!   64-word occupancy bitmap, with one summary word marking its non-empty
//!   words, finds the next non-empty bucket in three bit scans. Radio
//!   deliveries land here, so scheduling and popping one is O(1) however
//!   many events are pending.
//! - **The heap** holds everything else: protocol timers further out,
//!   deliveries a fault delays past the window, and inserts before `base`.
//!   It is a binary min-heap of 24-byte `(at, seq, slot)` keys, so sifts
//!   never move a payload.
//!
//! Nothing migrates between the two. `pop` takes whichever front has the
//! smaller `(at, seq)`; the same `at` can be pending in both, so the
//! comparison needs `seq` too. All wheel entries lie within one window of
//! `base`, so a bucket only ever holds one `at`, and entries join it in
//! increasing `seq`: each bucket's FIFO order is `(at, seq)` order.
//!
//! Because `seq` is unique, `(at, seq)` is a *total* order: any correct
//! priority queue yields the identical pop sequence, so "pop the minimum
//! pending `(at, seq)`" fully specifies the queue. The tests below and
//! `tests/props_sim.rs` check every pop against an ordered-set model of
//! the pending keys, with times spread over several windows and inserts
//! before `base`, and `tests/differential_hotpath.rs` checks whole
//! scenario traces against output frozen from the pre-overhaul
//! `BinaryHeap` queue.

use crate::ids::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// How a message reached a node. Routing behaviours generally treat the
/// channels identically, but attack analysis and traces distinguish them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
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

/// Width of the timing wheel, in microseconds (one bucket each). It
/// covers every delivery [`LatencyModel::default`] samples over a link
/// shorter than 209 distance units: 1 ms base, under 1 ms of jitter and
/// 10 µs per unit add up to less than 4.096 ms. An event due later (a
/// slower latency model, a fault's extra delay, a protocol timer) goes to
/// the heap, which costs speed but never changes the order.
///
/// [`LatencyModel::default`]: crate::radio::LatencyModel
pub const WHEEL_WINDOW_US: u64 = 4096;

/// Words of the wheel's occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_WINDOW_US as usize / 64;

/// The end of a bucket's list (never a slot index).
const NIL: u32 = u32::MAX;

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

/// Arena-parked pending event. `next` links a wheel bucket's entries in
/// FIFO order (`NIL` ends the list; unused for heap entries).
struct Slot<M> {
    at: SimTime,
    seq: u64,
    next: u32,
    cause: Option<u64>,
    kind: EventKind<M>,
}

/// The first and last slot of one wheel bucket's list. Meaningful only
/// while the bucket's occupancy bit is set.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// Where the earliest pending event is.
#[derive(Clone, Copy)]
enum Front {
    /// At the head of this wheel bucket.
    Wheel(usize),
    /// At the root of the heap.
    Heap,
}

/// Priority queue of pending events: a timing wheel for the near future,
/// a min-heap of `(at, seq, slot)` keys for the rest, and the payload
/// arena they share (see the module docs).
pub struct EventQueue<M> {
    heap: Vec<HeapKey>,
    buckets: Box<[Bucket]>,
    /// One bit per bucket, set while the bucket holds an entry.
    occupied: [u64; WHEEL_WORDS],
    /// One bit per `occupied` word, set while the word is non-zero.
    occupied_words: u64,
    /// Time of the latest popped event: every wheel entry is due in
    /// `[base, base + WHEEL_WINDOW_US)`.
    base: SimTime,
    wheel_len: usize,
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
            buckets: vec![Bucket::default(); WHEEL_WINDOW_US as usize].into_boxed_slice(),
            occupied: [0; WHEEL_WORDS],
            occupied_words: 0,
            base: SimTime::ZERO,
            wheel_len: 0,
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
        let payload = Some(Slot {
            at,
            seq,
            next: NIL,
            cause,
            kind,
        });
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = payload;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("event queue slot overflow");
                self.slots.push(payload);
                s
            }
        };
        if at >= self.base && at.0 - self.base.0 < WHEEL_WINDOW_US {
            let b = (at.0 % WHEEL_WINDOW_US) as usize;
            let (word, bit) = (b / 64, 1u64 << (b % 64));
            if self.occupied[word] & bit == 0 {
                self.occupied[word] |= bit;
                self.occupied_words |= 1 << word;
                self.buckets[b] = Bucket {
                    head: slot,
                    tail: slot,
                };
            } else {
                let tail = self.buckets[b].tail;
                self.slot_mut(tail).next = slot;
                self.buckets[b].tail = slot;
            }
            self.wheel_len += 1;
        } else {
            self.heap.push(HeapKey { at, seq, slot });
            self.sift_up(self.heap.len() - 1);
        }
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
        self.pop_due(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is due at or before
    /// `until`; `None` when nothing is. One front lookup serves both the
    /// deadline check and the removal.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<Event<M>> {
        let (at, front) = self.front().filter(|&(at, _)| at <= until)?;
        let slot = match front {
            Front::Wheel(b) => {
                self.wheel_len -= 1;
                let head = self.buckets[b].head;
                let next = self.slot_mut(head).next;
                if next == NIL {
                    let word = b / 64;
                    self.occupied[word] &= !(1u64 << (b % 64));
                    if self.occupied[word] == 0 {
                        self.occupied_words &= !(1 << word);
                    }
                } else {
                    self.buckets[b].head = next;
                }
                head
            }
            Front::Heap => {
                let key = self.heap.swap_remove(0);
                if !self.heap.is_empty() {
                    self.sift_down(0);
                }
                key.slot
            }
        };
        let payload = self.slots[slot as usize]
            .take()
            .expect("popped key addresses a live slot");
        self.free.push(slot);
        self.base = self.base.max(at);
        Some(Event {
            at,
            seq: payload.seq,
            cause: payload.cause,
            kind: payload.kind,
        })
    }

    /// The time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel_len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    fn slot_mut(&mut self, slot: u32) -> &mut Slot<M> {
        self.slots[slot as usize]
            .as_mut()
            .expect("queued key addresses a live slot")
    }

    /// The earliest pending event's time and place: the smaller
    /// `(at, seq)` of the wheel's and the heap's fronts.
    #[inline]
    fn front(&self) -> Option<(SimTime, Front)> {
        let wheel = self.wheel_front().map(|b| {
            let head = self.slots[self.buckets[b].head as usize]
                .as_ref()
                .expect("queued key addresses a live slot");
            ((head.at, head.seq), Front::Wheel(b))
        });
        let heap = self.heap.first().map(|k| ((k.at, k.seq), Front::Heap));
        wheel
            .into_iter()
            .chain(heap)
            .min_by_key(|&(key, _)| key)
            .map(|((at, _), front)| (at, front))
    }

    /// The first occupied bucket at or after `base`'s, wrapping round the
    /// wheel: since every entry is due within one window of `base`, that
    /// bucket holds the earliest wheel entry. Three bit scans, however
    /// sparse the wheel.
    #[inline]
    fn wheel_front(&self) -> Option<usize> {
        if self.occupied_words == 0 {
            return None;
        }
        let start = (self.base.0 % WHEEL_WINDOW_US) as usize;
        let (first, shift) = (start / 64, start % 64);
        let here = self.occupied[first] & (!0u64 << shift);
        if here != 0 {
            return Some(first * 64 + here.trailing_zeros() as usize);
        }
        // The first non-empty word after `first`; failing that, the lowest
        // one, which wraps round to `first` itself (its bits below `shift`
        // are due last).
        let words = self.occupied_words;
        let later = words & (!1u64 << first);
        let word = if later != 0 { later } else { words }.trailing_zeros() as usize;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
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

    /// Heap-parked event at `at`, then a wheel twin: the heap entry was
    /// scheduled first, so it must pop first.
    #[test]
    fn equal_times_in_heap_and_wheel_pop_in_seq_order() {
        let mut q = EventQueue::new();
        let far = SimTime(3 * WHEEL_WINDOW_US);
        q.schedule(SimTime(0), timer(0, 0));
        q.schedule(far, timer(1, 0)); // past the window: heap
        q.schedule(SimTime(2 * WHEEL_WINDOW_US + 1), timer(2, 0)); // heap
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2); // base moves within a window of `far`
        q.schedule(far, timer(3, 0)); // now inside the window: wheel
        assert_eq!((q.heap.len(), q.wheel_len), (1, 1));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.0, e.seq))
            .collect();
        assert_eq!(order, vec![(far.0, 1), (far.0, 3)]);
    }

    #[test]
    fn the_wheel_wraps_round_in_time_order() {
        let mut q = EventQueue::new();
        let w = WHEEL_WINDOW_US;
        q.schedule(SimTime(w - 10), timer(0, 0));
        // Base is now w - 10: buckets past the wheel's end wrap to its
        // start, and `2 * w - 11` lands in base's own word, below it.
        assert_eq!(q.pop().unwrap().at.0, w - 10);
        for at in [w + 20, w - 5, 2 * w - 11, w, w + 63, w + 64] {
            q.schedule(SimTime(at), timer(0, at));
        }
        assert_eq!((q.heap.len(), q.wheel_len), (0, 6));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![w - 5, w, w + 20, w + 63, w + 64, 2 * w - 11]);
    }

    #[test]
    fn backends_agree_on_interleaved_schedules_and_pops() {
        // Model: pending `(at, seq)` keys mapped to their causes. `(at,
        // seq)` is a total order, so every pop must return the model's
        // first entry. Times are drawn relative to the latest pop, from
        // half a window before it to three windows after, and a fifth of
        // the inserts reuse the front's time, so both structures hold
        // events and share times.
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
        let mut latest = 0u64;
        let (mut ties, mut before_base, mut heap_only) = (0, 0, 0);
        for step in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x.is_multiple_of(3) {
                let (got, want) = pop_both(&mut q, &mut model);
                assert_eq!(got, want, "step {step}");
                latest = latest.max(got.map_or(0, |(at, _, _)| at.0));
            } else {
                let at = match model.keys().next() {
                    Some(&(front, _)) if x.is_multiple_of(5) => front,
                    _ => {
                        let span = 7 * WHEEL_WINDOW_US / 2;
                        SimTime((latest + (x >> 33) % span).saturating_sub(WHEEL_WINDOW_US / 2))
                    }
                };
                if at.0 < latest {
                    before_base += 1;
                }
                let cause = x.is_multiple_of(7).then_some(step);
                let heap_before = q.heap.len();
                q.schedule_caused(at, timer(0, step), cause);
                let in_heap = |k: &HeapKey| k.at == at && k.seq < next_seq;
                if q.heap.len() == heap_before && q.heap.iter().any(in_heap) {
                    ties += 1;
                }
                model.insert((at, next_seq), cause);
                next_seq += 1;
            }
            if q.wheel_len == 0 && !q.heap.is_empty() {
                heap_only += 1;
            }
            assert_eq!(q.len(), model.len(), "step {step}");
            assert_eq!(
                q.peek_time(),
                model.keys().next().map(|&(at, _)| at),
                "step {step}"
            );
        }
        assert!(latest > 3 * WHEEL_WINDOW_US, "spread over several windows");
        assert!(ties > 0, "equal times in the heap and the wheel");
        assert!(before_base > 0, "inserts before the latest pop");
        assert!(heap_only > 0, "an empty wheel with heap events pending");
        loop {
            let (got, want) = pop_both(&mut q, &mut model);
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
