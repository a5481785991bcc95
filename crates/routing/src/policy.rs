//! RREQ duplicate-forwarding policies — the defining difference between
//! the protocols the paper compares.
//!
//! * **DSR** forwards only the first copy of each RREQ (classic duplicate
//!   suppression).
//! * **MR** — the paper's protocol — forwards the first copy *and* every
//!   later duplicate "that has not been forwarded by the node and whose hop
//!   count is not larger than that of the first received RREQ". It ignores
//!   the incoming link, which is exactly how the paper distinguishes it
//!   from SMR ("the intermediate nodes do not consider the incoming link of
//!   the duplicate RREQ, thus it may find more routes than SMR").
//! * **SMR** (Lee & Gerla) additionally requires the duplicate to arrive
//!   over a *different incoming link* than the first copy; we forward at
//!   most one copy per distinct incoming link.
//! * **AOMDV-flavoured** forwarding (future-work protocol in the paper):
//!   duplicates are never re-flooded — like DSR — but the *destination*
//!   accepts alternate copies arriving over distinct last hops, which is
//!   where AOMDV's multiple loop-free paths come from. See
//!   `DestinationAccept` below. (AOMDV proper is distance-vector; we keep
//!   the accumulated path in the RREQ purely as measurement bookkeeping, a
//!   substitution documented in DESIGN.md.)
//!
//! Both the forwarding policy and the destination rule keep their
//! per-discovery state in one scratch store (`FastSeen`). The test module
//! keeps the pre-overhaul `HashMap`/`HashSet` rules as an oracle and
//! checks every decision against them on random arrival streams.

use crate::packet::{Rreq, RreqId};
use manet_sim::NodeId;
use serde::{Deserialize, Serialize};

/// Which protocol a router speaks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Classic single-path DSR.
    Dsr,
    /// The paper's multi-path protocol (SMR minus the incoming-link rule).
    Mr,
    /// Split Multipath Routing (Lee & Gerla 2001).
    Smr,
    /// AOMDV-flavoured multipath distance vector.
    Aomdv,
}

impl ProtocolKind {
    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Dsr => "dsr",
            ProtocolKind::Mr => "mr",
            ProtocolKind::Smr => "smr",
            ProtocolKind::Aomdv => "aomdv",
        }
    }

    /// Whether one discovery is expected to yield more than one route.
    pub fn is_multipath(self) -> bool {
        !matches!(self, ProtocolKind::Dsr)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-discovery bookkeeping at one node. The incoming links over which
/// a copy was forwarded (SMR) or accepted (AOMDV destination) live as a
/// `(start, len)` range in the store's shared prev arena.
#[derive(Clone, Copy, Debug)]
struct FastSeenState {
    /// Hop count of the first copy received.
    first_hops: usize,
    /// Last hop (incoming link) of the first copy.
    first_prev: Option<NodeId>,
    prev_start: u32,
    prev_len: u32,
    /// Total copies forwarded (MR safety cap).
    forwarded: u32,
}

/// Scratch-region store for per-discovery state: a flat entry list
/// (scanned backwards — an arriving copy almost always belongs to the
/// most recent discovery) plus one bump-allocated arena shared by every
/// entry's forwarded-incoming-link set. Nothing is freed per RREQ; the
/// whole region resets in O(1) between experiments. The incoming-link
/// sets are tiny (bounded by `max_forwards`, typically 1–3), so linear
/// membership scans beat per-copy hashing.
#[derive(Clone, Debug, Default)]
struct FastSeen {
    entries: Vec<(RreqId, FastSeenState)>,
    prevs: Vec<NodeId>,
}

impl FastSeen {
    /// Index of the entry for `id`, scanning most-recent-first.
    fn find(&self, id: RreqId) -> Option<usize> {
        self.entries.iter().rposition(|&(e, _)| e == id)
    }

    fn prevs_of(&self, st: FastSeenState) -> &[NodeId] {
        &self.prevs[st.prev_start as usize..(st.prev_start + st.prev_len) as usize]
    }

    /// Append `prev` to the entry's incoming-link range. If another
    /// discovery bumped the arena past this entry's range, the range is
    /// first relocated to the tail (rare: discoveries seldom interleave
    /// at one node, and the ranges are tiny).
    fn push_prev(&mut self, idx: usize, prev: NodeId) {
        let st = &mut self.entries[idx].1;
        let end = (st.prev_start + st.prev_len) as usize;
        if end != self.prevs.len() {
            let start = st.prev_start as usize;
            st.prev_start = self.prevs.len() as u32;
            self.prevs.extend_from_within(start..end);
        }
        self.prevs.push(prev);
        st.prev_len += 1;
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.prevs.clear();
    }
}

/// Decides, per arriving RREQ copy, whether this node rebroadcasts it.
///
/// One instance lives in every router; state is per [`RreqId`].
#[derive(Clone, Debug)]
pub struct ForwardPolicy {
    kind: ProtocolKind,
    /// Upper bound on copies a single node forwards for one discovery.
    /// MR's rule is open-ended; real radios are not. The default (64) is
    /// far above anything observed in the paper-scale topologies and
    /// exists only to keep adversarially dense inputs finite; the
    /// `ablation_window` bench quantifies its (non-)effect.
    max_forwards: u32,
    seen: FastSeen,
}

/// The decision for one arriving copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForwardDecision {
    /// Rebroadcast (after appending self).
    Forward,
    /// Drop silently.
    Drop,
}

impl ForwardPolicy {
    /// Policy for `kind` with the default duplicate cap.
    pub fn new(kind: ProtocolKind) -> Self {
        Self::with_max_forwards(kind, 64)
    }

    /// Override the per-discovery forward cap.
    pub fn with_max_forwards(kind: ProtocolKind, cap: u32) -> Self {
        ForwardPolicy {
            kind,
            max_forwards: cap.max(1),
            seen: FastSeen::default(),
        }
    }

    /// The protocol this policy implements.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Decide whether the node should rebroadcast this copy. `self_id` is
    /// the deciding node (copies that already visited it are always
    /// dropped — source-route loop prevention).
    pub fn decide(&mut self, self_id: NodeId, rreq: &Rreq) -> ForwardDecision {
        if rreq.path.contains(&self_id) {
            return ForwardDecision::Drop;
        }
        let hops = rreq.hops();
        let prev = rreq.last_hop();
        let seen = &mut self.seen;
        match seen.find(rreq.id) {
            None => {
                // First copy: every protocol forwards it.
                let start = seen.prevs.len() as u32;
                seen.prevs.push(prev);
                seen.entries.push((
                    rreq.id,
                    FastSeenState {
                        first_hops: hops,
                        first_prev: Some(prev),
                        prev_start: start,
                        prev_len: 1,
                        forwarded: 1,
                    },
                ));
                ForwardDecision::Forward
            }
            Some(idx) => {
                let st = seen.entries[idx].1;
                if st.forwarded >= self.max_forwards {
                    return ForwardDecision::Drop;
                }
                let ok = match self.kind {
                    // Duplicates never re-flooded.
                    ProtocolKind::Dsr | ProtocolKind::Aomdv => false,
                    // Paper's MR: hop bound only.
                    ProtocolKind::Mr => hops <= st.first_hops,
                    // SMR: hop bound + different incoming link, at most
                    // one forward per incoming link.
                    ProtocolKind::Smr => {
                        hops <= st.first_hops
                            && st.first_prev != Some(prev)
                            && !seen.prevs_of(st).contains(&prev)
                    }
                };
                if ok {
                    seen.entries[idx].1.forwarded += 1;
                    seen.push_prev(idx, prev);
                    ForwardDecision::Forward
                } else {
                    ForwardDecision::Drop
                }
            }
        }
    }

    /// Forget all per-discovery state (e.g. between experiments reusing
    /// behaviours). O(1) for the scratch store: the region is reused.
    pub fn reset(&mut self) {
        self.seen.clear();
    }
}

/// Destination-side acceptance of arriving RREQ copies.
///
/// MR/SMR destinations record every copy arriving inside the collection
/// window; a DSR destination replies to every copy it hears (each came via
/// a different neighbour because duplicates are not re-flooded); an
/// AOMDV-flavoured destination accepts at most one copy per distinct last
/// hop, mirroring its "alternate path per distinct neighbour" rule.
///
/// The accepted last hops of each discovery are kept in the same scratch
/// layout as [`ForwardPolicy`]'s: entry list scanned most-recent-first,
/// last-hop sets as ranges in a shared arena.
#[derive(Clone, Debug, Default)]
pub struct DestinationAccept {
    per_prev: FastSeen,
}

impl DestinationAccept {
    /// Whether the destination should record this copy as a route.
    pub fn accept(&mut self, kind: ProtocolKind, rreq: &Rreq) -> bool {
        match kind {
            ProtocolKind::Dsr | ProtocolKind::Mr | ProtocolKind::Smr => true,
            ProtocolKind::Aomdv => {
                let prev = rreq.last_hop();
                let seen = &mut self.per_prev;
                match seen.find(rreq.id) {
                    None => {
                        let start = seen.prevs.len() as u32;
                        seen.prevs.push(prev);
                        seen.entries.push((
                            rreq.id,
                            FastSeenState {
                                first_hops: 0,
                                first_prev: None,
                                prev_start: start,
                                prev_len: 1,
                                forwarded: 0,
                            },
                        ));
                        true
                    }
                    Some(idx) => {
                        let st = seen.entries[idx].1;
                        if seen.prevs_of(st).contains(&prev) {
                            false
                        } else {
                            seen.push_prev(idx, prev);
                            true
                        }
                    }
                }
            }
        }
    }

    /// Forget all state.
    pub fn reset(&mut self) {
        self.per_prev.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::{HashMap, HashSet};

    /// Per-discovery bookkeeping of the pre-overhaul store.
    #[derive(Clone, Debug, Default)]
    struct SeenState {
        /// Hop count of the first copy received.
        first_hops: usize,
        /// Last hop (incoming link) of the first copy.
        first_prev: Option<NodeId>,
        /// Incoming links over which a copy has already been forwarded (SMR).
        forwarded_prevs: HashSet<NodeId>,
        /// Total copies forwarded (MR safety cap).
        forwarded: u32,
    }

    /// Oracle for [`ForwardPolicy`]: the pre-overhaul `HashMap`/`HashSet`
    /// rules, verbatim.
    struct HashedForwardPolicy {
        kind: ProtocolKind,
        max_forwards: u32,
        seen: HashMap<RreqId, SeenState>,
    }

    impl HashedForwardPolicy {
        fn with_max_forwards(kind: ProtocolKind, cap: u32) -> Self {
            HashedForwardPolicy {
                kind,
                max_forwards: cap.max(1),
                seen: HashMap::new(),
            }
        }

        fn decide(&mut self, self_id: NodeId, rreq: &Rreq) -> ForwardDecision {
            if rreq.path.contains(&self_id) {
                return ForwardDecision::Drop;
            }
            let hops = rreq.hops();
            let prev = rreq.last_hop();
            match self.seen.entry(rreq.id) {
                Entry::Vacant(e) => {
                    // First copy: every protocol forwards it.
                    let mut st = SeenState {
                        first_hops: hops,
                        first_prev: Some(prev),
                        ..SeenState::default()
                    };
                    st.forwarded = 1;
                    st.forwarded_prevs.insert(prev);
                    e.insert(st);
                    ForwardDecision::Forward
                }
                Entry::Occupied(mut e) => {
                    let st = e.get_mut();
                    if st.forwarded >= self.max_forwards {
                        return ForwardDecision::Drop;
                    }
                    let ok = match self.kind {
                        // Duplicates never re-flooded.
                        ProtocolKind::Dsr | ProtocolKind::Aomdv => false,
                        // Paper's MR: hop bound only.
                        ProtocolKind::Mr => hops <= st.first_hops,
                        // SMR: hop bound + different incoming link, at
                        // most one forward per incoming link.
                        ProtocolKind::Smr => {
                            hops <= st.first_hops
                                && st.first_prev != Some(prev)
                                && !st.forwarded_prevs.contains(&prev)
                        }
                    };
                    if ok {
                        st.forwarded += 1;
                        st.forwarded_prevs.insert(prev);
                        ForwardDecision::Forward
                    } else {
                        ForwardDecision::Drop
                    }
                }
            }
        }
    }

    /// Oracle for [`DestinationAccept`]: the pre-overhaul per-discovery
    /// `HashSet` of accepted last hops, verbatim.
    #[derive(Default)]
    struct HashedDestinationAccept {
        per_prev: HashMap<RreqId, HashSet<NodeId>>,
    }

    impl HashedDestinationAccept {
        fn accept(&mut self, kind: ProtocolKind, rreq: &Rreq) -> bool {
            match kind {
                ProtocolKind::Dsr | ProtocolKind::Mr | ProtocolKind::Smr => true,
                ProtocolKind::Aomdv => self
                    .per_prev
                    .entry(rreq.id)
                    .or_default()
                    .insert(rreq.last_hop()),
            }
        }
    }

    fn rreq(seq: u32, path: &[u32]) -> Rreq {
        Rreq {
            id: RreqId {
                src: NodeId(path[0]),
                seq,
            },
            dst: NodeId(99),
            path: path.iter().map(|&i| NodeId(i)).collect(),
        }
    }

    const ME: NodeId = NodeId(50);

    #[test]
    fn every_protocol_forwards_first_copy() {
        for kind in [
            ProtocolKind::Dsr,
            ProtocolKind::Mr,
            ProtocolKind::Smr,
            ProtocolKind::Aomdv,
        ] {
            let mut p = ForwardPolicy::new(kind);
            assert_eq!(
                p.decide(ME, &rreq(1, &[0, 1, 2])),
                ForwardDecision::Forward,
                "{kind}"
            );
        }
    }

    #[test]
    fn loop_prevention_beats_everything() {
        let mut p = ForwardPolicy::new(ProtocolKind::Mr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 50, 2])), ForwardDecision::Drop);
    }

    #[test]
    fn dsr_drops_all_duplicates() {
        let mut p = ForwardPolicy::new(ProtocolKind::Dsr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Forward);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 2])), ForwardDecision::Drop);
        assert_eq!(p.decide(ME, &rreq(1, &[0])), ForwardDecision::Drop);
        // Different discovery id: forwards again.
        assert_eq!(p.decide(ME, &rreq(2, &[0, 1])), ForwardDecision::Forward);
    }

    #[test]
    fn mr_forwards_duplicates_up_to_first_hop_count() {
        let mut p = ForwardPolicy::new(ProtocolKind::Mr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1, 2])), ForwardDecision::Forward); // first: 2 hops
        assert_eq!(p.decide(ME, &rreq(1, &[0, 3])), ForwardDecision::Forward); // 1 hop ≤ 2
        assert_eq!(p.decide(ME, &rreq(1, &[0, 4, 5])), ForwardDecision::Forward); // 2 hops ≤ 2
        assert_eq!(p.decide(ME, &rreq(1, &[0, 4, 5, 6])), ForwardDecision::Drop);
        // 3 hops > 2
    }

    #[test]
    fn mr_ignores_incoming_link() {
        let mut p = ForwardPolicy::new(ProtocolKind::Mr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Forward);
        // A longer duplicate is dropped even via a fresh incoming link.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 2, 1])), ForwardDecision::Drop); // 2 hops > 1

        let mut p = ForwardPolicy::new(ProtocolKind::Mr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 7, 1])), ForwardDecision::Forward);
        // Duplicate with the *same* incoming link and equal hop count:
        // forwarded by MR (SMR would drop it).
        assert_eq!(p.decide(ME, &rreq(1, &[0, 8, 1])), ForwardDecision::Forward);
    }

    #[test]
    fn smr_requires_distinct_incoming_link() {
        let mut p = ForwardPolicy::new(ProtocolKind::Smr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 7, 1])), ForwardDecision::Forward);
        // Same incoming link (1): dropped by SMR even with equal hops.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 8, 1])), ForwardDecision::Drop);
        // Different incoming link, equal hops: forwarded.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 8, 2])), ForwardDecision::Forward);
        // That link is now used up.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 9, 2])), ForwardDecision::Drop);
        // Longer duplicates dropped regardless of link.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 8, 9, 3])), ForwardDecision::Drop);
    }

    #[test]
    fn forward_cap_limits_mr() {
        let mut p = ForwardPolicy::with_max_forwards(ProtocolKind::Mr, 2);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1, 2])), ForwardDecision::Forward);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 3, 4])), ForwardDecision::Forward);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 5, 6])), ForwardDecision::Drop);
    }

    #[test]
    fn reset_forgets_discoveries() {
        let mut p = ForwardPolicy::new(ProtocolKind::Dsr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Forward);
        p.reset();
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Forward);
    }

    #[test]
    fn aomdv_destination_accepts_one_per_last_hop() {
        let mut d = DestinationAccept::default();
        assert!(d.accept(ProtocolKind::Aomdv, &rreq(1, &[0, 1, 5])));
        assert!(
            !d.accept(ProtocolKind::Aomdv, &rreq(1, &[0, 2, 5])),
            "same last hop"
        );
        assert!(d.accept(ProtocolKind::Aomdv, &rreq(1, &[0, 2, 6])));
        // MR accepts everything.
        assert!(d.accept(ProtocolKind::Mr, &rreq(1, &[0, 2, 5])));
        d.reset();
        assert!(d.accept(ProtocolKind::Aomdv, &rreq(1, &[0, 2, 5])));
    }

    #[test]
    fn fast_and_reference_stores_agree_on_random_arrivals() {
        // LCG-driven arrival streams (interleaved discoveries, repeated
        // incoming links, varying hop counts) must produce identical
        // decision sequences from the scratch store and the hashed
        // oracle, for every protocol.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        for kind in [
            ProtocolKind::Dsr,
            ProtocolKind::Mr,
            ProtocolKind::Smr,
            ProtocolKind::Aomdv,
        ] {
            let mut fast = ForwardPolicy::with_max_forwards(kind, 4);
            let mut reference = HashedForwardPolicy::with_max_forwards(kind, 4);
            let mut fast_dest = DestinationAccept::default();
            let mut ref_dest = HashedDestinationAccept::default();
            for _ in 0..2000 {
                // Up to 4 interleaved discoveries, paths over a tiny id
                // space so duplicates and loops actually occur.
                let seq = next(4);
                let len = 1 + next(4) as usize;
                let path: Vec<u32> = (0..len).map(|_| next(8)).collect();
                let r = rreq(seq, &path);
                assert_eq!(
                    fast.decide(ME, &r),
                    reference.decide(ME, &r),
                    "{kind} {r:?}"
                );
                assert_eq!(
                    fast_dest.accept(kind, &r),
                    ref_dest.accept(kind, &r),
                    "{kind} {r:?}"
                );
            }
            fast.reset();
            reference.seen.clear();
            let r = rreq(0, &[0, 1]);
            assert_eq!(fast.decide(ME, &r), reference.decide(ME, &r));
        }
    }

    #[test]
    fn scratch_arena_relocates_ranges_across_interleaved_discoveries() {
        // SMR with two interleaved discoveries: appends to discovery 1's
        // incoming-link range after discovery 2 bumped the arena force
        // the relocate-on-append path.
        let mut p = ForwardPolicy::new(ProtocolKind::Smr);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Forward);
        assert_eq!(p.decide(ME, &rreq(2, &[0, 5])), ForwardDecision::Forward);
        // Discovery 1, new link: its range (not at the arena tail) moves.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 2])), ForwardDecision::Forward);
        // Both used links of discovery 1 still count as used.
        assert_eq!(p.decide(ME, &rreq(1, &[0, 1])), ForwardDecision::Drop);
        assert_eq!(p.decide(ME, &rreq(1, &[0, 2])), ForwardDecision::Drop);
        // Discovery 2's range survived the relocation.
        assert_eq!(p.decide(ME, &rreq(2, &[0, 5])), ForwardDecision::Drop);
        assert_eq!(p.decide(ME, &rreq(2, &[0, 6])), ForwardDecision::Forward);
    }

    #[test]
    fn mr_is_more_permissive_than_smr() {
        // Property sketch: any copy SMR forwards, MR forwards too (same
        // arrival order).
        let arrivals = [
            rreq(1, &[0, 1]),
            rreq(1, &[0, 2]),
            rreq(1, &[0, 3]),
            rreq(1, &[0, 4, 2]),
        ];
        let mut mr = ForwardPolicy::new(ProtocolKind::Mr);
        let mut smr = ForwardPolicy::new(ProtocolKind::Smr);
        for a in &arrivals {
            let m = mr.decide(ME, a);
            let s = smr.decide(ME, a);
            if s == ForwardDecision::Forward {
                assert_eq!(m, ForwardDecision::Forward, "{a:?}");
            }
        }
    }
}
