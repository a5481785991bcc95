//! Property-based tests for the simulator substrate: topologies, the
//! latency model, tier ranges, and the forwarding policies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use wormhole_sam::prelude::*;
use wormhole_sam::routing::packet::{Rreq, RreqId};
use wormhole_sam::sim::event::{EventKind, EventQueue};

/// One step of an arbitrary event-queue workload.
#[derive(Clone, Debug)]
enum QueueOp {
    /// Schedule a timer at this (possibly past) absolute time.
    Schedule(u64),
    /// Pop the earliest pending event (may be a no-op on empty).
    Pop,
}

/// Schedule-biased (3:2) so runs build up backlog to drain.
fn arb_queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec((0u8..5, 0u64..200), 1..150).prop_map(|steps| {
        steps
            .into_iter()
            .map(|(sel, at)| {
                if sel < 3 {
                    QueueOp::Schedule(at)
                } else {
                    QueueOp::Pop
                }
            })
            .collect()
    })
}

fn arb_positions(n: usize, side: f64) -> impl Strategy<Value = Vec<Pos>> {
    proptest::collection::vec((0.0..side, 0.0..side), 2..=n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Pos::new(x, y)).collect())
}

proptest! {
    #[test]
    fn topology_neighbors_are_symmetric_and_irreflexive(
        positions in arb_positions(40, 10.0),
        range in 0.5f64..4.0,
    ) {
        let topo = Topology::new(positions, range);
        for a in topo.nodes() {
            prop_assert!(!topo.are_neighbors(a, a), "self-neighbour {a}");
            for &b in topo.neighbors(a) {
                prop_assert!(topo.are_neighbors(b, a), "{a}-{b} asymmetric");
                prop_assert!(topo.dist(a, b) <= range + 1e-12);
            }
        }
    }

    #[test]
    fn non_neighbors_are_out_of_range(
        positions in arb_positions(25, 8.0),
        range in 0.5f64..3.0,
    ) {
        let topo = Topology::new(positions, range);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && !topo.are_neighbors(a, b) {
                    prop_assert!(topo.dist(a, b) > range);
                }
            }
        }
    }

    #[test]
    fn bfs_hops_satisfy_triangle_property(positions in arb_positions(25, 6.0)) {
        let topo = Topology::new(positions, 2.0);
        let src = NodeId(0);
        let dist = bfs_hops(&topo, src);
        // Each reachable node's distance differs from every neighbour's by
        // at most one.
        for u in topo.nodes() {
            if let Some(du) = dist[u.idx()] {
                for &v in topo.neighbors(u) {
                    let dv = dist[v.idx()].expect("neighbour of reachable is reachable");
                    prop_assert!(du.abs_diff(dv) <= 1, "{u}:{du} vs {v}:{dv}");
                }
            }
        }
    }

    #[test]
    fn shortest_path_length_matches_bfs(positions in arb_positions(25, 6.0)) {
        let topo = Topology::new(positions, 2.0);
        let a = NodeId(0);
        let b = NodeId::from_idx(topo.len() - 1);
        let hops = hop_distance(&topo, a, b);
        let path = shortest_path(&topo, a, b);
        match (hops, path) {
            (Some(h), Some(p)) => prop_assert_eq!(p.len() as u32, h + 1),
            (None, None) => {}
            (h, p) => prop_assert!(false, "inconsistent: {h:?} vs {p:?}"),
        }
    }

    #[test]
    fn latency_respects_base_floor(
        base in 1e-4f64..1e-2,
        per_unit in 0.0f64..1e-3,
        jitter in 0.0f64..1e-2,
        dist in 0.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let model = LatencyModel { base_secs: base, per_unit_secs: per_unit, jitter_secs: jitter };
        let mut rng = StdRng::seed_from_u64(seed);
        let lat = model.sample(dist, &mut rng).as_micros() as f64 / 1e6;
        prop_assert!(lat + 5e-7 >= base + per_unit * dist, "lat {lat} below floor");
        prop_assert!(lat <= base + per_unit * dist + jitter + 5e-7, "lat {lat} above ceiling");
    }

    #[test]
    fn random_topology_plans_always_validate(seed in 0u64..50) {
        let plan = random_topology(seed);
        prop_assert!(plan.validate().is_ok());
        prop_assert!(plan.tunnel_span_hops(0).unwrap_or(0) >= 3);
    }

    #[test]
    fn uniform_grids_validate_across_sizes(cols in 3usize..12, rows in 2usize..8, tier in 1u8..3) {
        let plan = uniform_grid(cols, rows, tier);
        prop_assert!(plan.validate().is_ok());
        prop_assert_eq!(plan.topology.len(), cols * rows + 2);
    }

    #[test]
    fn dsr_policy_forwards_each_discovery_exactly_once(
        seqs in proptest::collection::vec(0u32..5, 1..30),
    ) {
        let me = NodeId(99);
        let mut policy = ForwardPolicy::new(ProtocolKind::Dsr);
        let mut forwarded_per_seq = std::collections::HashMap::new();
        for (i, seq) in seqs.iter().enumerate() {
            let rreq = Rreq {
                id: RreqId { src: NodeId(0), seq: *seq },
                dst: NodeId(1),
                path: vec![NodeId(0), NodeId(2 + (i as u32 % 3))].into(),
            };
            if policy.decide(me, &rreq) == ForwardDecision::Forward {
                *forwarded_per_seq.entry(*seq).or_insert(0u32) += 1;
            }
        }
        for (&seq, &count) in &forwarded_per_seq {
            prop_assert_eq!(count, 1, "seq {} forwarded {} times", seq, count);
        }
    }

    #[test]
    fn mr_never_forwards_longer_than_first(
        hop_counts in proptest::collection::vec(1usize..6, 2..20),
    ) {
        let me = NodeId(99);
        let mut policy = ForwardPolicy::new(ProtocolKind::Mr);
        let first = hop_counts[0];
        for (i, &h) in hop_counts.iter().enumerate() {
            // Build a path of h+1 distinct nodes (hop count h), varying by i.
            let path: Vec<NodeId> = (0..=h).map(|k| NodeId((i * 10 + k) as u32)).collect();
            let rreq = Rreq {
                id: RreqId { src: NodeId(500), seq: 1 },
                dst: NodeId(501),
                path: path.into(),
            };
            let d = policy.decide(me, &rreq);
            if h > first {
                prop_assert_eq!(d, ForwardDecision::Drop, "hop {} > first {} forwarded", h, first);
            }
        }
    }

    #[test]
    fn tier_range_monotone_in_tier(k in 1u8..5) {
        prop_assert!(range_for_tier(k + 1) > range_for_tier(k));
    }

    /// The struct-of-arrays event queue under arbitrary schedule/pop
    /// interleavings: every pop returns the minimum pending `(at, seq)`
    /// (checked against an ordered-set model, the reference), the arena
    /// never leaks a slot, and its capacity never exceeds the workload's
    /// concurrency high-water mark.
    #[test]
    fn soa_queue_matches_reference_and_never_leaks_slots(ops in arb_queue_ops()) {
        let mut fast: EventQueue<()> = EventQueue::new();
        // Ground-truth model: the set of pending (at, seq) keys. `(at,
        // seq)` is a total order, so "pop the minimum" fully specifies
        // correct behaviour.
        let mut pending: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut next_seq = 0u64;
        let mut high_water = 0usize;

        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::Schedule(at) => {
                    let at = SimTime(*at);
                    let kind = EventKind::Timer { node: NodeId(0), key: i as u64 };
                    fast.schedule(at, kind);
                    pending.insert((at, next_seq));
                    next_seq += 1;
                    high_water = high_water.max(pending.len());
                }
                QueueOp::Pop => {
                    let a = fast.pop().map(|e| (e.at, e.seq));
                    let expected = pending.iter().next().copied();
                    prop_assert_eq!(a, expected, "pop is not the minimum at op {}", i);
                    if let Some(key) = a {
                        pending.remove(&key);
                    }
                }
            }
            // Arena invariants hold at every step, not just at the end.
            prop_assert_eq!(fast.len(), pending.len());
            prop_assert_eq!(fast.live_slots(), fast.len());
            prop_assert_eq!(
                fast.live_slots() + fast.free_slots(),
                fast.slot_capacity()
            );
        }

        // Drain: the tail must come out in full (at, seq) order too.
        while let Some(e) = fast.pop() {
            let expected = pending.iter().next().copied();
            prop_assert_eq!(Some((e.at, e.seq)), expected);
            pending.remove(&(e.at, e.seq));
        }
        prop_assert!(pending.is_empty());

        // No slot leaked: the arena is fully recycled and never grew
        // past the maximum number of simultaneously pending events.
        prop_assert_eq!(fast.live_slots(), 0);
        prop_assert_eq!(fast.free_slots(), fast.slot_capacity());
        prop_assert!(
            fast.slot_capacity() <= high_water,
            "arena {} slots > high-water {}",
            fast.slot_capacity(),
            high_water
        );
    }
}
