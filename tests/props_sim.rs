//! Property-based tests for the simulator substrate: topologies, the
//! latency model, tier ranges, and the forwarding policies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use wormhole_sam::prelude::*;
use wormhole_sam::routing::packet::{Rreq, RreqId};
use wormhole_sam::sim::event::{EventKind, EventQueue, WHEEL_WINDOW_US};

/// One step of an arbitrary event-queue workload. Times are relative to
/// the latest popped time (the queue's wheel base), so however far a run
/// has advanced, its inserts keep landing before the base, inside the
/// wheel's window and past it.
#[derive(Clone, Debug)]
enum QueueOp {
    /// Schedule a timer this many µs after the latest popped time
    /// (negative: before it, clamped at time 0).
    Schedule(i64),
    /// Schedule a timer at the time of the pending event of this rank in
    /// `(at, seq)` order (modulo the pending count; a no-op when empty).
    /// A near-front event parked in the heap then gains a wheel twin at
    /// the same `at` with a larger `seq`.
    Again(usize),
    /// Pop the earliest pending event (may be a no-op on empty).
    Pop,
}

/// Insert-biased (7:3) so runs build up backlog to drain. Offsets span
/// half a window before the base to three windows after it.
fn arb_queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    let w = WHEEL_WINDOW_US as i64;
    proptest::collection::vec((0u8..10, -w / 2..3 * w, 0usize..4), 1..200).prop_map(|steps| {
        steps
            .into_iter()
            .map(|(sel, offset, rank)| match sel {
                0..=4 => QueueOp::Schedule(offset),
                5 | 6 => QueueOp::Again(rank),
                _ => QueueOp::Pop,
            })
            .collect()
    })
}

/// Which edges of the wheel/heap split one run of [`check_queue_ops`]
/// reached, classified by the window rule the queue documents: an insert
/// joins the wheel iff it is due in `[base, base + WHEEL_WINDOW_US)`.
#[derive(Debug, Default)]
struct QueueEdges {
    /// Whole windows spanned by the latest scheduled time.
    windows: u64,
    /// Wheel inserts at an `at` that a heap event was already pending at
    /// (so the heap's `seq` is the smaller).
    cross_ties: u64,
    /// Inserts due before the latest popped time.
    before_base: u64,
    /// Steps that ended with an empty wheel and heap events pending.
    heap_only: u64,
}

/// Run `ops` against an `EventQueue` and an ordered-set model of the
/// pending `(at, seq)` keys. `(at, seq)` is a total order, so "pop the
/// minimum" fully specifies correct behaviour: every pop must return the
/// model's first key. The arena never leaks a slot, and its capacity
/// never exceeds the workload's concurrency high-water mark.
fn check_queue_ops(ops: &[QueueOp]) -> QueueEdges {
    let mut fast: EventQueue<()> = EventQueue::new();
    // Pending keys, each marked with whether the window rule puts it in
    // the wheel (`true`) or the heap.
    let mut pending: BTreeMap<(SimTime, u64), bool> = BTreeMap::new();
    let mut next_seq = 0u64;
    let mut high_water = 0usize;
    let mut base = 0u64;
    let mut edges = QueueEdges::default();

    for (i, op) in ops.iter().enumerate() {
        let at = match *op {
            QueueOp::Schedule(offset) => Some(base.saturating_add_signed(offset)),
            QueueOp::Again(rank) => (!pending.is_empty())
                .then(|| pending.keys().nth(rank % pending.len()).unwrap().0 .0),
            QueueOp::Pop => {
                let got = fast.pop().map(|e| (e.at, e.seq));
                let expected = pending.pop_first().map(|(key, _)| key);
                prop_assert_eq!(got, expected, "pop is not the minimum at op {}", i);
                if let Some((at, _)) = got {
                    base = base.max(at.0);
                }
                None
            }
        };
        if let Some(at) = at {
            let in_wheel = at >= base && at - base < WHEEL_WINDOW_US;
            if at < base {
                edges.before_base += 1;
            }
            if in_wheel
                && pending
                    .range((SimTime(at), 0)..=(SimTime(at), u64::MAX))
                    .any(|(_, &w)| !w)
            {
                edges.cross_ties += 1;
            }
            edges.windows = edges.windows.max(at / WHEEL_WINDOW_US);
            let kind = EventKind::Timer {
                node: NodeId(0),
                key: i as u64,
            };
            fast.schedule(SimTime(at), kind);
            pending.insert((SimTime(at), next_seq), in_wheel);
            next_seq += 1;
            high_water = high_water.max(pending.len());
        }
        if !pending.is_empty() && pending.values().all(|&w| !w) {
            edges.heap_only += 1;
        }
        // Arena invariants hold at every step, not just at the end.
        prop_assert_eq!(fast.len(), pending.len());
        prop_assert_eq!(fast.peek_time(), pending.keys().next().map(|&(at, _)| at));
        prop_assert_eq!(fast.live_slots(), fast.len());
        prop_assert_eq!(fast.live_slots() + fast.free_slots(), fast.slot_capacity());
    }

    // Drain: the tail must come out in full (at, seq) order too.
    while let Some(e) = fast.pop() {
        let expected = pending.pop_first().map(|(key, _)| key);
        prop_assert_eq!(Some((e.at, e.seq)), expected);
    }
    prop_assert!(pending.is_empty());

    // No slot leaked: the arena is fully recycled and never grew past the
    // maximum number of simultaneously pending events.
    prop_assert_eq!(fast.live_slots(), 0);
    prop_assert_eq!(fast.free_slots(), fast.slot_capacity());
    prop_assert!(
        fast.slot_capacity() <= high_water,
        "arena {} slots > high-water {}",
        fast.slot_capacity(),
        high_water
    );
    edges
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
}

/// The event queue under seeded arbitrary schedule/pop interleavings,
/// checked against the ordered-set model by [`check_queue_ops`]. Together
/// the cases reach every edge of the wheel/heap split: times several
/// windows out, equal `at` in both structures with the heap's `seq` the
/// smaller, inserts before the latest popped time, and an empty wheel
/// while heap events are pending.
#[test]
fn soa_queue_matches_reference_and_never_leaks_slots() {
    let mut reached = QueueEdges::default();
    for case in 0..64 {
        let ops = arb_queue_ops().generate(&mut StdRng::seed_from_u64(case));
        let edges = std::panic::catch_unwind(|| check_queue_ops(&ops)).unwrap_or_else(|panic| {
            eprintln!("queue case {case} failed: {ops:?}");
            std::panic::resume_unwind(panic)
        });
        reached.windows = reached.windows.max(edges.windows);
        reached.cross_ties += edges.cross_ties;
        reached.before_base += edges.before_base;
        reached.heap_only += edges.heap_only;
    }
    assert!(reached.windows >= 3, "{reached:?}");
    assert!(reached.cross_ties > 0, "{reached:?}");
    assert!(reached.before_base > 0, "{reached:?}");
    assert!(reached.heap_only > 0, "{reached:?}");
}
