//! Property tests for causal-trace lineage integrity: over randomized
//! flood-plus-tunnel exchanges, the recorded causal graph must be
//! acyclic, complete (every caused entry's parent recorded, when nothing
//! was dropped), and its tunnel accounting must reconcile with the
//! per-node counters.

use manet_sim::prelude::*;
use proptest::prelude::*;

const REQ: u32 = 1;
const TUNNELED: u32 = 2;

/// Flood-once behaviour: every node rebroadcasts the request the first
/// time it hears it; the seed node also fires one tunnel shot.
struct Flood {
    seen: bool,
    tunnel_to: Option<NodeId>,
}

impl Behavior for Flood {
    type Msg = u32;

    fn on_receive(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, channel: Channel, msg: u32) {
        match (msg, channel) {
            (REQ, Channel::Broadcast) if !self.seen => {
                self.seen = true;
                ctx.broadcast(REQ);
            }
            (REQ, Channel::Broadcast) | (TUNNELED, Channel::Tunnel) => {}
            other => panic!("unexpected delivery {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _key: u64) {
        self.seen = true;
        ctx.broadcast(REQ);
        if let Some(peer) = self.tunnel_to {
            ctx.tunnel(peer, SimDuration::from_micros(5), TUNNELED);
        }
    }
}

/// Run a flood over a line of `n` nodes seeded at `seed_idx`, tunneling
/// to `tunnel_idx`, with the trace bounded at `capacity`.
fn run_flood(n: usize, seed_idx: usize, tunnel_idx: usize, capacity: usize) -> Network<u32> {
    let topo = Topology::new((0..n).map(|i| Pos::new(i as f64, 0.0)).collect(), 1.1);
    let mut net: Network<u32> = Network::new(topo, LatencyModel::deterministic(1e-3), 7);
    net.enable_trace(capacity);
    let mut nodes: Vec<Flood> = (0..n)
        .map(|i| Flood {
            seen: false,
            tunnel_to: (i == seed_idx && tunnel_idx != seed_idx)
                .then(|| NodeId::from_idx(tunnel_idx)),
        })
        .collect();
    net.schedule_timer(NodeId::from_idx(seed_idx), SimDuration::ZERO, 0);
    net.run(&mut nodes, SimTime::MAX);
    net
}

proptest! {
    #[test]
    fn lineage_is_acyclic_complete_and_reconciles(
        n in 2..9usize,
        seed_sel in 0..9usize,
        tunnel_sel in 0..9usize,
    ) {
        let seed_idx = seed_sel % n;
        let tunnel_idx = tunnel_sel % n;
        let net = run_flood(n, seed_idx, tunnel_idx, 10_000);
        let trace = net.trace().expect("tracing enabled");
        prop_assert_eq!(trace.dropped(), 0, "capacity holds the whole flood");

        for e in trace.entries() {
            // Completeness: with nothing dropped, every caused entry's
            // parent is recorded; acyclicity: event seq numbers are
            // assigned at schedule time, and an effect is scheduled
            // during (hence after) its cause's dispatch.
            if let Some(c) = e.cause {
                let parent = trace.entry(c).expect("causal parent recorded");
                prop_assert!(parent.id < e.id, "cause scheduled before effect");
                prop_assert!(parent.at <= e.at, "cause dispatched no later");
            }
            // Every chain walks back to a root, and the depth query
            // agrees with the materialized chain.
            let chain = trace.lineage(e.id);
            prop_assert_eq!(chain.last().expect("chain is non-empty").cause, None);
            prop_assert_eq!(chain.len(), trace.lineage_depth(e.id));
            prop_assert!(trace.tunnel_traversals(e.id) <= chain.len());
        }

        // Tunnel reconciliation: trace tunnel deliveries == the nodes'
        // tunnel_rx counters == whether a tunnel was planted at all.
        let tunnel_entries = trace
            .entries()
            .iter()
            .filter(|e| e.channel() == Some(Channel::Tunnel))
            .count() as u64;
        let tunnel_rx: u64 = net.metrics().iter().map(|(_, c)| c.tunnel_rx).sum();
        prop_assert_eq!(tunnel_entries, tunnel_rx);
        let expect_tunnel = u64::from(tunnel_idx != seed_idx);
        prop_assert_eq!(tunnel_entries, expect_tunnel);
        // The tunnel delivery descends from the seed's timer: depth 2.
        if let Some(t) = trace
            .entries()
            .iter()
            .find(|e| e.channel() == Some(Channel::Tunnel))
        {
            prop_assert_eq!(trace.lineage_depth(t.id), 2);
            prop_assert_eq!(trace.tunnel_traversals(t.id), 1);
        }
    }

    #[test]
    fn bounded_capacity_counts_drops_instead_of_growing(
        n in 4..9usize,
        capacity in 1..6usize,
    ) {
        let net = run_flood(n, 0, n - 1, capacity);
        let trace = net.trace().expect("tracing enabled");
        prop_assert!(trace.entries().len() <= capacity);
        // A flood over >= 4 nodes plus a tunnel always outgrows these
        // tiny capacities, so the overflow must be counted, not lost.
        prop_assert!(trace.dropped() > 0);
        // Lineage queries stay total even with ancestors dropped.
        for e in trace.entries() {
            prop_assert!(!trace.lineage(e.id).is_empty());
        }
    }
}
