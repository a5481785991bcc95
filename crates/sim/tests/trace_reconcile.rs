//! Reconciliation of the two sim observability surfaces: the structural
//! [`Trace`] and the per-node [`Metrics`] counters must tell the same
//! story for one small discovery-shaped exchange that uses all three
//! channels (broadcast flood out, unicast reply back, one tunnel hop).

use manet_sim::prelude::*;

const REQ: u32 = 1;
const REPLY: u32 = 2;
const TUNNELED: u32 = 3;

/// Discovery-shaped behaviour on a line: flood a request away from node
/// 0; the last node answers with a unicast reply relayed hop-by-hop back;
/// node 0 also fires one out-of-band tunnel to the last node.
struct DiscoveryLike {
    last: NodeId,
    seen_req: bool,
}

impl Behavior for DiscoveryLike {
    type Msg = u32;

    fn on_receive(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, channel: Channel, msg: u32) {
        match (msg, channel) {
            (REQ, Channel::Broadcast) => {
                if !self.seen_req {
                    self.seen_req = true;
                    if ctx.node() == self.last {
                        ctx.unicast(from, REPLY);
                    } else {
                        ctx.broadcast(REQ);
                    }
                }
            }
            (REPLY, Channel::Unicast) => {
                let me = ctx.node();
                if me != NodeId(0) {
                    ctx.unicast(NodeId(me.0 - 1), REPLY);
                }
            }
            (TUNNELED, Channel::Tunnel) => {}
            other => panic!("unexpected delivery {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _key: u64) {
        self.seen_req = true;
        ctx.broadcast(REQ);
        ctx.tunnel(self.last, SimDuration::from_micros(10), TUNNELED);
    }
}

#[test]
fn trace_entries_reconcile_with_node_counters() {
    const N: usize = 4;
    let topo = Topology::new((0..N).map(|i| Pos::new(i as f64, 0.0)).collect(), 1.1);
    let mut net: Network<u32> = Network::new(topo, LatencyModel::deterministic(1e-3), 0);
    net.enable_trace(10_000);
    let mut nodes: Vec<DiscoveryLike> = (0..N)
        .map(|_| DiscoveryLike {
            last: NodeId::from_idx(N - 1),
            seen_req: false,
        })
        .collect();
    net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
    let stats = net.run(&mut nodes, SimTime::MAX);
    assert!(!stats.truncated);

    let metrics = net.metrics();
    let trace = net.trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "capacity must hold the whole exchange");

    // Count trace deliveries per channel.
    let deliveries = |ch: Channel| {
        trace
            .entries()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Deliver { channel, .. } if channel == ch))
            .count() as u64
    };
    let (bcast, ucast, tunnel) = (
        deliveries(Channel::Broadcast),
        deliveries(Channel::Unicast),
        deliveries(Channel::Tunnel),
    );

    // Line of 4, flood from node 0: broadcasts by nodes 0,1,2 reach
    // {1}, {0,2}, {1,3} = 5 broadcast receptions. Reply relays 3→2→1→0 =
    // 3 unicast receptions. One tunnel delivery.
    assert_eq!(bcast, 5);
    assert_eq!(ucast, 3);
    assert_eq!(tunnel, 1);

    // Channel totals reconcile with the counters: over-the-air
    // receptions are broadcast + unicast; the tunnel is kept apart.
    assert_eq!(metrics.total_rx(), bcast + ucast);
    let tunnel_rx: u64 = metrics.iter().map(|(_, c)| c.tunnel_rx).sum();
    assert_eq!(tunnel_rx, tunnel);

    // Per-node: every traced delivery (timer entries excluded) landed on
    // exactly the node whose rx counters account for it.
    for (node, counters) in metrics.iter() {
        assert_eq!(
            trace.deliveries_to(node).count() as u64,
            counters.rx + counters.tunnel_rx,
            "delivery count mismatch at {node}"
        );
    }

    // Transmissions: 3 broadcasts (nodes 0..=2) + 3 reply unicasts, and
    // the paper's overhead criterion counts air traffic only.
    assert_eq!(metrics.total_tx(), 6);
    assert_eq!(metrics.overhead(), 6 + bcast + ucast);
    assert_eq!(
        metrics.overhead_with_tunnel(),
        metrics.overhead() + 2,
        "one tunnel tx + one tunnel rx"
    );

    // Lineage integrity: nothing was dropped, so every caused entry's
    // parent is recorded, scheduled strictly earlier, and every chain
    // terminates at a causal root.
    for e in trace.entries() {
        if let Some(c) = e.cause {
            let parent = trace.entry(c).expect("causal parent recorded");
            assert!(parent.id < e.id, "cause scheduled before effect");
            assert!(parent.at <= e.at, "cause dispatched no later");
        }
        let chain = trace.lineage(e.id);
        assert_eq!(chain.last().expect("non-empty chain").cause, None);
        assert_eq!(chain.len(), trace.lineage_depth(e.id));
    }

    // The tunnel delivery descends from node 0's kick-off timer, so its
    // lineage is timer → tunnel delivery and crosses the tunnel once —
    // reconciling the causal view with the tunnel_rx counter above.
    let t = trace
        .entries()
        .iter()
        .find(|e| e.channel() == Some(Channel::Tunnel))
        .expect("one tunnel delivery traced");
    assert_eq!(trace.lineage_depth(t.id), 2);
    assert_eq!(trace.tunnel_traversals(t.id), 1);
    let total_traversals: usize = trace
        .entries()
        .iter()
        .filter(|e| e.cause.is_none())
        .map(|root| {
            trace
                .entries()
                .iter()
                .filter(|e| e.channel() == Some(Channel::Tunnel))
                .filter(|e| trace.lineage(e.id).last().map(|r| r.id) == Some(root.id))
                .count()
        })
        .sum();
    assert_eq!(
        total_traversals, 1,
        "exactly one lineage crosses the tunnel"
    );
}
