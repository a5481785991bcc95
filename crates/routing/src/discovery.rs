//! Discovery drivers: run route discoveries and probe tests over a
//! [`NetworkPlan`].
//!
//! A [`Session`] owns the network and the per-node behaviours and can run
//! several phases over them — a route discovery followed by SAM's step-2
//! probe test uses the *same* world, as it would in a deployment. The
//! behaviours are generic (`B: Behavior + RouterAccess`) so the attack
//! crate can substitute wormhole/blackhole wrappers without touching the
//! driver.

use crate::node::{timer, RouterAccess, RouterConfig, RouterNode};
use crate::packet::{RoutingMsg, RreqId};
use crate::policy::ProtocolKind;
use crate::route::Route;
use manet_sim::{Behavior, LatencyModel, Network, NetworkPlan, NodeId, SimDuration};

/// Result of one route discovery.
#[derive(Clone, Debug)]
pub struct DiscoveryOutcome {
    /// The discovery id.
    pub id: RreqId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The route set collected and finalized at the destination — SAM's
    /// input "R: the set of all obtained routes".
    pub routes: Vec<Route>,
    /// Routes the source got back via RREP (the selected disjoint subset).
    pub source_routes: Vec<Route>,
    /// The paper's overhead criterion for this discovery: total
    /// over-the-air transmissions + receptions at all nodes.
    pub overhead: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// True if the engine hit its safety cap (never expected at paper
    /// scale; surfaced so experiments can assert on it).
    pub truncated: bool,
}

/// Result of a probe test over one route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Probes sent.
    pub sent: u32,
    /// Probes acknowledged end-to-end.
    pub acked: u32,
}

impl ProbeOutcome {
    /// Fraction of probes acknowledged, in `[0, 1]`.
    pub fn ack_ratio(self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        f64::from(self.acked) / f64::from(self.sent)
    }
}

/// A live simulated network plus its per-node behaviours.
pub struct Session<B> {
    net: Network<RoutingMsg>,
    nodes: Vec<B>,
    probe_seq: u32,
}

impl<B: Behavior<Msg = RoutingMsg> + RouterAccess> Session<B> {
    /// Build a session over `plan` with behaviour factory `make` (called
    /// once per node id, in id order).
    pub fn new<F>(plan: &NetworkPlan, latency: LatencyModel, seed: u64, mut make: F) -> Self
    where
        F: FnMut(NodeId) -> B,
    {
        let net = Network::new(plan.topology.clone(), latency, seed);
        let nodes: Vec<B> = plan.topology.nodes().map(&mut make).collect();
        Session {
            net,
            nodes,
            probe_seq: 0,
        }
    }

    /// The underlying network (metrics, clock, …).
    pub fn network(&self) -> &Network<RoutingMsg> {
        &self.net
    }

    /// Mutable access to the underlying network (trace control, loss, …).
    pub fn network_mut(&mut self) -> &mut Network<RoutingMsg> {
        &mut self.net
    }

    /// Start recording the causal flight trace (see
    /// [`Network::enable_trace`]); `capacity` bounds the buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.net.enable_trace(capacity);
    }

    /// Stop tracing and take the recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<manet_sim::Trace> {
        self.net.take_trace()
    }

    /// Install a fault hook on the underlying network (see
    /// [`Network::set_fault_hook`]); fault-plan crates use this to
    /// compose loss bursts, churn and jitter onto any session.
    pub fn set_fault_hook(&mut self, hook: Box<dyn manet_sim::FaultHook>) {
        self.net.set_fault_hook(hook);
    }

    /// Cumulative fault-injection statistics of the underlying network.
    pub fn fault_stats(&self) -> manet_sim::FaultStats {
        self.net.fault_stats()
    }

    /// Behaviour of one node.
    pub fn node(&self, id: NodeId) -> &B {
        &self.nodes[id.idx()]
    }

    /// Mutable behaviour of one node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        &mut self.nodes[id.idx()]
    }

    /// Run one route discovery from `src` to `dst` and wait (in simulated
    /// time) until the network quiesces or `max_wait` passes. Overhead
    /// counters are reset at the start so the outcome reports this
    /// discovery alone.
    pub fn discover(
        &mut self,
        src: NodeId,
        dst: NodeId,
        max_wait: SimDuration,
    ) -> DiscoveryOutcome {
        let mut span = sam_telemetry::span("discovery");
        span.field("src", src);
        span.field("dst", dst);
        self.net.reset_metrics();
        let id = self.nodes[src.idx()].router_mut().queue_discovery(dst);
        self.net
            .schedule_timer(src, SimDuration::ZERO, timer::START_DISCOVERY);
        let deadline = self.net.now() + max_wait;
        let stats = self.net.run(&mut self.nodes, deadline);
        let routes = self.nodes[dst.idx()]
            .router()
            .routes_for(id)
            .unwrap_or(&[])
            .to_vec();
        let source_routes = self.nodes[src.idx()].router().source_routes().to_vec();
        span.field("routes", routes.len());
        span.field("overhead", self.net.metrics().overhead());
        span.field("events", stats.events_processed);
        if let Some(tel) = sam_telemetry::global() {
            let registry = tel.registry();
            registry.counter("discovery.count").inc();
            registry
                .counter("discovery.routes_found")
                .add(routes.len() as u64);
            // Flood wavefront size: how many nodes the discovery's
            // traffic reached (any reception, air or tunnel).
            let wavefront = self
                .net
                .metrics()
                .iter()
                .filter(|(_, c)| c.rx > 0 || c.tunnel_rx > 0)
                .count() as u64;
            registry
                .histogram_pow2("discovery.wavefront")
                .record(wavefront);
        }
        DiscoveryOutcome {
            id,
            src,
            dst,
            routes,
            source_routes,
            overhead: self.net.metrics().overhead(),
            events: stats.events_processed,
            truncated: stats.truncated,
        }
    }

    /// SAM step 2: send `count` source-routed probe packets from the
    /// route's source along `route`, spaced `spacing` apart, and count the
    /// end-to-end ACKs that come back within `max_wait` of the last send.
    pub fn probe(
        &mut self,
        route: &Route,
        count: u32,
        spacing: SimDuration,
        max_wait: SimDuration,
    ) -> ProbeOutcome {
        let src = route.src();
        let first = self.probe_seq;
        for i in 0..count {
            self.nodes[src.idx()]
                .router_mut()
                .queue_data(route.clone(), first + i);
            self.net
                .schedule_timer(src, spacing.saturating_mul(u64::from(i)), timer::SEND_DATA);
        }
        self.probe_seq += count;
        let deadline = self.net.now() + spacing.saturating_mul(u64::from(count)) + max_wait;
        self.net.run(&mut self.nodes, deadline);
        let router = self.nodes[src.idx()].router();
        let acked = (first..first + count)
            .filter(|&s| router.was_acked(s))
            .count() as u32;
        ProbeOutcome { sent: count, acked }
    }
}

/// Default per-discovery quiesce budget: generous relative to the ~ms hop
/// latencies and the 200 ms collection window.
pub const DEFAULT_MAX_WAIT: SimDuration = SimDuration(60_000_000); // 60 s

/// Convenience: one discovery over `plan` with plain (attack-free) routers
/// speaking `protocol`.
pub fn run_discovery(
    plan: &NetworkPlan,
    protocol: ProtocolKind,
    src: NodeId,
    dst: NodeId,
    seed: u64,
) -> DiscoveryOutcome {
    run_discovery_with_config(plan, RouterConfig::new(protocol), src, dst, seed)
}

/// Convenience: one discovery with an explicit router configuration.
pub fn run_discovery_with_config(
    plan: &NetworkPlan,
    cfg: RouterConfig,
    src: NodeId,
    dst: NodeId,
    seed: u64,
) -> DiscoveryOutcome {
    let mut session = Session::new(plan, LatencyModel::default(), seed, |id| {
        RouterNode::new(id, cfg.clone())
    });
    session.discover(src, dst, DEFAULT_MAX_WAIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::prelude::*;

    fn line_plan(n: usize) -> NetworkPlan {
        let topo = Topology::new((0..n).map(|i| Pos::new(i as f64, 0.0)).collect(), 1.1);
        NetworkPlan {
            name: "line".into(),
            topology: topo,
            src_pool: vec![NodeId(0)],
            dst_pool: vec![NodeId::from_idx(n - 1)],
            attacker_pairs: vec![],
        }
    }

    #[test]
    fn dsr_finds_the_single_line_route() {
        let plan = line_plan(5);
        let out = run_discovery(&plan, ProtocolKind::Dsr, NodeId(0), NodeId(4), 1);
        assert!(!out.truncated);
        assert_eq!(out.routes.len(), 1);
        let r = &out.routes[0];
        assert_eq!(r.src(), NodeId(0));
        assert_eq!(r.dst(), NodeId(4));
        assert_eq!(r.hops(), 4);
        // The source got the route back via RREP.
        assert_eq!(out.source_routes.len(), 1);
        assert_eq!(out.source_routes[0], *r);
    }

    #[test]
    fn mr_on_a_line_equals_dsr() {
        // No alternative paths exist on a line: MR finds the same set.
        let plan = line_plan(4);
        let out = run_discovery(&plan, ProtocolKind::Mr, NodeId(0), NodeId(3), 1);
        assert_eq!(out.routes.len(), 1);
        assert_eq!(out.routes[0].hops(), 3);
    }

    fn grid_plan() -> NetworkPlan {
        uniform_grid(4, 4, 1)
    }

    #[test]
    fn mr_finds_more_routes_than_dsr_on_a_grid() {
        let plan = grid_plan();
        let src = plan.src_pool[0];
        let dst = plan.dst_pool[plan.dst_pool.len() - 1];
        let dsr = run_discovery(&plan, ProtocolKind::Dsr, src, dst, 3);
        let mr = run_discovery(&plan, ProtocolKind::Mr, src, dst, 3);
        assert!(
            mr.routes.len() > dsr.routes.len(),
            "MR {} vs DSR {}",
            mr.routes.len(),
            dsr.routes.len()
        );
    }

    #[test]
    fn mr_overhead_exceeds_dsr_overhead() {
        // Table II's qualitative claim.
        let plan = grid_plan();
        let src = plan.src_pool[0];
        let dst = plan.dst_pool[0];
        let dsr = run_discovery(&plan, ProtocolKind::Dsr, src, dst, 5);
        let mr = run_discovery(&plan, ProtocolKind::Mr, src, dst, 5);
        assert!(
            mr.overhead > dsr.overhead,
            "MR {} vs DSR {}",
            mr.overhead,
            dsr.overhead
        );
    }

    #[test]
    fn all_discovered_routes_are_valid_paths() {
        let plan = grid_plan();
        let src = plan.src_pool[1];
        let dst = plan.dst_pool[1];
        for proto in [ProtocolKind::Mr, ProtocolKind::Smr, ProtocolKind::Aomdv] {
            let out = run_discovery(&plan, proto, src, dst, 7);
            assert!(!out.routes.is_empty(), "{proto}: no routes");
            for r in &out.routes {
                assert_eq!(r.src(), src);
                assert_eq!(r.dst(), dst);
                for w in r.nodes().windows(2) {
                    assert!(
                        plan.topology.are_neighbors(w[0], w[1]),
                        "{proto}: non-adjacent hop in {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn smr_yields_no_more_routes_than_mr() {
        let plan = grid_plan();
        let src = plan.src_pool[2];
        let dst = plan.dst_pool[2];
        let mr = run_discovery(&plan, ProtocolKind::Mr, src, dst, 11);
        let smr = run_discovery(&plan, ProtocolKind::Smr, src, dst, 11);
        assert!(
            smr.routes.len() <= mr.routes.len(),
            "SMR {} vs MR {}",
            smr.routes.len(),
            mr.routes.len()
        );
    }

    #[test]
    fn probe_over_honest_route_acks_fully() {
        let plan = line_plan(4);
        let mut session = Session::new(&plan, LatencyModel::default(), 2, |id| {
            RouterNode::new(id, RouterConfig::new(ProtocolKind::Mr))
        });
        let out = session.discover(NodeId(0), NodeId(3), DEFAULT_MAX_WAIT);
        assert_eq!(out.routes.len(), 1);
        let probe = session.probe(
            &out.routes[0],
            5,
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
        );
        assert_eq!(probe.sent, 5);
        assert_eq!(probe.acked, 5);
        assert!((probe.ack_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn discovery_is_deterministic_per_seed() {
        let plan = grid_plan();
        let src = plan.src_pool[0];
        let dst = plan.dst_pool[3];
        let a = run_discovery(&plan, ProtocolKind::Mr, src, dst, 42);
        let b = run_discovery(&plan, ProtocolKind::Mr, src, dst, 42);
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.overhead, b.overhead);
        let c = run_discovery(&plan, ProtocolKind::Mr, src, dst, 43);
        // Different seeds virtually always shuffle the collected set.
        assert!(c.routes != a.routes || c.overhead != a.overhead);
    }
}
