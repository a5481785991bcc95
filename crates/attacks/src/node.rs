//! The attack-aware node behaviour.
//!
//! [`AttackNode`] wraps a normal [`RouterNode`] and adds the wormhole /
//! data-drop logic for nodes playing an attacker role. A vector of
//! `AttackNode`s is what the discovery [`Session`](manet_routing::Session)
//! runs; legitimate nodes pay only an enum-dispatch on each event.

use crate::wormhole::{WormholeConfig, WormholeMode};
use manet_routing::{Route, RouterAccess, RouterNode, RoutingMsg, Rrep, RreqAction};
use manet_sim::{Behavior, Channel, Ctx, NodeId, SimDuration};
use std::collections::HashSet;

/// Statistics recorded by an attacker endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackStats {
    /// RREQ copies pushed into the tunnel.
    pub rreqs_tunneled: u64,
    /// RREQ copies replayed out of the tunnel (hidden mode rebroadcasts).
    pub rreqs_replayed: u64,
    /// Data packets dropped by the drop policy.
    pub data_dropped: u64,
    /// ACK packets dropped by the drop policy.
    pub acks_dropped: u64,
    /// RREPs fabricated (early-reply blackhole).
    pub rreps_fabricated: u64,
}

/// Role-specific state of one node.
#[derive(Debug)]
enum Role {
    /// An honest router.
    Legit,
    /// A wormhole endpoint tunnelling to `peer`.
    Wormhole {
        peer: NodeId,
        cfg: WormholeConfig,
        /// Fingerprints of RREQ copies already tunnelled/replayed, to stop
        /// replay ping-pong in hidden mode (and redundant tunnel traffic
        /// in participation mode).
        seen: HashSet<u64>,
        stats: AttackStats,
    },
    /// A rushing attacker (Hu/Perrig/Johnson '03, cited by the paper):
    /// forwards route requests per protocol but *without* the MAC backoff
    /// honest radios observe, so its copies win every first-arrival race.
    /// The speed itself is configured on the wrapped router's latency
    /// scale; the role tag exists for reporting.
    Rusher { stats: AttackStats },
    /// An early-reply blackhole (paper §IV): answers overheard RREQs with
    /// a fabricated RREP claiming to be one hop from the destination,
    /// never forwards the flood, and drops all data attracted this way.
    Fabricator {
        /// Fabricate at most one reply per discovery id fingerprint.
        seen: HashSet<u64>,
        stats: AttackStats,
    },
    /// A quarantined node: the IDS response module has isolated it, so
    /// the rest of the network neither forwards for it nor listens to it.
    /// Modelled as full inertness (it still physically receives frames —
    /// the rx counters tick — but never reacts).
    Isolated,
}

/// A node that may be honest or a wormhole endpoint.
#[derive(Debug)]
pub struct AttackNode {
    router: RouterNode,
    role: Role,
}

fn fingerprint(rreq: &manet_routing::Rreq) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rreq.id.hash(&mut h);
    rreq.path.hash(&mut h);
    h.finish()
}

impl AttackNode {
    /// An honest node.
    pub fn legit(router: RouterNode) -> Self {
        AttackNode {
            router,
            role: Role::Legit,
        }
    }

    /// A wormhole endpoint tunnelling to `peer` with configuration `cfg`.
    ///
    /// In participation mode the router's out-of-band link is wired to the
    /// peer so RREP and data forwarding across the tunneled "link" work —
    /// the attackers *behave normally during routing*, as the paper's
    /// threat model requires.
    pub fn wormhole(mut router: RouterNode, peer: NodeId, cfg: WormholeConfig) -> Self {
        if cfg.mode == WormholeMode::Participation {
            router.set_out_of_band(peer, cfg.tunnel_latency);
        }
        AttackNode {
            router,
            role: Role::Wormhole {
                peer,
                cfg,
                seen: HashSet::new(),
                stats: AttackStats::default(),
            },
        }
    }

    /// A rushing attacker: its broadcasts go out at `scale` of the honest
    /// latency (e.g. 0.1 = ten times faster than anyone's backoff).
    pub fn rusher(mut router: RouterNode, scale: f64) -> Self {
        router.set_latency_scale(scale);
        AttackNode {
            router,
            role: Role::Rusher {
                stats: AttackStats::default(),
            },
        }
    }

    /// An early-reply blackhole (fabricated RREPs + data dropping).
    pub fn fabricator(router: RouterNode) -> Self {
        AttackNode {
            router,
            role: Role::Fabricator {
                seen: HashSet::new(),
                stats: AttackStats::default(),
            },
        }
    }

    /// A quarantined node: it still receives frames (the rx counters
    /// tick) but never reacts.
    pub fn isolated(router: RouterNode) -> Self {
        AttackNode {
            router,
            role: Role::Isolated,
        }
    }

    /// Whether this node plays an attacker role.
    pub fn is_attacker(&self) -> bool {
        !matches!(self.role, Role::Legit | Role::Isolated)
    }

    /// Whether this node has been quarantined by the response module.
    pub fn is_isolated(&self) -> bool {
        matches!(self.role, Role::Isolated)
    }

    /// Attack statistics, if this node is an attacker.
    pub fn attack_stats(&self) -> Option<AttackStats> {
        match &self.role {
            Role::Wormhole { stats, .. }
            | Role::Rusher { stats }
            | Role::Fabricator { stats, .. } => Some(*stats),
            Role::Legit | Role::Isolated => None,
        }
    }

    fn handle_as_fabricator(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, msg: RoutingMsg) {
        let Role::Fabricator { seen, stats } = &mut self.role else {
            unreachable!("caller checked role");
        };
        match msg {
            RoutingMsg::Rreq(rreq) => {
                // Never forward the flood; instead claim "the destination
                // is my neighbour" by replying with the overheard path
                // extended through ourselves. One reply per discovery.
                let me = self.router.id();
                if rreq.dst == me || rreq.path.contains(&me) {
                    return;
                }
                let mut h = std::collections::hash_map::DefaultHasher::new();
                use std::hash::{Hash, Hasher};
                rreq.id.hash(&mut h);
                if !seen.insert(h.finish()) {
                    return;
                }
                let mut nodes = rreq.path.to_vec();
                let prev = rreq.last_hop();
                nodes.push(me);
                nodes.push(rreq.dst);
                if let Ok(route) = Route::new(nodes) {
                    stats.rreps_fabricated += 1;
                    ctx.unicast(prev, RoutingMsg::Rrep(Rrep { id: rreq.id, route }));
                }
            }
            // The blackhole part: attracted data (and its ACKs) die here.
            RoutingMsg::Data(data) => {
                if data.route.dst() == self.router.id() {
                    self.router.handle_data(ctx, data);
                } else if let Role::Fabricator { stats, .. } = &mut self.role {
                    stats.data_dropped += 1;
                }
            }
            RoutingMsg::Ack(ack) => {
                if ack.route.dst() == self.router.id() {
                    self.router.handle_ack(ctx, ack);
                } else if let Role::Fabricator { stats, .. } = &mut self.role {
                    stats.acks_dropped += 1;
                }
            }
            // Relay RREPs normally to stay inconspicuous…
            RoutingMsg::Rrep(rrep) => self.router.handle_rrep(ctx, rrep),
            // …but swallow route errors: they would expose the fake hop.
            RoutingMsg::Rerr(_) => {
                if let Role::Fabricator { stats, .. } = &mut self.role {
                    stats.acks_dropped += 1;
                }
            }
        }
    }

    fn handle_as_wormhole(
        &mut self,
        ctx: &mut Ctx<'_, RoutingMsg>,
        _from: NodeId,
        channel: Channel,
        msg: RoutingMsg,
    ) {
        let Role::Wormhole {
            peer,
            cfg,
            seen,
            stats,
        } = &mut self.role
        else {
            unreachable!("caller checked role");
        };
        match msg {
            RoutingMsg::Rreq(rreq) => match cfg.mode {
                WormholeMode::Participation => {
                    // Normal routing first; mirror every copy we forward
                    // into the tunnel. The peer receives the extended copy
                    // (…, me) and appends itself on rebroadcast, creating
                    // the me–peer link in recorded routes.
                    let action = self.router.handle_rreq(ctx, rreq);
                    if let RreqAction::Forwarded(extended) = action {
                        // The seen-check comes first so the tunnel policy is
                        // only consulted (and, for Selective, the RNG only
                        // drawn) on copies that would actually be tunneled.
                        if seen.insert(fingerprint(&extended)) {
                            let now = ctx.now();
                            if cfg.tunneling.tunnels(now, ctx.rng()) {
                                stats.rreqs_tunneled += 1;
                                ctx.tunnel(*peer, cfg.tunnel_latency, RoutingMsg::Rreq(extended));
                            }
                        }
                    }
                }
                WormholeMode::Hidden => {
                    // Verbatim replay: never append ourselves.
                    let fp = fingerprint(&rreq);
                    match channel {
                        Channel::Tunnel => {
                            if seen.insert(fp) {
                                stats.rreqs_replayed += 1;
                                ctx.broadcast(RoutingMsg::Rreq(rreq));
                            }
                        }
                        _ => {
                            // Gate only the tunnel ingress: an intermittent
                            // attacker still replays whatever arrives from
                            // its peer (suppressing the egress too would
                            // just double-count the same decision).
                            if seen.insert(fp) {
                                let now = ctx.now();
                                if cfg.tunneling.tunnels(now, ctx.rng()) {
                                    stats.rreqs_tunneled += 1;
                                    ctx.tunnel(*peer, cfg.tunnel_latency, RoutingMsg::Rreq(rreq));
                                }
                            }
                        }
                    }
                }
            },
            RoutingMsg::Data(data) => {
                // Post-capture data-plane attack: drop per policy, unless
                // the packet is addressed to us (an attacker receiving its
                // own probe would only reveal itself by not ACKing its own
                // traffic — it ACKs to blend in).
                if data.route.dst() != self.router.id() && cfg.drop.drops(ctx.rng()) {
                    stats.data_dropped += 1;
                    return;
                }
                self.router.handle_data(ctx, data);
            }
            RoutingMsg::Ack(ack) => {
                if ack.route.dst() != self.router.id() && cfg.drop.drops(ctx.rng()) {
                    stats.acks_dropped += 1;
                    return;
                }
                self.router.handle_ack(ctx, ack);
            }
            // Attackers behave normally during routing: RREPs and RERRs
            // are relayed faithfully (the tunnel crossing is handled by
            // the router's out-of-band link).
            RoutingMsg::Rrep(rrep) => self.router.handle_rrep(ctx, rrep),
            RoutingMsg::Rerr(rerr) => self.router.handle_rerr(ctx, rerr),
        }
    }
}

impl Behavior for AttackNode {
    type Msg = RoutingMsg;

    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, RoutingMsg>,
        from: NodeId,
        channel: Channel,
        msg: RoutingMsg,
    ) {
        match self.role {
            // Rushers run the normal protocol; their speed advantage is
            // baked into the router's latency scale.
            Role::Legit | Role::Rusher { .. } => self.router.on_receive(ctx, from, channel, msg),
            Role::Wormhole { .. } => self.handle_as_wormhole(ctx, from, channel, msg),
            Role::Fabricator { .. } => self.handle_as_fabricator(ctx, msg),
            Role::Isolated => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, key: u64) {
        if matches!(self.role, Role::Isolated) {
            return;
        }
        self.router.handle_timer(ctx, key);
    }
}

impl RouterAccess for AttackNode {
    fn router(&self) -> &RouterNode {
        &self.router
    }
    fn router_mut(&mut self) -> &mut RouterNode {
        &mut self.router
    }
}

/// Roles assigned to every node of a plan.
#[derive(Clone, Debug, Default)]
pub struct AttackWiring {
    /// `(endpoint, peer, config)` triples; both directions must be listed.
    endpoints: Vec<(NodeId, NodeId, WormholeConfig)>,
    /// `(node, latency scale)` rushing attackers.
    rushers: Vec<(NodeId, f64)>,
    /// Early-reply blackhole nodes.
    fabricators: Vec<NodeId>,
    /// Quarantined nodes (override every other role).
    isolated: Vec<NodeId>,
}

impl AttackWiring {
    /// No active attacks (the "normal system").
    pub fn none() -> Self {
        AttackWiring::default()
    }

    /// Activate the wormhole pairs of `plan` whose indices are in
    /// `active`, all with configuration `cfg`.
    pub fn from_plan(plan: &manet_sim::NetworkPlan, active: &[usize], cfg: WormholeConfig) -> Self {
        let mut endpoints = Vec::new();
        for &i in active {
            let pair = plan.attacker_pairs[i];
            endpoints.push((pair.a, pair.b, cfg));
            endpoints.push((pair.b, pair.a, cfg));
        }
        AttackWiring {
            endpoints,
            ..AttackWiring::default()
        }
    }

    /// Add a rushing attacker at `node` whose broadcasts go out at
    /// `scale` of the honest latency.
    pub fn with_rusher(mut self, node: NodeId, scale: f64) -> Self {
        self.rushers.push((node, scale));
        self
    }

    /// Add an early-reply blackhole at `node`.
    pub fn with_fabricator(mut self, node: NodeId) -> Self {
        self.fabricators.push(node);
        self
    }

    /// Quarantine `node` (the response module's isolation; overrides any
    /// other role assignment).
    pub fn with_isolated(mut self, node: NodeId) -> Self {
        self.isolated.push(node);
        self
    }

    /// Activate wormhole pairs of `plan` with *per-pair* configurations:
    /// each `(index, cfg)` entry activates `plan.attacker_pairs[index]`
    /// with its own config. This is how a second, independent wormhole
    /// (possibly with a different mode or tunnel policy) is wired next to
    /// the first.
    pub fn from_plan_configs(
        plan: &manet_sim::NetworkPlan,
        configs: &[(usize, WormholeConfig)],
    ) -> Self {
        let mut endpoints = Vec::new();
        for &(i, cfg) in configs {
            let pair = plan.attacker_pairs[i];
            endpoints.push((pair.a, pair.b, cfg));
            endpoints.push((pair.b, pair.a, cfg));
        }
        AttackWiring {
            endpoints,
            ..AttackWiring::default()
        }
    }

    /// Activate *all* pairs of the plan.
    pub fn all_pairs(plan: &manet_sim::NetworkPlan, cfg: WormholeConfig) -> Self {
        let idx: Vec<usize> = (0..plan.attacker_pairs.len()).collect();
        Self::from_plan(plan, &idx, cfg)
    }

    /// The role of node `id`: `Some((peer, cfg))` if it is an active
    /// wormhole endpoint.
    pub fn role_of(&self, id: NodeId) -> Option<(NodeId, WormholeConfig)> {
        self.endpoints
            .iter()
            .find(|(e, _, _)| *e == id)
            .map(|&(_, p, c)| (p, c))
    }

    /// Build the behaviour for node `id` given a freshly constructed
    /// router. Wormhole roles take precedence, then rushers, then
    /// fabricators.
    pub fn build(&self, router: RouterNode) -> AttackNode {
        let id = router.id();
        if self.isolated.contains(&id) {
            return AttackNode::isolated(router);
        }
        if let Some((peer, cfg)) = self.role_of(id) {
            return AttackNode::wormhole(router, peer, cfg);
        }
        if let Some(&(_, scale)) = self.rushers.iter().find(|(n, _)| *n == id) {
            return AttackNode::rusher(router, scale);
        }
        if self.fabricators.contains(&id) {
            return AttackNode::fabricator(router);
        }
        AttackNode::legit(router)
    }
}

/// Default tunnel latency re-export for convenience in tests.
pub const DEFAULT_TUNNEL_LATENCY: SimDuration = SimDuration(200);

#[cfg(test)]
mod tests {
    use super::*;
    use manet_routing::{ProtocolKind, RouterConfig};
    use manet_sim::prelude::*;

    #[test]
    fn wiring_assigns_roles_symmetrically() {
        let plan = uniform_grid(6, 6, 1);
        let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::default());
        let pair = plan.attacker_pairs[0];
        assert_eq!(wiring.role_of(pair.a).map(|(p, _)| p), Some(pair.b));
        assert_eq!(wiring.role_of(pair.b).map(|(p, _)| p), Some(pair.a));
        assert!(wiring.role_of(plan.src_pool[0]).is_none());
    }

    #[test]
    fn none_wiring_builds_only_legit_nodes() {
        let plan = uniform_grid(6, 6, 1);
        let wiring = AttackWiring::none();
        for id in plan.topology.nodes() {
            let node = wiring.build(RouterNode::new(id, RouterConfig::new(ProtocolKind::Mr)));
            assert!(!node.is_attacker());
            assert!(node.attack_stats().is_none());
        }
    }

    #[test]
    fn participation_endpoint_gets_out_of_band_link() {
        let plan = uniform_grid(6, 6, 1);
        let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::default());
        let pair = plan.attacker_pairs[0];
        let node = wiring.build(RouterNode::new(pair.a, RouterConfig::new(ProtocolKind::Mr)));
        assert!(node.is_attacker());
        assert_eq!(node.router().out_of_band().map(|(p, _)| p), Some(pair.b));
    }

    #[test]
    fn hidden_endpoint_has_no_out_of_band_link() {
        let plan = uniform_grid(6, 6, 1);
        let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::hidden());
        let pair = plan.attacker_pairs[0];
        let node = wiring.build(RouterNode::new(pair.a, RouterConfig::new(ProtocolKind::Mr)));
        assert!(node.is_attacker());
        assert!(node.router().out_of_band().is_none());
    }

    #[test]
    fn per_pair_configs_wire_independent_wormholes() {
        use crate::wormhole::TunnelPolicy;
        let mut plan = uniform_grid(6, 6, 1);
        plan.attacker_pairs.push(AttackerPair {
            a: NodeId(0),
            b: NodeId(35),
        });
        let wiring = AttackWiring::from_plan_configs(
            &plan,
            &[
                (0, WormholeConfig::default()),
                (1, WormholeConfig::selective(0.5)),
            ],
        );
        let p0 = plan.attacker_pairs[0];
        assert_eq!(
            wiring.role_of(p0.a).map(|(_, c)| c.tunneling),
            Some(TunnelPolicy::Always)
        );
        assert_eq!(
            wiring.role_of(NodeId(35)).map(|(_, c)| c.tunneling),
            Some(TunnelPolicy::Selective(0.5))
        );
        let honest = plan
            .topology
            .nodes()
            .find(|&n| !plan.attacker_pairs.iter().any(|p| p.a == n || p.b == n))
            .unwrap();
        assert!(wiring.role_of(honest).is_none());
    }

    #[test]
    fn subset_activation() {
        let mut plan = uniform_grid(6, 6, 1);
        // Fabricate a second pair out of two grid corners for the test.
        plan.attacker_pairs.push(AttackerPair {
            a: NodeId(0),
            b: NodeId(35),
        });
        let wiring = AttackWiring::from_plan(&plan, &[1], WormholeConfig::default());
        assert!(wiring.role_of(plan.attacker_pairs[0].a).is_none());
        assert!(wiring.role_of(NodeId(0)).is_some());
    }
}
