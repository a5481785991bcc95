//! The router behaviour run by every node.
//!
//! One [`RouterNode`] type implements all four protocols; the
//! [`ForwardPolicy`] it carries decides duplicate handling. The same node
//! code acts as source (originates RREQs, collects RREPs, sends probe
//! data), intermediate (forwards per policy / source route), and
//! destination (collects routes over the collection window, replies).
//!
//! All message handling is factored into `handle_*` methods that report
//! what they did via [`RreqAction`]/[`DataAction`], so that wrapper
//! behaviours (the attack models in `manet-attacks`) can delegate to the
//! normal logic and react to it — e.g. tunnel every RREQ copy the node
//! forwards — without duplicating protocol code.

use crate::packet::{AckPkt, DataPkt, RerrPkt, RoutingMsg, Rrep, Rreq, RreqId};
use crate::policy::{DestinationAccept, ForwardDecision, ForwardPolicy, ProtocolKind};
use crate::route::{select_disjoint, Route};
use manet_sim::{Behavior, Channel, Ctx, Link, NodeId, SimDuration};
use std::collections::{HashMap, HashSet, VecDeque};

/// Timer key tags (upper bits) used by [`RouterNode`].
pub mod timer {
    /// Originate the next queued route discovery.
    pub const START_DISCOVERY: u64 = 1 << 63;
    /// Destination collection window expired; low bits carry the slot.
    pub const COLLECT: u64 = 1 << 62;
    /// Send the next queued data packet.
    pub const SEND_DATA: u64 = 1 << 61;
    /// Mask extracting the tag.
    pub const TAG_MASK: u64 = START_DISCOVERY | COLLECT | SEND_DATA;
}

/// Router configuration; one copy per node (cheap, `Copy`-ish sizes).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Which protocol this node speaks.
    pub protocol: ProtocolKind,
    /// How long a multipath destination keeps collecting after the first
    /// RREQ copy — the paper's "wait certain amount of time (a design
    /// parameter) after receiving the first RREQ".
    pub collection_window: SimDuration,
    /// Per-discovery duplicate-forward cap (see [`ForwardPolicy`]).
    pub max_forwards: u32,
    /// How many (maximally disjoint) routes a multipath destination
    /// returns to the source via RREP.
    pub rrep_routes: usize,
}

impl RouterConfig {
    /// Defaults for `protocol`: 200 ms window, cap 64, 3 RREPs.
    pub fn new(protocol: ProtocolKind) -> Self {
        RouterConfig {
            protocol,
            collection_window: SimDuration::from_millis(200),
            max_forwards: 64,
            rrep_routes: 3,
        }
    }
}

/// What `handle_rreq` did with an arriving copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RreqAction {
    /// The copy was rebroadcast; the extended RREQ is returned so wrappers
    /// can mirror it (e.g. into a wormhole tunnel).
    Forwarded(Rreq),
    /// This node is the destination and recorded the copy as a route.
    RecordedRoute(Route),
    /// This node is the destination but its acceptance rule rejected the
    /// copy (AOMDV per-last-hop rule).
    RejectedAtDestination,
    /// Dropped by the forwarding policy (duplicate, loop, hop bound, cap).
    Dropped,
}

/// What `handle_data` did with an arriving data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataAction {
    /// Forwarded to the next hop on the source route.
    Forwarded(NodeId),
    /// This node is the destination; an ACK was sent back.
    DeliveredAndAcked,
    /// The next hop is not reachable (no radio link, no tunnel): dropped.
    NoNextHop,
    /// The packet does not list this node on its route: dropped.
    NotOnRoute,
}

/// Per-node statistics beyond the engine's tx/rx counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// RREQ copies rebroadcast.
    pub rreqs_forwarded: u64,
    /// RREQ copies dropped by policy.
    pub rreqs_dropped: u64,
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Data packets dropped for lack of a usable next hop.
    pub data_no_next_hop: u64,
}

/// The behaviour of one routing node.
#[derive(Debug)]
pub struct RouterNode {
    id: NodeId,
    cfg: RouterConfig,
    policy: ForwardPolicy,
    dest_accept: DestinationAccept,

    // --- source state ---
    next_seq: u32,
    pending_discoveries: VecDeque<NodeId>,
    /// Routes received back via RREP, in arrival order.
    source_routes: Vec<Route>,

    // --- destination state ---
    /// Copies collected per open discovery window.
    collecting: HashMap<RreqId, Vec<Route>>,
    /// Window timer slots → discovery ids.
    window_slots: Vec<RreqId>,
    /// Finalized route sets (window closed), in completion order.
    finalized: Vec<(RreqId, Vec<Route>)>,

    // --- data plane ---
    pending_data: VecDeque<DataPkt>,
    /// Sequence numbers of data packets this node originated and saw ACKed.
    acked: HashSet<u32>,
    /// Links reported broken via RERR (this node was the source).
    broken_links: Vec<Link>,

    /// Out-of-band link: `(peer, one-way latency)`. `None` for ordinary
    /// nodes; the attack layer sets it on wormhole endpoints so that
    /// RREP/data forwarding across the tunneled "link" works.
    oob: Option<(NodeId, SimDuration)>,

    /// Transmission latency scale applied to this node's broadcasts.
    /// 1.0 for honest radios; < 1 models a node that skips the randomized
    /// MAC backoff (the rushing attack); > 1 a slow/congested node.
    latency_scale: f64,

    /// Local statistics.
    pub stats: RouterStats,
}

impl RouterNode {
    /// A router for node `id` with the given configuration.
    pub fn new(id: NodeId, cfg: RouterConfig) -> Self {
        RouterNode {
            id,
            policy: ForwardPolicy::with_max_forwards(cfg.protocol, cfg.max_forwards),
            dest_accept: DestinationAccept::default(),
            cfg,
            next_seq: 0,
            pending_discoveries: VecDeque::new(),
            source_routes: Vec::new(),
            collecting: HashMap::new(),
            window_slots: Vec::new(),
            finalized: Vec::new(),
            pending_data: VecDeque::new(),
            acked: HashSet::new(),
            broken_links: Vec::new(),
            oob: None,
            latency_scale: 1.0,
            stats: RouterStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol in use.
    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    /// Configure the out-of-band link (wormhole tunnel endpoint).
    pub fn set_out_of_band(&mut self, peer: NodeId, latency: SimDuration) {
        self.oob = Some((peer, latency));
    }

    /// The out-of-band peer, if any.
    pub fn out_of_band(&self) -> Option<(NodeId, SimDuration)> {
        self.oob
    }

    /// Set the broadcast latency scale (see the field docs; used by the
    /// rushing-attack model).
    pub fn set_latency_scale(&mut self, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite());
        self.latency_scale = scale;
    }

    /// The broadcast latency scale in effect.
    pub fn latency_scale(&self) -> f64 {
        self.latency_scale
    }

    /// Queue a route discovery towards `dst`; it starts when a
    /// [`timer::START_DISCOVERY`] timer fires at this node. Returns the id
    /// the discovery will use.
    pub fn queue_discovery(&mut self, dst: NodeId) -> RreqId {
        let id = RreqId {
            src: self.id,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.pending_discoveries.push_back(dst);
        id
    }

    /// Queue a source-routed data packet (probe); it is sent when a
    /// [`timer::SEND_DATA`] timer fires at this node.
    pub fn queue_data(&mut self, route: Route, seq: u32) {
        self.pending_data.push_back(DataPkt { route, seq });
    }

    /// Routes this node received back via RREP (it was the source).
    pub fn source_routes(&self) -> &[Route] {
        &self.source_routes
    }

    /// Finalized destination route sets, one per completed discovery.
    pub fn finalized(&self) -> &[(RreqId, Vec<Route>)] {
        &self.finalized
    }

    /// The finalized route set of a specific discovery, if its window has
    /// closed at this node.
    pub fn routes_for(&self, id: RreqId) -> Option<&[Route]> {
        self.finalized
            .iter()
            .find(|(fid, _)| *fid == id)
            .map(|(_, v)| v.as_slice())
    }

    /// Whether the data packet `seq` originated here was ACKed end-to-end.
    pub fn was_acked(&self, seq: u32) -> bool {
        self.acked.contains(&seq)
    }

    /// Links reported broken to this node (as a source) via RERR, in
    /// arrival order.
    pub fn broken_links(&self) -> &[Link] {
        &self.broken_links
    }

    // ------------------------------------------------------------------
    // Message handling (shared with wrapper behaviours)
    // ------------------------------------------------------------------

    /// Process an arriving RREQ copy per the forwarding policy / the
    /// destination acceptance rule.
    pub fn handle_rreq(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, rreq: Rreq) -> RreqAction {
        if rreq.dst == self.id {
            // Destination: record, never forward.
            if !self.dest_accept.accept(self.cfg.protocol, &rreq) {
                return RreqAction::RejectedAtDestination;
            }
            let mut nodes = rreq.path.to_vec();
            nodes.push(self.id);
            let route = match Route::new(nodes) {
                Ok(r) => r,
                // A copy that already visited the destination cannot occur
                // (the destination never forwards), but stay robust.
                Err(_) => return RreqAction::RejectedAtDestination,
            };
            let first_copy = !self.collecting.contains_key(&rreq.id);
            self.collecting
                .entry(rreq.id)
                .or_default()
                .push(route.clone());
            if first_copy {
                let slot = self.window_slots.len() as u64;
                self.window_slots.push(rreq.id);
                ctx.set_timer(self.cfg.collection_window, timer::COLLECT | slot);
            }
            // Classic DSR replies to every copy immediately; multipath
            // protocols reply once the window closes.
            if self.cfg.protocol == ProtocolKind::Dsr {
                self.send_rrep(ctx, rreq.id, route.clone());
            }
            return RreqAction::RecordedRoute(route);
        }

        match self.policy.decide(self.id, &rreq) {
            ForwardDecision::Forward => {
                let extended = rreq.extended(self.id);
                self.stats.rreqs_forwarded += 1;
                ctx.broadcast_scaled(RoutingMsg::Rreq(extended.clone()), self.latency_scale);
                RreqAction::Forwarded(extended)
            }
            ForwardDecision::Drop => {
                self.stats.rreqs_dropped += 1;
                RreqAction::Dropped
            }
        }
    }

    /// Process an arriving RREP: record it if we are the source, otherwise
    /// relay it towards the source.
    pub fn handle_rrep(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, rrep: Rrep) {
        if rrep.route.src() == self.id {
            self.source_routes.push(rrep.route);
            return;
        }
        if let Some(prev) = rrep.route.prev_hop(self.id) {
            self.send_towards(ctx, prev, RoutingMsg::Rrep(rrep));
        }
        // A node not on the route silently ignores a stray RREP.
    }

    /// Process an arriving (or originated) data packet.
    pub fn handle_data(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, data: DataPkt) -> DataAction {
        if data.route.dst() == self.id {
            let ack = AckPkt {
                route: data.route.reversed(),
                seq: data.seq,
            };
            if let Some(next) = ack.route.next_hop(self.id) {
                self.send_towards(ctx, next, RoutingMsg::Ack(ack));
            }
            return DataAction::DeliveredAndAcked;
        }
        let Some(next) = data.route.next_hop(self.id) else {
            return DataAction::NotOnRoute;
        };
        if self.can_reach(ctx, next) {
            self.stats.data_forwarded += 1;
            self.send_towards(ctx, next, RoutingMsg::Data(data));
            DataAction::Forwarded(next)
        } else {
            self.stats.data_no_next_hop += 1;
            // DSR-style route maintenance: report the broken hop back to
            // the source (unless we *are* the source, which learns
            // directly).
            if data.route.src() == self.id {
                self.broken_links.push(Link::new(self.id, next));
                self.source_routes
                    .retain(|r| !r.contains_link(Link::new(self.id, next)));
            } else {
                let rerr = RerrPkt {
                    route: data.route.clone(),
                    broken_from: self.id,
                    broken_to: next,
                };
                if let Some(prev) = data.route.prev_hop(self.id) {
                    if self.can_reach(ctx, prev) {
                        self.send_towards(ctx, prev, RoutingMsg::Rerr(rerr));
                    }
                }
            }
            DataAction::NoNextHop
        }
    }

    /// Process an arriving RERR: record it if we are the route's source,
    /// otherwise relay it towards the source.
    pub fn handle_rerr(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, rerr: RerrPkt) {
        if rerr.route.src() == self.id {
            let broken = Link::new(rerr.broken_from, rerr.broken_to);
            self.broken_links.push(broken);
            // Drop every known route that crosses the dead link.
            self.source_routes.retain(|r| !r.contains_link(broken));
            return;
        }
        if let Some(prev) = rerr.route.prev_hop(self.id) {
            if self.can_reach(ctx, prev) {
                self.send_towards(ctx, prev, RoutingMsg::Rerr(rerr));
            }
        }
    }

    /// Process an arriving ACK: record it if we originated the probe,
    /// otherwise relay it.
    pub fn handle_ack(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, ack: AckPkt) {
        if ack.route.dst() == self.id {
            self.acked.insert(ack.seq);
            return;
        }
        if let Some(next) = ack.route.next_hop(self.id) {
            if self.can_reach(ctx, next) {
                self.send_towards(ctx, next, RoutingMsg::Ack(ack));
            }
        }
    }

    /// Fire a timer (shared with wrapper behaviours).
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, key: u64) {
        match key & timer::TAG_MASK {
            timer::START_DISCOVERY => {
                if let Some(dst) = self.pending_discoveries.pop_front() {
                    // The seq consumed at queue time is next_seq-1 for the
                    // most recent queue_discovery; replay in FIFO order.
                    let seq = self.next_seq - self.pending_discoveries.len() as u32 - 1;
                    let rreq = Rreq {
                        id: RreqId { src: self.id, seq },
                        dst,
                        path: vec![self.id].into(),
                    };
                    ctx.broadcast_scaled(RoutingMsg::Rreq(rreq), self.latency_scale);
                }
            }
            timer::COLLECT => {
                let slot = (key & !timer::TAG_MASK) as usize;
                if let Some(&id) = self.window_slots.get(slot) {
                    let routes = self.collecting.remove(&id).unwrap_or_default();
                    // Multipath destinations reply along the selected
                    // (maximally disjoint) routes once the window closes.
                    if self.cfg.protocol.is_multipath() {
                        for route in select_disjoint(&routes, self.cfg.rrep_routes) {
                            self.send_rrep(ctx, id, route);
                        }
                    }
                    self.finalized.push((id, routes));
                }
            }
            timer::SEND_DATA => {
                if let Some(data) = self.pending_data.pop_front() {
                    self.handle_data(ctx, data);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn send_rrep(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, id: RreqId, route: Route) {
        if let Some(prev) = route.prev_hop(self.id) {
            self.send_towards(ctx, prev, RoutingMsg::Rrep(Rrep { id, route }));
        }
    }

    /// Whether `next` can be addressed from here (radio neighbour or
    /// out-of-band peer).
    fn can_reach(&self, ctx: &Ctx<'_, RoutingMsg>, next: NodeId) -> bool {
        ctx.topology().are_neighbors(self.id, next) || self.oob.map(|(p, _)| p) == Some(next)
    }

    /// Unicast over the radio if `next` is a neighbour, else over the
    /// out-of-band tunnel if configured, else drop silently.
    fn send_towards(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, next: NodeId, msg: RoutingMsg) {
        if ctx.topology().are_neighbors(self.id, next) {
            ctx.unicast(next, msg);
        } else if let Some((peer, lat)) = self.oob {
            if peer == next {
                ctx.tunnel(peer, lat, msg);
            }
        }
    }
}

impl Behavior for RouterNode {
    type Msg = RoutingMsg;

    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, RoutingMsg>,
        _from: NodeId,
        _channel: Channel,
        msg: RoutingMsg,
    ) {
        match msg {
            RoutingMsg::Rreq(rreq) => {
                self.handle_rreq(ctx, rreq);
            }
            RoutingMsg::Rrep(rrep) => self.handle_rrep(ctx, rrep),
            RoutingMsg::Data(data) => {
                self.handle_data(ctx, data);
            }
            RoutingMsg::Ack(ack) => self.handle_ack(ctx, ack),
            RoutingMsg::Rerr(rerr) => self.handle_rerr(ctx, rerr),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RoutingMsg>, key: u64) {
        self.handle_timer(ctx, key);
    }
}

/// Access to the underlying router inside any (possibly wrapped) behaviour
/// — what the discovery drivers use to queue work and read results.
pub trait RouterAccess {
    /// The wrapped router, read-only.
    fn router(&self) -> &RouterNode;
    /// The wrapped router, mutable.
    fn router_mut(&mut self) -> &mut RouterNode;
}

impl RouterAccess for RouterNode {
    fn router(&self) -> &RouterNode {
        self
    }
    fn router_mut(&mut self) -> &mut RouterNode {
        self
    }
}
