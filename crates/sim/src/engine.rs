//! The discrete-event network engine.
//!
//! A [`Network`] owns the topology, the event queue, the seeded RNG, and
//! the tx/rx metrics. Node protocol logic lives *outside* the engine in
//! types implementing [`Behavior`]; the engine's `run` loop pops events and
//! dispatches them to the behaviour of the addressed node, handing it a
//! [`Ctx`] through which it can broadcast, unicast, tunnel, and set timers.
//!
//! Determinism: all randomness (latency jitter, behaviour-level coin flips)
//! flows from the single `StdRng` seeded at construction, and simultaneous
//! events fire in scheduling order, so a run is a pure function of
//! `(topology, behaviours, seed)`.

use crate::event::{Channel, EventKind, EventQueue, FaultKind};
use crate::ids::NodeId;
use crate::metrics::Metrics;
use crate::radio::LatencyModel;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEntry, TraceKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sam_telemetry::Telemetry;
use std::fmt::Debug;

/// Protocol logic for one node. `Msg` is the wire message type shared by
/// all nodes in a run (typically an enum of RREQ/RREP/DATA/ACK).
pub trait Behavior {
    /// Wire message type.
    type Msg: Clone + Debug;

    /// A message addressed to (or overheard by) this node has arrived.
    fn on_receive(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        channel: Channel,
        msg: Self::Msg,
    );

    /// A timer set through [`Ctx::set_timer`] has fired. Default: ignore.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, key: u64) {
        let _ = (ctx, key);
    }
}

/// The fate of one about-to-be-scheduled over-the-air delivery, decided
/// by a [`FaultHook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryVerdict {
    /// Drop the delivery (recorded as a [`FaultKind::Dropped`] trace
    /// entry; the receiver never hears it).
    pub drop: bool,
    /// Schedule a second copy arriving this much *after* the original —
    /// packet duplication.
    pub duplicate: Option<SimDuration>,
    /// Extra latency on the original — reordering jitter (a delayed copy
    /// can arrive after packets sent later).
    pub delay: SimDuration,
}

impl DeliveryVerdict {
    /// Leave the delivery untouched.
    pub const PASS: DeliveryVerdict = DeliveryVerdict {
        drop: false,
        duplicate: None,
        delay: SimDuration::ZERO,
    };
}

/// A deterministic fault-injection hook, consulted by the engine.
///
/// The contract that makes replay determinism composable: an
/// implementation must not draw from `rng` unless a fault with
/// probability `> 0` actually covers the consulted delivery. A hook whose
/// every fault has probability zero is then invisible to the RNG stream,
/// so the run is byte-identical to one with no hook installed — the
/// property tests in `sam-faults` pin exactly this.
pub trait FaultHook: Send {
    /// A scheduled [`FaultKind`] directive fired (burst edge or churn).
    /// Returns the number of topology links currently inside an active
    /// loss-burst scope, surfaced as the `faults.links_down` gauge.
    fn on_fault(&mut self, topology: &Topology, at: SimTime, node: NodeId, kind: FaultKind) -> u64;

    /// Decide the fate of one over-the-air delivery (`broadcast` leg or
    /// `unicast`) about to be scheduled at `at`. Tunnel deliveries are
    /// never consulted: the attackers' private channel is assumed
    /// reliable, and its faults are modelled by the attacker behaviours
    /// themselves.
    fn on_delivery(
        &mut self,
        topology: &Topology,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        channel: Channel,
        rng: &mut StdRng,
    ) -> DeliveryVerdict;

    /// Whether `node`'s radio is down (crashed or left) right now. Down
    /// nodes neither receive deliveries nor fire timers.
    fn is_down(&self, node: NodeId) -> bool;
}

/// Cumulative tallies of what the installed [`FaultHook`] did. Flushed
/// per run into the telemetry registry (`faults.*` counters/gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Scheduled fault directives dispatched ([`FaultKind`] events).
    pub injected: u64,
    /// Deliveries dropped — by a loss fault or by a down receiver.
    pub dropped: u64,
    /// Deliveries duplicated by jitter.
    pub duplicated: u64,
    /// Deliveries delayed (reordering jitter) but still delivered.
    pub delayed: u64,
    /// Timer firings suppressed at down nodes.
    pub timers_suppressed: u64,
    /// High-water mark of links inside an active loss-burst scope.
    pub links_down_hwm: u64,
    /// High-water mark of simultaneously down nodes.
    pub nodes_down_hwm: u64,
}

/// Summary of one `run` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events dispatched.
    pub events_processed: u64,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// True if the run stopped because it hit the event cap rather than
    /// draining the queue or reaching the deadline.
    pub truncated: bool,
}

/// The simulation world for one message type.
pub struct Network<M> {
    topology: Topology,
    queue: EventQueue<M>,
    now: SimTime,
    rng: StdRng,
    metrics: Metrics,
    latency: LatencyModel,
    max_events: u64,
    trace: Option<Trace>,
    /// Lineage id of the event currently being dispatched; everything a
    /// behaviour schedules while handling it is stamped as its causal
    /// child. `None` outside the run loop, so harness scheduling
    /// (timers, injections) produces causal roots.
    current_cause: Option<u64>,
    /// Telemetry context recorded into by `run` (events dispatched, queue
    /// high-water mark, one span per run). Captured from the process
    /// global at construction; `None` keeps the hot path untouched.
    telemetry: Option<Telemetry>,
    /// Installed fault-injection hook, if any (see [`FaultHook`]).
    faults: Option<Box<dyn FaultHook>>,
    /// What the hook has done so far (cumulative across runs).
    fault_stats: FaultStats,
}

impl<M: Clone + Debug> Network<M> {
    /// Create a network over `topology`, using `latency` for every
    /// over-the-air delivery and `seed` for all randomness.
    pub fn new(topology: Topology, latency: LatencyModel, seed: u64) -> Self {
        let n = topology.len();
        Network {
            topology,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(n),
            latency,
            max_events: 20_000_000,
            trace: None,
            current_cause: None,
            telemetry: sam_telemetry::global(),
            faults: None,
            fault_stats: FaultStats::default(),
        }
    }

    /// Override the telemetry context (`None` disables recording). The
    /// default is whatever [`sam_telemetry::global`] held when this
    /// network was built.
    pub fn set_telemetry(&mut self, telemetry: Option<Telemetry>) {
        self.telemetry = telemetry;
    }

    /// The telemetry context this network records into, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Install a fault-injection hook (replacing any previous one). The
    /// hook sees every over-the-air delivery and every scheduled fault
    /// directive; see [`FaultHook`] for the determinism contract.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Whether a fault hook is installed.
    pub fn has_fault_hook(&self) -> bool {
        self.faults.is_some()
    }

    /// Cumulative fault-injection tallies (zero when no hook ever acted).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Schedule a fault directive at absolute time `at` (clamped to now).
    /// Dispatch records a [`TraceKind::Fault`] entry and forwards the
    /// directive to the installed hook.
    pub fn schedule_fault(&mut self, at: SimTime, node: NodeId, kind: FaultKind) {
        let at = at.max(self.now);
        self.queue.schedule(at, EventKind::Fault { node, kind });
    }

    /// Ask the hook about one about-to-be-scheduled delivery. `None`
    /// means the delivery is dropped (already recorded and tallied);
    /// otherwise the extra delay and optional duplicate offset.
    fn consult_faults(
        &mut self,
        from: NodeId,
        to: NodeId,
        channel: Channel,
    ) -> Option<(SimDuration, Option<SimDuration>)> {
        consult_faults_split(
            &mut self.faults,
            &self.topology,
            self.now,
            from,
            to,
            channel,
            &mut self.rng,
            &mut self.queue,
            &mut self.trace,
            &mut self.fault_stats,
            self.current_cause,
        )
    }

    /// Start recording a structural event trace (bounded at `capacity`
    /// entries). Re-enabling replaces any previous trace.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Stop tracing and take ownership of the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Override the runaway-flood safety cap (events per run).
    pub fn set_max_events(&mut self, cap: u64) {
        self.max_events = cap;
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated tx/rx counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Reset counters (keeps topology, clock, and RNG state).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Schedule a timer at node `node`, `delay` from now. This is also how
    /// a harness kicks off a scenario (e.g. "source starts discovery at
    /// t=0" is a timer with a behaviour-defined key).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, key: u64) {
        self.queue
            .schedule(self.now + delay, EventKind::Timer { node, key });
    }

    /// Inject a message delivery from outside the simulation (tests).
    pub fn inject(
        &mut self,
        delay: SimDuration,
        to: NodeId,
        from: NodeId,
        channel: Channel,
        msg: M,
    ) {
        self.queue.schedule(
            self.now + delay,
            EventKind::Deliver {
                to,
                from,
                channel,
                msg,
            },
        );
    }

    /// Run until the queue drains, `until` passes, or the event cap hits.
    ///
    /// `behaviors` must have exactly one entry per topology node, indexed
    /// by node id. After the run the caller can inspect the behaviours for
    /// protocol-level results (collected routes, caches, …).
    pub fn run<B: Behavior<Msg = M>>(&mut self, behaviors: &mut [B], until: SimTime) -> RunStats {
        assert_eq!(
            behaviors.len(),
            self.topology.len(),
            "one behaviour per node required"
        );
        // One clone of the Arc-backed handle per run; `None` costs a
        // single branch per event (the queue high-water tracking below).
        let telemetry = self.telemetry.clone();
        let mut span = telemetry.as_ref().map(|t| t.span("sim.run"));
        let mut queue_hwm = 0usize;
        let mut processed = 0u64;
        let mut truncated = false;
        let faults_before = self.fault_stats;
        loop {
            if processed >= self.max_events {
                truncated = self.queue.peek_time().is_some_and(|at| at <= until);
                break;
            }
            let Some(ev) = self.queue.pop_due(until) else {
                break;
            };
            self.now = ev.at;
            processed += 1;
            if telemetry.is_some() {
                queue_hwm = queue_hwm.max(self.queue.len());
            }
            // Everything the handler schedules descends from this event.
            self.current_cause = Some(ev.seq);
            match ev.kind {
                EventKind::Deliver {
                    to,
                    from,
                    channel,
                    msg,
                } => {
                    // A down receiver hears nothing: the in-flight
                    // delivery becomes a fault-channel drop (under the
                    // delivery's own lineage id, so the causal trace
                    // explains the missing reception).
                    if self.faults.as_ref().is_some_and(|h| h.is_down(to)) {
                        if let Some(trace) = &mut self.trace {
                            trace.record(TraceEntry {
                                id: ev.seq,
                                cause: ev.cause,
                                at: ev.at,
                                node: to,
                                kind: TraceKind::Fault {
                                    kind: FaultKind::Dropped { from },
                                },
                            });
                        }
                        self.fault_stats.dropped += 1;
                        continue;
                    }
                    match channel {
                        Channel::Tunnel => self.metrics.node_mut(to).tunnel_rx += 1,
                        _ => self.metrics.node_mut(to).rx += 1,
                    }
                    if let Some(trace) = &mut self.trace {
                        trace.record(TraceEntry {
                            id: ev.seq,
                            cause: ev.cause,
                            at: ev.at,
                            node: to,
                            kind: TraceKind::Deliver { from, channel },
                        });
                    }
                    let behavior = &mut behaviors[to.idx()];
                    let mut ctx = Ctx {
                        net: self,
                        node: to,
                    };
                    behavior.on_receive(&mut ctx, from, channel, msg);
                }
                EventKind::Timer { node, key } => {
                    // A down node's timers stay silent (counted, not
                    // traced: the node-down activation already is).
                    if self.faults.as_ref().is_some_and(|h| h.is_down(node)) {
                        self.fault_stats.timers_suppressed += 1;
                        continue;
                    }
                    if let Some(trace) = &mut self.trace {
                        trace.record(TraceEntry {
                            id: ev.seq,
                            cause: ev.cause,
                            at: ev.at,
                            node,
                            kind: TraceKind::Timer { key },
                        });
                    }
                    let behavior = &mut behaviors[node.idx()];
                    let mut ctx = Ctx { net: self, node };
                    behavior.on_timer(&mut ctx, key);
                }
                EventKind::Fault { node, kind } => {
                    if let Some(trace) = &mut self.trace {
                        trace.record(TraceEntry {
                            id: ev.seq,
                            cause: ev.cause,
                            at: ev.at,
                            node,
                            kind: TraceKind::Fault { kind },
                        });
                    }
                    self.fault_stats.injected += 1;
                    if let Some(hook) = self.faults.as_mut() {
                        let links_down = hook.on_fault(&self.topology, ev.at, node, kind);
                        self.fault_stats.links_down_hwm =
                            self.fault_stats.links_down_hwm.max(links_down);
                        let downs =
                            self.topology.nodes().filter(|&n| hook.is_down(n)).count() as u64;
                        self.fault_stats.nodes_down_hwm =
                            self.fault_stats.nodes_down_hwm.max(downs);
                    }
                }
            }
        }
        self.current_cause = None;
        if let Some(t) = &telemetry {
            let registry = t.registry();
            registry.counter("sim.events_dispatched").add(processed);
            registry.gauge("sim.queue_hwm").record_max(queue_hwm as u64);
            // The flight recorder's loss signal: entries the bounded
            // trace could not hold. Surfaced in every exported snapshot
            // so a truncated recording is never mistaken for a complete
            // one.
            if let Some(trace) = &self.trace {
                registry
                    .gauge("sim.trace_dropped")
                    .record_max(trace.dropped());
            }
            // Fault counters flush as per-run deltas; nothing is emitted
            // on clean runs, so fault-free snapshots are unchanged.
            let fs = self.fault_stats;
            for (name, delta) in [
                ("faults.injected", fs.injected - faults_before.injected),
                ("faults.dropped", fs.dropped - faults_before.dropped),
                (
                    "faults.duplicated",
                    fs.duplicated - faults_before.duplicated,
                ),
                ("faults.delayed", fs.delayed - faults_before.delayed),
                (
                    "faults.timers_suppressed",
                    fs.timers_suppressed - faults_before.timers_suppressed,
                ),
            ] {
                if delta > 0 {
                    registry.counter(name).add(delta);
                }
            }
            if fs.links_down_hwm > 0 {
                registry
                    .gauge("faults.links_down")
                    .record_max(fs.links_down_hwm);
            }
            if fs.nodes_down_hwm > 0 {
                registry
                    .gauge("faults.nodes_down")
                    .record_max(fs.nodes_down_hwm);
            }
            if let Some(span) = &mut span {
                span.field("events", processed);
                span.field("end_us", self.now.as_micros());
                span.field("truncated", truncated);
            }
        }
        RunStats {
            events_processed: processed,
            end_time: self.now,
            truncated,
        }
    }
}

/// Field-wise core of `Network::consult_faults`, callable while the
/// topology's CSR neighbour slices are simultaneously borrowed — the
/// allocation-free broadcast fast path needs disjoint field borrows that
/// a `&mut self` method cannot express.
#[allow(clippy::too_many_arguments)]
fn consult_faults_split<M>(
    faults: &mut Option<Box<dyn FaultHook>>,
    topology: &Topology,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    channel: Channel,
    rng: &mut StdRng,
    queue: &mut EventQueue<M>,
    trace: &mut Option<Trace>,
    fault_stats: &mut FaultStats,
    cause: Option<u64>,
) -> Option<(SimDuration, Option<SimDuration>)> {
    let Some(hook) = faults.as_mut() else {
        return Some((SimDuration::ZERO, None));
    };
    let v = hook.on_delivery(topology, now, from, to, channel, rng);
    if v.drop {
        record_fault_split(queue, trace, cause, now, to, FaultKind::Dropped { from });
        fault_stats.dropped += 1;
        return None;
    }
    if v.duplicate.is_some() {
        record_fault_split(queue, trace, cause, now, to, FaultKind::Duplicated { from });
        fault_stats.duplicated += 1;
    }
    if v.delay > SimDuration::ZERO {
        fault_stats.delayed += 1;
    }
    Some((v.delay, v.duplicate))
}

/// Record a per-delivery fault consequence in the trace, under a freshly
/// allocated lineage id (the id the affected delivery would have used)
/// and the dispatch cause in effect.
fn record_fault_split<M>(
    queue: &mut EventQueue<M>,
    trace: &mut Option<Trace>,
    cause: Option<u64>,
    now: SimTime,
    node: NodeId,
    kind: FaultKind,
) {
    let id = queue.alloc_seq();
    if let Some(trace) = trace {
        trace.record(TraceEntry {
            id,
            cause,
            at: now,
            node,
            kind: TraceKind::Fault { kind },
        });
    }
}

/// The capabilities handed to a behaviour while it handles an event.
pub struct Ctx<'a, M> {
    net: &'a mut Network<M>,
    node: NodeId,
}

impl<'a, M: Clone + Debug> Ctx<'a, M> {
    /// The node this event was dispatched to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// Radio neighbours of this node.
    pub fn neighbors(&self) -> &[NodeId] {
        self.net.topology.neighbors(self.node)
    }

    /// The topology (read-only; for positions, ranges, …).
    pub fn topology(&self) -> &Topology {
        &self.net.topology
    }

    /// Deterministic per-run RNG, for behaviour-level randomness (e.g.
    /// grayhole drop decisions).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.net.rng
    }

    /// Broadcast `msg` to every radio neighbour. Counts as one
    /// transmission; each neighbour's delivery is scheduled with an
    /// independently sampled latency, which is what randomizes flood
    /// arrival order between runs.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast_scaled(msg, 1.0);
    }

    /// Broadcast with the sampled latency scaled by `scale`. `scale < 1`
    /// models a node that skips the randomized MAC backoff honest radios
    /// observe — the *rushing attack*'s core move. `scale > 1` models a
    /// slow or congested node.
    pub fn broadcast_scaled(&mut self, msg: M, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite(), "latency scale {scale}");
        let node = self.node;
        let net = &mut *self.net;
        net.metrics.node_mut(node).tx += 1;
        // Disjoint field borrows: the CSR neighbour/distance slices stay
        // borrowed from the topology while the queue, RNG, and trace are
        // mutated, so the per-broadcast `Vec<(NodeId, f64)>` the old code
        // collected (to end the topology borrow) is gone — as is the
        // per-delivery sqrt, since distances are precomputed at build.
        let Network {
            topology,
            queue,
            rng,
            latency,
            faults,
            trace,
            fault_stats,
            now,
            current_cause,
            ..
        } = net;
        let topology = &*topology;
        let now = *now;
        let cause = *current_cause;
        let neighbors = topology.neighbors(node);
        let dists = topology.neighbor_dists(node);
        for (&v, &dist) in neighbors.iter().zip(dists) {
            // RNG draw order is the determinism contract: latency sample,
            // then the fault hook's coins (channel loss among them) — per
            // neighbour, exactly as before the overhaul.
            let lat = latency.sample(dist, rng).mul_f64(scale);
            let Some((extra, dup)) = consult_faults_split(
                faults,
                topology,
                now,
                node,
                v,
                Channel::Broadcast,
                rng,
                queue,
                trace,
                fault_stats,
                cause,
            ) else {
                continue;
            };
            let at = now + lat + extra;
            queue.schedule_caused(
                at,
                EventKind::Deliver {
                    to: v,
                    from: node,
                    channel: Channel::Broadcast,
                    msg: msg.clone(),
                },
                cause,
            );
            if let Some(after) = dup {
                queue.schedule_caused(
                    at + after,
                    EventKind::Deliver {
                        to: v,
                        from: node,
                        channel: Channel::Broadcast,
                        msg: msg.clone(),
                    },
                    cause,
                );
            }
        }
    }

    /// Unicast `msg` to the radio neighbour `to`.
    ///
    /// # Panics
    /// If `to` is not within radio range — protocol logic must only address
    /// real neighbours; a violation is a bug, not a runtime condition.
    pub fn unicast(&mut self, to: NodeId, msg: M) {
        assert!(
            self.net.topology.are_neighbors(self.node, to),
            "{} attempted unicast to non-neighbour {}",
            self.node,
            to
        );
        self.net.metrics.node_mut(self.node).tx += 1;
        let dist = self.net.topology.dist(self.node, to);
        let lat = self.net.latency.sample(dist, &mut self.net.rng);
        let Some((extra, dup)) = self.net.consult_faults(self.node, to, Channel::Unicast) else {
            return;
        };
        let at = self.net.now + lat + extra;
        self.net.queue.schedule_caused(
            at,
            EventKind::Deliver {
                to,
                from: self.node,
                channel: Channel::Unicast,
                msg: msg.clone(),
            },
            self.net.current_cause,
        );
        if let Some(after) = dup {
            self.net.queue.schedule_caused(
                at + after,
                EventKind::Deliver {
                    to,
                    from: self.node,
                    channel: Channel::Unicast,
                    msg,
                },
                self.net.current_cause,
            );
        }
    }

    /// Send `msg` over an out-of-band tunnel to any node, regardless of
    /// radio range — the wormhole's private channel. The caller chooses the
    /// tunnel latency (a fast wired/long-range link in the paper's threat
    /// model).
    pub fn tunnel(&mut self, to: NodeId, latency: SimDuration, msg: M) {
        self.net.metrics.node_mut(self.node).tunnel_tx += 1;
        self.net.queue.schedule_caused(
            self.net.now + latency,
            EventKind::Deliver {
                to,
                from: self.node,
                channel: Channel::Tunnel,
                msg,
            },
            self.net.current_cause,
        );
    }

    /// Fire `on_timer(key)` at this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        self.net.queue.schedule_caused(
            self.net.now + delay,
            EventKind::Timer {
                node: self.node,
                key,
            },
            self.net.current_cause,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Pos;

    /// Flood-once behaviour: first time a node hears the message it
    /// rebroadcasts; records reception time.
    struct Flood {
        heard_at: Option<SimTime>,
    }

    impl Behavior for Flood {
        type Msg = u32;
        fn on_receive(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, _ch: Channel, msg: u32) {
            if self.heard_at.is_none() {
                self.heard_at = Some(ctx.now());
                ctx.broadcast(msg);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _key: u64) {
            // Timer 0 = originate the flood.
            self.heard_at = Some(ctx.now());
            ctx.broadcast(7);
        }
    }

    fn line_net(n: usize, seed: u64) -> Network<u32> {
        let topo = Topology::new((0..n).map(|i| Pos::new(i as f64, 0.0)).collect(), 1.1);
        Network::new(topo, LatencyModel::deterministic(1e-3), seed)
    }

    #[test]
    fn flood_reaches_all_nodes_in_hop_order() {
        let mut net = line_net(5, 0);
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        let stats = net.run(&mut nodes, SimTime::MAX);
        assert!(!stats.truncated);
        let times: Vec<u64> = nodes
            .iter()
            .map(|f| f.heard_at.expect("all heard").as_micros())
            .collect();
        // Deterministic 1 ms hops on a line.
        assert_eq!(times, vec![0, 1_000, 2_000, 3_000, 4_000]);
    }

    #[test]
    fn metrics_count_flood_traffic() {
        let mut net = line_net(3, 0);
        let mut nodes: Vec<Flood> = (0..3).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
        // Every node broadcasts exactly once (3 tx). Receptions: n0 hears
        // n1's rebroadcast; n1 hears n0 and n2; n2 hears n1 twice? No —
        // n2 hears n1's single broadcast once, and n1 hears n2's.
        assert_eq!(net.metrics().total_tx(), 3);
        // Line of 3: links (0,1), (1,2); each broadcast reaches 1 or 2
        // neighbours: n0 -> {1}; n1 -> {0, 2}; n2 -> {1} = 4 receptions.
        assert_eq!(net.metrics().total_rx(), 4);
    }

    #[test]
    fn deadline_stops_the_run() {
        let mut net = line_net(5, 0);
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::from_micros(1_500));
        // Only nodes 0 and 1 heard before 1.5 ms.
        assert!(nodes[0].heard_at.is_some());
        assert!(nodes[1].heard_at.is_some());
        assert!(nodes[2].heard_at.is_none());
    }

    #[test]
    fn event_cap_truncates_runaway_floods() {
        /// Pathological behaviour: every reception triggers a rebroadcast.
        struct Storm;
        impl Behavior for Storm {
            type Msg = u32;
            fn on_receive(&mut self, ctx: &mut Ctx<'_, u32>, _f: NodeId, _c: Channel, m: u32) {
                ctx.broadcast(m);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _k: u64) {
                ctx.broadcast(1);
            }
        }
        let mut net = line_net(3, 0);
        net.set_max_events(100);
        let mut nodes = vec![Storm, Storm, Storm];
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        let stats = net.run(&mut nodes, SimTime::MAX);
        assert!(stats.truncated);
        assert_eq!(stats.events_processed, 100);
    }

    #[test]
    fn tunnel_ignores_radio_range() {
        struct TunnelOnce {
            got: Option<(NodeId, Channel)>,
        }
        impl Behavior for TunnelOnce {
            type Msg = u32;
            fn on_receive(&mut self, _ctx: &mut Ctx<'_, u32>, from: NodeId, ch: Channel, _m: u32) {
                self.got = Some((from, ch));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _k: u64) {
                // Node 0 tunnels to node 4 (not a neighbour on the line).
                ctx.tunnel(NodeId(4), SimDuration::from_micros(10), 99);
            }
        }
        let mut net = line_net(5, 0);
        let mut nodes: Vec<TunnelOnce> = (0..5).map(|_| TunnelOnce { got: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
        assert_eq!(nodes[4].got, Some((NodeId(0), Channel::Tunnel)));
        assert_eq!(net.metrics().node(NodeId(0)).tunnel_tx, 1);
        assert_eq!(net.metrics().node(NodeId(4)).tunnel_rx, 1);
        assert_eq!(net.metrics().overhead(), 0, "tunnel is out-of-band");
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn unicast_to_stranger_panics() {
        struct Bad;
        impl Behavior for Bad {
            type Msg = u32;
            fn on_receive(&mut self, _c: &mut Ctx<'_, u32>, _f: NodeId, _ch: Channel, _m: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _k: u64) {
                ctx.unicast(NodeId(4), 0);
            }
        }
        let mut net = line_net(5, 0);
        let mut nodes = vec![Bad, Bad, Bad, Bad, Bad];
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
    }

    /// Scripted hook for the engine-level fault tests.
    #[derive(Default)]
    struct ScriptedFaults {
        drop_to: Option<NodeId>,
        duplicate_to: Option<NodeId>,
        down: Vec<NodeId>,
        fault_events: u64,
    }

    impl FaultHook for ScriptedFaults {
        fn on_fault(
            &mut self,
            _topology: &Topology,
            _at: SimTime,
            node: NodeId,
            kind: FaultKind,
        ) -> u64 {
            self.fault_events += 1;
            match kind {
                FaultKind::NodeDown => self.down.push(node),
                FaultKind::NodeUp => self.down.retain(|&n| n != node),
                _ => {}
            }
            0
        }
        fn on_delivery(
            &mut self,
            _topology: &Topology,
            _at: SimTime,
            _from: NodeId,
            to: NodeId,
            _channel: Channel,
            _rng: &mut StdRng,
        ) -> DeliveryVerdict {
            DeliveryVerdict {
                drop: self.drop_to == Some(to),
                duplicate: (self.duplicate_to == Some(to)).then_some(SimDuration::from_micros(5)),
                delay: SimDuration::ZERO,
            }
        }
        fn is_down(&self, node: NodeId) -> bool {
            self.down.contains(&node)
        }
    }

    #[test]
    fn fault_hook_drops_are_traced_and_partition_the_flood() {
        let mut net = line_net(5, 0);
        net.enable_trace(1000);
        net.set_fault_hook(Box::new(ScriptedFaults {
            drop_to: Some(NodeId(2)),
            ..ScriptedFaults::default()
        }));
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
        assert!(nodes[1].heard_at.is_some());
        assert!(nodes[2].heard_at.is_none(), "all deliveries to 2 dropped");
        assert!(nodes[3].heard_at.is_none(), "flood cannot pass the hole");
        let stats = net.fault_stats();
        assert!(stats.dropped > 0);
        let trace = net.trace().unwrap();
        assert_eq!(trace.fault_entries() as u64, stats.dropped);
        assert!(trace.entries().iter().any(|e| matches!(
            e.kind,
            TraceKind::Fault {
                kind: FaultKind::Dropped { from: NodeId(1) }
            }
        ) && e.node == NodeId(2)
            && e.cause.is_some()));
    }

    #[test]
    fn fault_hook_duplicates_double_receptions() {
        let mut net = line_net(3, 0);
        net.set_fault_hook(Box::new(ScriptedFaults {
            duplicate_to: Some(NodeId(1)),
            ..ScriptedFaults::default()
        }));
        let mut nodes: Vec<Flood> = (0..3).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
        // Baseline line-of-3 flood has 4 receptions (see
        // `metrics_count_flood_traffic`); node 1 hears each of its 2
        // deliveries twice.
        assert_eq!(net.metrics().total_rx(), 6);
        assert_eq!(net.fault_stats().duplicated, 2);
    }

    #[test]
    fn scheduled_node_down_silences_deliveries_and_timers() {
        let mut net = line_net(5, 0);
        net.enable_trace(1000);
        net.set_fault_hook(Box::new(ScriptedFaults::default()));
        net.schedule_fault(SimTime::ZERO, NodeId(1), FaultKind::NodeDown);
        // This timer would originate a flood at node 1 — a down node
        // stays silent.
        net.schedule_timer(NodeId(1), SimDuration::from_micros(10), 0);
        net.schedule_timer(NodeId(0), SimDuration::from_micros(20), 0);
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.run(&mut nodes, SimTime::MAX);
        assert!(nodes[0].heard_at.is_some(), "origin still fires");
        assert!(nodes[1].heard_at.is_none(), "down node hears nothing");
        assert!(nodes[2].heard_at.is_none(), "flood dies at the hole");
        let stats = net.fault_stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.timers_suppressed, 1);
        assert!(stats.dropped >= 1);
        assert_eq!(stats.nodes_down_hwm, 1);
        let trace = net.trace().unwrap();
        assert!(trace.entries().iter().any(|e| matches!(
            e.kind,
            TraceKind::Fault {
                kind: FaultKind::NodeDown
            }
        ) && e.node == NodeId(1)));
    }

    #[test]
    fn pass_through_hook_leaves_the_run_byte_identical() {
        fn run(hook: bool) -> (Vec<Option<SimTime>>, u64) {
            let topo = Topology::new(
                (0..6)
                    .map(|i| Pos::new((i % 3) as f64, (i / 3) as f64))
                    .collect(),
                1.5,
            );
            let mut net: Network<u32> = Network::new(topo, LatencyModel::default(), 11);
            if hook {
                net.set_fault_hook(Box::new(ScriptedFaults::default()));
            }
            let mut nodes: Vec<Flood> = (0..6).map(|_| Flood { heard_at: None }).collect();
            net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
            let stats = net.run(&mut nodes, SimTime::MAX);
            (
                nodes.iter().map(|f| f.heard_at).collect(),
                stats.events_processed,
            )
        }
        assert_eq!(run(false), run(true), "inert hook must not perturb RNG");
    }

    #[test]
    fn same_seed_same_run_different_seed_different_jitter() {
        fn arrival(seed: u64) -> Vec<u64> {
            let topo = Topology::new(
                (0..6)
                    .map(|i| Pos::new((i % 3) as f64, (i / 3) as f64))
                    .collect(),
                1.5,
            );
            let mut net: Network<u32> = Network::new(topo, LatencyModel::default(), seed);
            let mut nodes: Vec<Flood> = (0..6).map(|_| Flood { heard_at: None }).collect();
            net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
            net.run(&mut nodes, SimTime::MAX);
            nodes
                .iter()
                .map(|f| f.heard_at.unwrap().as_micros())
                .collect()
        }
        assert_eq!(arrival(42), arrival(42));
        assert_ne!(arrival(1), arrival(2));
    }
}
