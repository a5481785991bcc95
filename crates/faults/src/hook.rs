//! Compiling a [`FaultPlan`] onto a live network.
//!
//! [`apply`] schedules the plan's timed directives (burst edges, churn)
//! as fault-channel events and installs a [`CompiledFaults`] hook that
//! the engine consults on every over-the-air delivery. Apply the plan
//! **before** the first `run`: scheduled directives consume lineage ids,
//! so the installation point is part of what the seed reproduces.

use crate::plan::{ChurnKind, FaultPlan, JitterSpec, LossBurst, PlanError};
use manet_sim::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Debug;

/// The engine-facing state machine compiled from a [`FaultPlan`]:
/// which bursts are active, which nodes are down, and the jitter knobs.
/// All decisions are pure functions of `(state, delivery, rng)`; the RNG
/// is only drawn when a strictly-positive-probability fault covers the
/// delivery (see the crate docs for why that matters).
pub struct CompiledFaults {
    bursts: Vec<LossBurst>,
    active: Vec<bool>,
    down: Vec<bool>,
    jitter: Option<JitterSpec>,
}

impl CompiledFaults {
    /// Compile `plan` for a topology of `nodes` nodes. Nodes whose
    /// earliest churn event is a [`ChurnKind::Join`] start down.
    pub fn compile(plan: &FaultPlan, nodes: usize) -> Self {
        let mut down = vec![false; nodes];
        for (node, slot) in down.iter_mut().enumerate() {
            let first = plan
                .churn
                .iter()
                .filter(|c| c.node as usize == node)
                .min_by_key(|c| c.at_us);
            if let Some(c) = first {
                *slot = c.kind == ChurnKind::Join;
            }
        }
        CompiledFaults {
            bursts: plan.loss_bursts.clone(),
            active: vec![false; plan.loss_bursts.len()],
            down,
            jitter: plan.jitter,
        }
    }

    /// Links with at least one endpoint inside an active, effective
    /// (prob > 0) burst's scope — the `faults.links_down` gauge.
    fn links_in_scope(&self, topology: &Topology) -> u64 {
        let active: Vec<&LossBurst> = self
            .bursts
            .iter()
            .zip(&self.active)
            .filter(|&(b, &a)| a && b.prob > 0.0)
            .map(|(b, _)| b)
            .collect();
        if active.is_empty() {
            return 0;
        }
        let mut n = 0u64;
        for u in topology.nodes() {
            for &v in topology.neighbors(u) {
                if v <= u {
                    continue; // count each undirected link once
                }
                let covered = active.iter().any(|b| match &b.region {
                    None => true,
                    Some(r) => r.contains(topology.position(u)) || r.contains(topology.position(v)),
                });
                if covered {
                    n += 1;
                }
            }
        }
        n
    }
}

impl FaultHook for CompiledFaults {
    fn on_fault(
        &mut self,
        topology: &Topology,
        _at: SimTime,
        node: NodeId,
        kind: FaultKind,
    ) -> u64 {
        match kind {
            FaultKind::BurstStart { idx } => {
                if let Some(a) = self.active.get_mut(idx as usize) {
                    *a = true;
                }
            }
            FaultKind::BurstEnd { idx } => {
                if let Some(a) = self.active.get_mut(idx as usize) {
                    *a = false;
                }
            }
            FaultKind::NodeDown => self.down[node.idx()] = true,
            FaultKind::NodeUp => self.down[node.idx()] = false,
            // Per-delivery consequences are recorded by the engine, never
            // scheduled as directives.
            FaultKind::Dropped { .. } | FaultKind::Duplicated { .. } => {}
        }
        self.links_in_scope(topology)
    }

    fn on_delivery(
        &mut self,
        topology: &Topology,
        _at: SimTime,
        _from: NodeId,
        to: NodeId,
        channel: Channel,
        rng: &mut StdRng,
    ) -> DeliveryVerdict {
        // The attackers' private channel is out of scope; its faults are
        // modelled by the attacker behaviours (tunnel policies).
        if channel == Channel::Tunnel {
            return DeliveryVerdict::PASS;
        }
        let mut verdict = DeliveryVerdict::PASS;
        // Bursts draw in plan order so the RNG consumption is a pure
        // function of the plan — determinism across runs.
        for (b, &active) in self.bursts.iter().zip(&self.active) {
            if !active || b.prob <= 0.0 {
                continue;
            }
            if let Some(r) = &b.region {
                if !r.contains(topology.position(to)) {
                    continue;
                }
            }
            if rng.random_bool(b.prob.min(1.0)) {
                verdict.drop = true;
                return verdict;
            }
        }
        if let Some(j) = &self.jitter {
            if j.dup_prob > 0.0 && rng.random_bool(j.dup_prob.min(1.0)) {
                verdict.duplicate = Some(SimDuration::from_micros(j.dup_delay_us));
            }
            if j.reorder_prob > 0.0 && rng.random_bool(j.reorder_prob.min(1.0)) {
                verdict.delay = SimDuration::from_micros(j.reorder_delay_us);
            }
        }
        verdict
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.down[node.idx()]
    }
}

/// Validate `plan` against `net`'s topology, schedule its directives as
/// fault-channel events, and install the compiled hook. Inert directives
/// (bursts with `prob <= 0`) schedule nothing, preserving the
/// zero-probability ≡ baseline guarantee; a burst with `end_us ==
/// u64::MAX` schedules no end edge.
pub fn apply<M: Clone + Debug>(plan: &FaultPlan, net: &mut Network<M>) -> Result<(), PlanError> {
    plan.validate()?;
    let nodes = net.topology().len();
    for c in &plan.churn {
        if c.node as usize >= nodes {
            return Err(PlanError::NodeOutOfRange {
                node: c.node,
                nodes,
            });
        }
    }
    for (idx, b) in plan.loss_bursts.iter().enumerate() {
        if b.prob <= 0.0 {
            continue;
        }
        let idx = idx as u32;
        net.schedule_fault(
            SimTime::from_micros(b.start_us),
            NodeId(0),
            FaultKind::BurstStart { idx },
        );
        if b.end_us != u64::MAX {
            net.schedule_fault(
                SimTime::from_micros(b.end_us),
                NodeId(0),
                FaultKind::BurstEnd { idx },
            );
        }
    }
    for c in &plan.churn {
        let kind = if c.kind.goes_down() {
            FaultKind::NodeDown
        } else {
            FaultKind::NodeUp
        };
        net.schedule_fault(SimTime::from_micros(c.at_us), NodeId(c.node), kind);
    }
    net.set_fault_hook(Box::new(CompiledFaults::compile(plan, nodes)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChurnKind;

    /// Flood-once behaviour (mirrors the engine's own test behaviour).
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
            self.heard_at = Some(ctx.now());
            ctx.broadcast(7);
        }
    }

    fn line_net(n: usize, seed: u64) -> Network<u32> {
        let topo = Topology::new((0..n).map(|i| Pos::new(i as f64, 0.0)).collect(), 1.1);
        Network::new(topo, LatencyModel::deterministic(1e-3), seed)
    }

    fn flood_run(net: &mut Network<u32>, n: usize) -> Vec<Option<u64>> {
        let mut nodes: Vec<Flood> = (0..n).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::MAX);
        nodes
            .iter()
            .map(|f| f.heard_at.map(|t| t.as_micros()))
            .collect()
    }

    #[test]
    fn total_loss_burst_blocks_the_flood_inside_its_window() {
        // The flood crosses the line at 1 ms per hop; a total-loss burst
        // covering the whole run kills everything after the origin.
        let mut net = line_net(5, 1);
        apply(&FaultPlan::constant_loss(1.0), &mut net).unwrap();
        let heard = flood_run(&mut net, 5);
        assert_eq!(heard[0], Some(0));
        assert!(heard[1..].iter().all(Option::is_none), "{heard:?}");
        assert!(net.fault_stats().dropped > 0);
        assert_eq!(net.fault_stats().injected, 1, "start edge only (no end)");
        // Partial loss thins the flood; zero loss leaves every reception.
        let receptions = |loss: f64| {
            let mut net = line_net(5, 3);
            apply(&FaultPlan::constant_loss(loss), &mut net).unwrap();
            flood_run(&mut net, 5);
            net.metrics().total_rx()
        };
        assert_eq!(receptions(0.0), 8, "lossless line flood: 8 receptions");
        let lossy = receptions(0.9);
        assert!(lossy < 8, "90% loss must drop something, got {lossy}");
    }

    #[test]
    fn burst_window_edges_are_respected() {
        // Burst is total loss but only from 500 µs: the first hop (at
        // 1000 µs decision time... decisions happen at send time, so node
        // 0's 0 µs broadcast passes, node 1's 1000 µs rebroadcast dies.
        let mut net = line_net(5, 1);
        let plan = FaultPlan::none().with_burst(LossBurst::window(500, u64::MAX - 1, 1.0));
        apply(&plan, &mut net).unwrap();
        let heard = flood_run(&mut net, 5);
        assert_eq!(heard[1], Some(1_000), "sent before the burst started");
        assert!(heard[2].is_none(), "sent inside the burst");
    }

    #[test]
    fn regional_burst_only_affects_receivers_inside_the_disc() {
        // Disc around node 2 only: the flood must die exactly there.
        let mut net = line_net(5, 1);
        let plan = FaultPlan::none().with_burst(LossBurst::always(1.0).in_region(2.0, 0.0, 0.4));
        apply(&plan, &mut net).unwrap();
        let heard = flood_run(&mut net, 5);
        assert_eq!(heard[1], Some(1_000));
        assert!(heard[2].is_none(), "receiver inside the disc");
        assert!(heard[3].is_none(), "unreachable past the hole");
        // Both of node 2's links touch the disc.
        assert_eq!(net.fault_stats().links_down_hwm, 2);
    }

    #[test]
    fn churn_schedule_downs_and_recovers_nodes() {
        let mut net = line_net(5, 1);
        let plan = FaultPlan::none()
            .with_churn(0, 1, ChurnKind::Crash)
            .with_churn(10_000, 1, ChurnKind::Recover);
        apply(&plan, &mut net).unwrap();
        // First flood dies at the crashed node 1...
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::ZERO, 0);
        net.run(&mut nodes, SimTime::from_micros(5_000));
        assert!(nodes[1].heard_at.is_none());
        assert!(nodes[2].heard_at.is_none());
        // ...a second flood after recovery crosses the whole line.
        let mut nodes: Vec<Flood> = (0..5).map(|_| Flood { heard_at: None }).collect();
        net.schedule_timer(NodeId(0), SimDuration::from_micros(20_000), 0);
        net.run(&mut nodes, SimTime::MAX);
        assert!(nodes.iter().all(|f| f.heard_at.is_some()));
        assert_eq!(net.fault_stats().nodes_down_hwm, 1);
    }

    #[test]
    fn join_nodes_start_absent() {
        let hook = CompiledFaults::compile(
            &FaultPlan::none()
                .with_churn(5_000, 2, ChurnKind::Join)
                .with_churn(9_000, 2, ChurnKind::Leave)
                .with_churn(1_000, 3, ChurnKind::Crash),
            5,
        );
        assert!(hook.is_down(NodeId(2)), "joins later, absent at t=0");
        assert!(!hook.is_down(NodeId(3)), "crashes later, present at t=0");
    }

    #[test]
    fn inert_plan_is_byte_identical_to_no_plan() {
        let clean = flood_run(&mut line_net(5, 9), 5);
        let mut net = line_net(5, 9);
        let plan = FaultPlan::constant_loss(0.0)
            .with_burst(LossBurst::window(0, 1_000, 0.0).in_region(1.0, 0.0, 5.0))
            .with_jitter(JitterSpec::none());
        assert!(plan.is_inert());
        apply(&plan, &mut net).unwrap();
        assert_eq!(flood_run(&mut net, 5), clean);
        assert_eq!(net.fault_stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_plan_is_reproducible_and_seeds_differ() {
        let plan = FaultPlan::constant_loss(0.3).with_jitter(JitterSpec {
            dup_prob: 0.2,
            dup_delay_us: 40,
            reorder_prob: 0.2,
            reorder_delay_us: 2_000,
        });
        let run = |seed: u64| {
            let mut net = line_net(8, seed);
            apply(&plan, &mut net).unwrap();
            (flood_run(&mut net, 8), net.fault_stats())
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4).0, run(5).0);
    }

    #[test]
    fn apply_rejects_out_of_range_churn_nodes() {
        let mut net = line_net(3, 0);
        let plan = FaultPlan::none().with_churn(0, 99, ChurnKind::Crash);
        assert_eq!(
            apply(&plan, &mut net),
            Err(PlanError::NodeOutOfRange { node: 99, nodes: 3 })
        );
        assert!(!net.has_fault_hook(), "rejected plan must not install");
    }

    #[test]
    fn duplication_jitter_inflates_receptions() {
        let mut net = line_net(3, 2);
        let plan = FaultPlan::none().named("dup").with_jitter(JitterSpec {
            dup_prob: 1.0,
            dup_delay_us: 10,
            reorder_prob: 0.0,
            reorder_delay_us: 0,
        });
        apply(&plan, &mut net).unwrap();
        flood_run(&mut net, 3);
        // Baseline line-of-3 flood: 4 receptions; every one duplicated.
        assert_eq!(net.metrics().total_rx(), 8);
        assert_eq!(net.fault_stats().duplicated, 4);
    }
}
