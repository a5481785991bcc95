//! Ablations over the design choices the paper leaves implicit, plus the
//! boundary cases its discussion section raises.
//!
//! * [`collection_window`] — the destination's wait time is "a design
//!   parameter": how does it trade route count against detectability?
//! * [`tunnel_length`] — the paper's claim that "the length of the
//!   tunneled link … has to be long enough": sweep grid width.
//! * [`wormhole_mode`] — participation (paper) vs hidden replay.
//! * [`protocol_rule`] — how much raw material each duplicate-forwarding
//!   rule (DSR/MR/SMR/AOMDV) gives the statistics.
//! * [`hidden_detection`] — the hidden-replay evasion finding and the
//!   route-length extension that closes it.
//! * [`mobility`] — static-profile robustness under positional drift
//!   (the paper excludes mobility; this quantifies the assumption).
//! * [`rushing`] — a protocol-conformant rushing attacker: MR resists,
//!   DSR doesn't, and SAM (by design) does not fire on either.
//! * [`threshold_sweep`] — ROC-style justification of the default
//!   z-threshold.
//! * [`channel_loss`] — SAM under a lossy radio.

use crate::report::{Cell, Table};
use crate::runner::{mean_of, run_once_configured, RunRecord, TRAIN_OFFSET};
use crate::scenario::{ScenarioSpec, TopologyKind};
use manet_attacks::WormholeConfig;
use manet_routing::{ProtocolKind, RouterConfig};
use manet_sim::SimDuration;

fn configured_series(
    spec: &ScenarioSpec,
    runs: u64,
    router: &RouterConfig,
    worm: WormholeConfig,
) -> Vec<RunRecord> {
    (0..runs)
        .map(|i| run_once_configured(spec, i, router, worm).0)
        .collect()
}

/// Sweep the destination's collection window.
pub fn collection_window(runs: u64) -> Table {
    let normal = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let attacked = normal.with_wormholes(1);
    let mut table = Table::new(
        "ablation_window",
        "Collection window vs routes collected and p_max separation (1-tier cluster, MR)",
        vec![
            "window (ms)",
            "routes normal",
            "routes attack",
            "p_max normal",
            "p_max attack",
            "separation",
        ],
    );
    for ms in [2u64, 5, 10, 25, 200] {
        let mut cfg = RouterConfig::new(ProtocolKind::Mr);
        cfg.collection_window = SimDuration::from_millis(ms);
        let n = configured_series(&normal, runs, &cfg, WormholeConfig::default());
        let a = configured_series(&attacked, runs, &cfg, WormholeConfig::default());
        table.push_row(vec![
            Cell::Int(ms as i64),
            Cell::Num(mean_of(&n, |r| r.n_routes as f64)),
            Cell::Num(mean_of(&a, |r| r.n_routes as f64)),
            Cell::Num(mean_of(&n, |r| r.p_max)),
            Cell::Num(mean_of(&a, |r| r.p_max)),
            Cell::Num(mean_of(&a, |r| r.p_max) - mean_of(&n, |r| r.p_max)),
        ]);
    }
    table.note("short windows starve SAM of routes; the 200 ms default collects the full flood at ms-scale hop latencies");
    table
}

/// Sweep the attack-link length via grid width.
pub fn tunnel_length(runs: u64) -> Table {
    let mut table = Table::new(
        "ablation_tunnel_len",
        "Attack-link length vs capture and detectability (uniform grids, MR)",
        vec!["grid cols", "tunnel hops", "%affected", "p_max separation"],
    );
    for cols in [4usize, 6, 8, 10, 12] {
        let topology = TopologyKind::Uniform {
            cols,
            rows: 6,
            tier: 1,
        };
        let plan = topology.build(0);
        let span = plan.tunnel_span_hops(0).unwrap_or(0);
        let normal = ScenarioSpec::normal(topology, ProtocolKind::Mr);
        let attacked = normal.with_wormholes(1);
        let cfg = RouterConfig::new(ProtocolKind::Mr);
        let n = configured_series(&normal, runs, &cfg, WormholeConfig::default());
        let a = configured_series(&attacked, runs, &cfg, WormholeConfig::default());
        table.push_row(vec![
            Cell::Int(cols as i64),
            Cell::Int(span as i64),
            Cell::Num(100.0 * mean_of(&a, |r| r.affected)),
            Cell::Num(mean_of(&a, |r| r.p_max) - mean_of(&n, |r| r.p_max)),
        ]);
    }
    table.note("paper: the tunneled link must be long enough for the attack (and hence its signature) to be strong");
    table
}

/// Participation vs hidden wormhole mode.
pub fn wormhole_mode(runs: u64) -> Table {
    let normal = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let attacked = normal.with_wormholes(1);
    let cfg = RouterConfig::new(ProtocolKind::Mr);
    let mut table = Table::new(
        "ablation_worm_mode",
        "Wormhole presentation mode vs SAM signature (1-tier cluster, MR)",
        vec!["mode", "routes", "p_max", "Δ", "%affected"],
    );
    let n = configured_series(&normal, runs, &cfg, WormholeConfig::default());
    table.push_row(vec![
        Cell::from("none"),
        Cell::Num(mean_of(&n, |r| r.n_routes as f64)),
        Cell::Num(mean_of(&n, |r| r.p_max)),
        Cell::Num(mean_of(&n, |r| r.delta)),
        Cell::Num(0.0),
    ]);
    for (label, worm) in [
        ("participation", WormholeConfig::default()),
        ("hidden", WormholeConfig::hidden()),
    ] {
        let a = configured_series(&attacked, runs, &cfg, worm);
        table.push_row(vec![
            Cell::from(label),
            Cell::Num(mean_of(&a, |r| r.n_routes as f64)),
            Cell::Num(mean_of(&a, |r| r.p_max)),
            Cell::Num(mean_of(&a, |r| r.delta)),
            Cell::Num(100.0 * mean_of(&a, |r| r.affected)),
        ]);
    }
    table.note("hidden mode keeps the attackers off the routes (%affected counts the literal attacker link, so it reads 0)");
    table.note("hidden mode dilutes the link signature across attacker-neighbour pairs — see ablation_hidden_detection for the detectability consequence");
    table
}

/// Route-material comparison across duplicate-forwarding rules.
pub fn protocol_rule(runs: u64) -> Table {
    let mut table = Table::new(
        "ablation_protocol_rule",
        "Duplicate-forwarding rule vs route material and SAM separation (1-tier cluster)",
        vec![
            "protocol",
            "routes attack",
            "overhead attack",
            "p_max separation",
        ],
    );
    for protocol in [
        ProtocolKind::Dsr,
        ProtocolKind::Aomdv,
        ProtocolKind::Smr,
        ProtocolKind::Mr,
    ] {
        let normal = ScenarioSpec::normal(TopologyKind::cluster1(), protocol);
        let attacked = normal.with_wormholes(1);
        let cfg = RouterConfig::new(protocol);
        let n = configured_series(&normal, runs, &cfg, WormholeConfig::default());
        let a = configured_series(&attacked, runs, &cfg, WormholeConfig::default());
        table.push_row(vec![
            Cell::from(protocol.label()),
            Cell::Num(mean_of(&a, |r| r.n_routes as f64)),
            Cell::Num(mean_of(&a, |r| r.overhead as f64)),
            Cell::Num(mean_of(&a, |r| r.p_max) - mean_of(&n, |r| r.p_max)),
        ]);
    }
    table.note("paper §V: SMR and AOMDV provide more routes for statistical analysis than single-path protocols");
    table
}

/// Hidden-replay wormhole detectability: the paper's link features vs the
/// route-length extension.
///
/// A verbatim-replay (hidden) wormhole achieves total capture, but each
/// captured route crosses a *different* fake link (one per pair of
/// attacker neighbours), so `p_max`/`Δ` barely move — a genuine evasion
/// of the paper's feature set. The mean route length, however, collapses;
/// the `use_hop_feature` extension restores detection.
pub fn hidden_detection(runs: u64) -> Table {
    use crate::runner::run_once_with_routes;
    use manet_routing::Route;
    use sam::prelude::*;

    let normal = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let attacked = normal.with_wormholes(1);
    let training: Vec<Vec<Route>> = (0..runs.max(6))
        .map(|i| run_once_with_routes(&normal, TRAIN_OFFSET + i).1)
        .collect();
    let paper = SamDetector::default();
    let extended = SamDetector::new(SamConfig {
        use_hop_feature: true,
        ..SamConfig::default()
    });
    let profile = NormalProfile::train(&training, paper.config().pmf_bins);

    let mut table = Table::new(
        "ablation_hidden_detection",
        "Hidden-replay wormhole: paper features vs route-length extension (1-tier cluster, MR)",
        vec![
            "detector",
            "detect% (hidden)",
            "detect% (participation)",
            "alarm% (normal)",
        ],
    );
    let cfg = RouterConfig::new(ProtocolKind::Mr);
    let rate = |detector: &SamDetector, spec: &ScenarioSpec, worm: WormholeConfig| -> f64 {
        let mut hits = 0;
        for i in 0..runs {
            let (_, routes) = run_once_configured(spec, i, &cfg, worm);
            if detector.analyze(&routes, &profile).anomalous {
                hits += 1;
            }
        }
        100.0 * hits as f64 / runs as f64
    };
    for (label, det) in [
        ("paper (p_max, Δ)", &paper),
        ("with hop extension", &extended),
    ] {
        table.push_row(vec![
            Cell::from(label),
            Cell::Num(rate(det, &attacked, WormholeConfig::hidden())),
            Cell::Num(rate(det, &attacked, WormholeConfig::default())),
            Cell::Num(rate(det, &normal, WormholeConfig::default())),
        ]);
    }
    table.note("finding: verbatim-replay wormholes dilute the link signature across neighbour pairs and evade the paper's features; route-length statistics close the gap");
    table
}

/// Slow mobility: how much positional drift does a trained profile
/// tolerate before detection and false alarms degrade?
///
/// The paper excludes mobility ("node mobility is not considered in this
/// study"); this ablation quantifies the static-profile assumption. Each
/// evaluation discovery runs on a *perturbed* copy of the topology
/// (every node jittered ±radius per axis), while the profile was trained
/// on the nominal placement.
pub fn mobility(runs: u64) -> Table {
    use crate::runner::run_once_with_routes;
    use crate::scenario::{derive_seed, draw_endpoints};
    use manet_attacks::prelude::*;
    use manet_routing::prelude::*;
    use sam::prelude::*;

    let base = TopologyKind::cluster1().build(0);
    let detector = SamDetector::default();
    let spec_n = ScenarioSpec::normal(TopologyKind::cluster1(), ProtocolKind::Mr);
    let training: Vec<Vec<Route>> = (0..runs.max(8))
        .map(|i| run_once_with_routes(&spec_n, TRAIN_OFFSET + i).1)
        .collect();
    let profile = NormalProfile::train(&training, detector.config().pmf_bins);

    let mut table = Table::new(
        "ablation_mobility",
        "Profile robustness under positional drift (1-tier cluster, MR)",
        vec![
            "drift radius",
            "detect% (attack)",
            "alarm% (normal)",
            "p_max normal",
            "p_max attack",
        ],
    );
    for radius in [0.0f64, 0.05, 0.1, 0.2, 0.3] {
        let mut detect = 0u64;
        let mut alarm = 0u64;
        let mut p_n = 0.0;
        let mut p_a = 0.0;
        for i in 0..runs {
            let seed = derive_seed(0xD21F7, i);
            let plan = base
                .perturbed(radius, seed)
                .expect("cluster stays connected at these radii");
            let (src, dst) = draw_endpoints(&plan, seed);
            for (attacked, hit, p_acc) in
                [(false, &mut alarm, &mut p_n), (true, &mut detect, &mut p_a)]
            {
                let wiring = if attacked {
                    AttackWiring::all_pairs(&plan, WormholeConfig::default())
                } else {
                    AttackWiring::none()
                };
                let out = run_attacked_discovery(&plan, ProtocolKind::Mr, &wiring, src, dst, seed);
                let a = detector.analyze(&out.routes, &profile);
                *p_acc += a.features.p_max;
                if a.anomalous {
                    *hit += 1;
                }
            }
        }
        table.push_row(vec![
            Cell::Num(radius),
            Cell::Num(100.0 * detect as f64 / runs as f64),
            Cell::Num(100.0 * alarm as f64 / runs as f64),
            Cell::Num(p_n / runs as f64),
            Cell::Num(p_a / runs as f64),
        ]);
    }
    table.note("profile trained on the nominal (undrifted) topology; eq. (8)-(9) adaptation would track slow drift online");
    table
}

/// Rushing attack vs SAM's statistics.
///
/// The paper closes with "if a malicious node behaves normally during
/// routing, SAM can not detect it" and offers SAM for "any routing
/// attacks as long as certain statistics of the obtained routes change
/// significantly". A rushing attacker is the boundary case: it follows
/// the protocol but transmits without backoff, capturing the
/// first-arrival races. This ablation measures how much of the route set
/// it captures and whether `p_max` moves.
pub fn rushing(runs: u64) -> Table {
    use crate::scenario::{derive_seed, draw_endpoints};
    use manet_attacks::prelude::*;
    use manet_sim::prelude::*;
    use sam::prelude::*;

    let plan = TopologyKind::uniform6x6().build(0);
    let rusher = grid_node(6, 2, 2); // grid centre
    let mut table = Table::new(
        "ablation_rushing",
        "Rushing attacker (no backoff) vs route capture and SAM statistics (6×6 uniform)",
        vec![
            "latency scale",
            "MR %via rusher",
            "MR p_max",
            "DSR %via rusher",
            "DSR p_max",
        ],
    );
    for scale in [1.0f64, 0.5, 0.2, 0.05] {
        let mut row = vec![Cell::Num(scale)];
        for protocol in [ProtocolKind::Mr, ProtocolKind::Dsr] {
            let mut share = 0.0;
            let mut p = 0.0;
            for i in 0..runs {
                let seed = derive_seed(0x0815, i);
                let (src, dst) = draw_endpoints(&plan, seed.wrapping_add(i));
                let wiring = if (scale - 1.0).abs() < f64::EPSILON {
                    AttackWiring::none()
                } else {
                    AttackWiring::none().with_rusher(rusher, scale)
                };
                let out = run_attacked_discovery(&plan, protocol, &wiring, src, dst, seed);
                let through = out.routes.iter().filter(|r| r.contains(rusher)).count();
                share += through as f64 / out.routes.len().max(1) as f64;
                p += LinkStats::from_routes(&out.routes).p_max();
            }
            row.push(Cell::Num(100.0 * share / runs as f64));
            row.push(Cell::Num(p / runs as f64));
        }
        table.push_row(row);
    }
    table.note("MR's duplicate forwarding blunts rushing (the honest copies still propagate); DSR's first-copy-only rule is the vulnerable one — cf. Hu/Perrig/Johnson's rushing paper, which the SAM paper cites");
    table.note("p_max barely moves either way: a protocol-conformant rusher evades SAM, the paper's own caveat ('if a malicious node behaves normally during routing, SAM can not detect it')");
    table
}

/// Detection-threshold sweep: the ROC-style tradeoff behind the default
/// z-threshold of 3.
pub fn threshold_sweep(runs: u64) -> Table {
    use crate::runner::run_once_with_routes;
    use manet_routing::Route;
    use sam::prelude::*;

    let normal = ScenarioSpec::normal(TopologyKind::uniform10x6(), ProtocolKind::Mr);
    let attacked = normal.with_wormholes(1);
    let training: Vec<Vec<Route>> = (0..runs.max(8))
        .map(|i| run_once_with_routes(&normal, TRAIN_OFFSET + i).1)
        .collect();
    let profile = NormalProfile::train(&training, SamConfig::default().pmf_bins);

    // Evaluate once, score under every threshold.
    let z_of = |routes: &[Route]| -> f64 {
        let stats = LinkStats::from_routes(routes);
        profile
            .p_max
            .z(stats.p_max())
            .max(profile.delta.z(stats.delta()))
    };
    let normal_z: Vec<f64> = (0..runs)
        .map(|i| z_of(&run_once_with_routes(&normal, i).1))
        .collect();
    let attacked_z: Vec<f64> = (0..runs)
        .map(|i| z_of(&run_once_with_routes(&attacked, i).1))
        .collect();

    let mut table = Table::new(
        "ablation_threshold",
        "Detection threshold sweep: true/false positive tradeoff (6×10 uniform, MR, feature z only)",
        vec!["z threshold", "detect%", "false-alarm%"],
    );
    for thr in [1.0f64, 2.0, 3.0, 4.0, 6.0, 10.0] {
        let tp = attacked_z.iter().filter(|&&z| z > thr).count();
        let fp = normal_z.iter().filter(|&&z| z > thr).count();
        table.push_row(vec![
            Cell::Num(thr),
            Cell::Num(100.0 * tp as f64 / runs as f64),
            Cell::Num(100.0 * fp as f64 / runs as f64),
        ]);
    }
    table.note("the default threshold (3) sits on the flat part of the curve: full detection, no alarms; the PMF outlier rule adds an independent guard");
    table
}

/// Channel loss: does SAM survive a lossy radio?
///
/// Real ad hoc links drop frames. Loss thins the collected route set and
/// adds variance to the statistics; this ablation sweeps the per-delivery
/// loss probability and measures capture and separation. (Training and
/// evaluation both run at the same loss rate — the profile is trained in
/// the deployment's own conditions, as the paper prescribes.)
pub fn channel_loss(runs: u64) -> Table {
    use crate::scenario::{derive_seed, draw_endpoints};
    use manet_attacks::prelude::*;
    use manet_sim::prelude::*;
    use sam::prelude::*;

    let plan = TopologyKind::cluster1().build(0);
    let mut table = Table::new(
        "ablation_loss",
        "Per-delivery channel loss vs route material and separation (1-tier cluster, MR)",
        vec![
            "loss prob",
            "routes attack",
            "%affected",
            "p_max normal",
            "p_max attack",
        ],
    );
    for loss in [0.0f64, 0.05, 0.1, 0.2, 0.3] {
        let mut routes_a = 0.0;
        let mut affected = 0.0;
        let mut p_n = 0.0;
        let mut p_a = 0.0;
        for i in 0..runs {
            let seed = derive_seed(0x1055, i);
            let (src, dst) = draw_endpoints(&plan, seed);
            for attacked in [false, true] {
                let wiring = if attacked {
                    AttackWiring::all_pairs(&plan, WormholeConfig::default())
                } else {
                    AttackWiring::none()
                };
                let mut session = attack_session(
                    &plan,
                    manet_routing::RouterConfig::new(ProtocolKind::Mr),
                    &wiring,
                    LatencyModel::default(),
                    seed,
                );
                sam_faults::apply(
                    &sam_faults::FaultPlan::constant_loss(loss),
                    session.network_mut(),
                )
                .expect("valid loss probability");
                let out = session.discover(src, dst, manet_routing::DEFAULT_MAX_WAIT);
                let stats = LinkStats::from_routes(&out.routes);
                if attacked {
                    routes_a += out.routes.len() as f64;
                    affected += affected_fraction(&out.routes, plan.attacker_pairs[0]);
                    p_a += stats.p_max();
                } else {
                    p_n += stats.p_max();
                }
            }
        }
        table.push_row(vec![
            Cell::Num(loss),
            Cell::Num(routes_a / runs as f64),
            Cell::Num(100.0 * affected / runs as f64),
            Cell::Num(p_n / runs as f64),
            Cell::Num(p_a / runs as f64),
        ]);
    }
    table.note("loss thins the flood but the tunnel (assumed reliable) keeps winning: capture and separation degrade gracefully");
    table
}

/// All nine ablations.
pub fn run_all(runs: u64) -> Vec<Table> {
    vec![
        collection_window(runs),
        tunnel_length(runs),
        wormhole_mode(runs),
        protocol_rule(runs),
        hidden_detection(runs),
        mobility(runs),
        rushing(runs),
        threshold_sweep(runs),
        channel_loss(runs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(c: &Cell) -> f64 {
        match c {
            Cell::Num(v) => *v,
            Cell::Int(v) => *v as f64,
            Cell::Str(_) => panic!("expected number"),
        }
    }

    #[test]
    fn longer_windows_collect_at_least_as_many_routes() {
        let t = collection_window(2);
        let first = num(&t.rows[0][2]);
        let last = num(&t.rows[t.rows.len() - 1][2]);
        assert!(last >= first, "routes: {first} → {last}");
    }

    #[test]
    fn longer_tunnels_capture_more() {
        let t = tunnel_length(2);
        let first = num(&t.rows[0][2]);
        let last = num(&t.rows[t.rows.len() - 1][2]);
        assert!(
            last > first,
            "%affected should grow with tunnel length: {first} → {last}"
        );
    }

    #[test]
    fn hidden_mode_still_spikes_p_max() {
        let t = wormhole_mode(2);
        let p_none = num(&t.rows[0][2]);
        let p_hidden = num(&t.rows[2][2]);
        assert!(
            p_hidden > p_none,
            "hidden-mode p_max {p_hidden} vs normal {p_none}"
        );
    }

    #[test]
    fn multipath_rules_collect_more_routes_than_dsr() {
        let t = protocol_rule(2);
        let dsr_routes = num(&t.rows[0][1]);
        let mr_routes = num(&t.rows[3][1]);
        assert!(mr_routes > dsr_routes);
    }
}
