//! Cross-crate integration tests: the full pipeline from topology
//! generation through discovery, attack, statistics, detection, probe
//! testing, and response — the way a deployment would use the library.

use wormhole_sam::prelude::*;

fn train_profile(plan: &NetworkPlan, src: NodeId, dst: NodeId, n: u64) -> NormalProfile {
    let sets: Vec<Vec<Route>> = (0..n)
        .map(|seed| {
            run_attacked_discovery(
                plan,
                ProtocolKind::Mr,
                &AttackWiring::none(),
                src,
                dst,
                seed,
            )
            .routes
        })
        .collect();
    NormalProfile::train(&sets, SamConfig::default().pmf_bins)
}

#[test]
fn full_pipeline_confirms_blackholing_wormhole_on_cluster() {
    let plan = two_cluster(1);
    let src = plan.src_pool[3];
    let dst = plan.dst_pool[12];
    let profile = train_profile(&plan, src, dst, 10);

    let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::blackholing());
    let mut session = attack_session(
        &plan,
        RouterConfig::new(ProtocolKind::Mr),
        &wiring,
        LatencyModel::default(),
        77,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
    assert!(!discovery.routes.is_empty());

    let procedure = Procedure::default();
    let outcome = procedure.execute(&discovery.routes, &profile, &mut session);
    let DetectionOutcome::Confirmed { report, .. } = outcome else {
        panic!("expected confirmation, got {outcome:?}");
    };
    let pair = plan.attacker_pairs[0];
    assert_eq!(report.suspect_link, (pair.a, pair.b));
    assert!(
        report.probe_ack_ratio < 0.5,
        "blackhole must eat the probes"
    );
    assert_eq!(report.isolate, vec![pair.a, pair.b]);
}

#[test]
fn full_pipeline_stays_quiet_without_attack() {
    let plan = two_cluster(1);
    let src = plan.src_pool[3];
    let dst = plan.dst_pool[12];
    let profile = train_profile(&plan, src, dst, 10);

    let wiring = AttackWiring::none();
    let mut session = attack_session(
        &plan,
        RouterConfig::new(ProtocolKind::Mr),
        &wiring,
        LatencyModel::default(),
        78,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
    let procedure = Procedure::default();
    let outcome = procedure.execute(&discovery.routes, &profile, &mut session);
    match outcome {
        DetectionOutcome::Normal { selected_routes } => {
            assert!(!selected_routes.is_empty());
            assert!(selected_routes.len() <= 3);
            // Selected routes are real paths of the topology.
            for r in &selected_routes {
                for w in r.nodes().windows(2) {
                    assert!(plan.topology.are_neighbors(w[0], w[1]));
                }
            }
        }
        // A borderline suspicion is tolerable as long as probes clear it.
        DetectionOutcome::SuspiciousUnconfirmed { .. } => {}
        DetectionOutcome::Confirmed { report, .. } => {
            panic!("false confirmation on a clean network: {report:?}")
        }
    }
}

#[test]
fn pure_relay_wormhole_probes_succeed_but_statistics_confirm() {
    // A wormhole that relays data faithfully: the probes come back (the
    // tunnel forwards them), so only the statistics can convict.
    let plan = two_cluster(1);
    let src = plan.src_pool[0];
    let dst = plan.dst_pool[0];
    let profile = train_profile(&plan, src, dst, 10);

    let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::default());
    let mut session = attack_session(
        &plan,
        RouterConfig::new(ProtocolKind::Mr),
        &wiring,
        LatencyModel::default(),
        79,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);

    // Direct probe over a captured route: the relaying wormhole delivers.
    let captured = discovery
        .routes
        .iter()
        .find(|r| r.contains_link(tunnel_link(plan.attacker_pairs[0])))
        .expect("cluster capture")
        .clone();
    let probe = session.probe(
        &captured,
        5,
        SimDuration::from_millis(10),
        SimDuration::from_millis(500),
    );
    assert_eq!(probe.acked, 5, "pure relay must deliver data");

    let procedure = Procedure::default();
    let outcome = procedure.execute(&discovery.routes, &profile, &mut session);
    assert!(
        outcome.is_confirmed(),
        "statistical evidence alone should confirm: {outcome:?}"
    );
}

#[test]
fn grayhole_wormhole_partially_acks() {
    let plan = two_cluster(1);
    let src = plan.src_pool[1];
    let dst = plan.dst_pool[1];
    let cfg = WormholeConfig {
        drop: DropPolicy::Grayhole(0.5),
        ..WormholeConfig::default()
    };
    let wiring = AttackWiring::all_pairs(&plan, cfg);
    let mut session = attack_session(
        &plan,
        RouterConfig::new(ProtocolKind::Mr),
        &wiring,
        LatencyModel::default(),
        80,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
    let captured = discovery
        .routes
        .iter()
        .find(|r| r.contains_link(tunnel_link(plan.attacker_pairs[0])))
        .expect("cluster capture")
        .clone();
    let probe = session.probe(
        &captured,
        40,
        SimDuration::from_millis(5),
        SimDuration::from_millis(500),
    );
    assert!(probe.acked > 0, "grayhole lets some through");
    assert!(
        probe.acked < probe.sent,
        "grayhole must drop some ({}/{})",
        probe.acked,
        probe.sent
    );
}

#[test]
fn ids_agent_over_live_discoveries() {
    // The agent consumes live route sets from the simulator rather than
    // synthetic fixtures.
    let plan = uniform_grid(10, 6, 1);
    let src = plan.src_pool[2];
    let dst = plan.dst_pool[2];
    let mut agent = IdsAgent::new(
        dst,
        AgentConfig {
            training_target: 8,
            ..AgentConfig::default()
        },
    );
    for seed in 0..8 {
        let out = run_attacked_discovery(
            &plan,
            ProtocolKind::Mr,
            &AttackWiring::none(),
            src,
            dst,
            seed,
        );
        agent.observe_training(out.routes);
    }
    assert_eq!(agent.phase(), AgentPhase::Operational);

    let mut transport = all_ack_transport();
    // Normal observation.
    let normal = run_attacked_discovery(
        &plan,
        ProtocolKind::Mr,
        &AttackWiring::none(),
        src,
        dst,
        100,
    );
    assert!(matches!(
        agent.observe(&normal.routes, &mut transport),
        AgentAction::Proceed { .. }
    ));
    // Attacked observation.
    let attacked = run_wormholed_discovery(
        &plan,
        ProtocolKind::Mr,
        WormholeConfig::default(),
        src,
        dst,
        100,
    );
    match agent.observe(&attacked.routes, &mut transport) {
        AgentAction::Respond { report, .. } => {
            let pair = plan.attacker_pairs[0];
            assert_eq!(report.suspect_link, (pair.a, pair.b));
        }
        other => panic!("expected Respond, got {other:?}"),
    }
}

#[test]
fn hidden_wormhole_evades_link_features_but_not_hop_extension() {
    // Research finding documented in DESIGN.md/EXPERIMENTS.md: a
    // verbatim-replay wormhole captures everything, yet every captured
    // route crosses a *different* fake link (one per attacker-neighbour
    // pair), so the paper's link-frequency features barely move. The mean
    // route length collapses instead; the hop extension restores
    // detection.
    let plan = two_cluster(1);
    let src = plan.src_pool[2];
    let dst = plan.dst_pool[2];
    let profile = train_profile(&plan, src, dst, 10);
    let paper = SamDetector::default();
    let extended = SamDetector::new(SamConfig {
        use_hop_feature: true,
        ..SamConfig::default()
    });

    let mut extended_flags = 0;
    for seed in 80..88 {
        let out = run_wormholed_discovery(
            &plan,
            ProtocolKind::Mr,
            WormholeConfig::hidden(),
            src,
            dst,
            seed,
        );
        // Capture is total: every route crosses a replayed (fake) hop.
        let fake = out
            .routes
            .iter()
            .filter(|r| {
                r.nodes()
                    .windows(2)
                    .any(|w| !plan.topology.are_neighbors(w[0], w[1]))
            })
            .count();
        assert_eq!(fake, out.routes.len(), "seed {seed}: capture not total");

        let a = extended.analyze(&out.routes, &profile);
        if a.anomalous {
            extended_flags += 1;
            assert!(
                a.z_hops_short > paper.config().z_threshold,
                "seed {seed}: expected the hop feature to drive detection: {a:?}"
            );
        }
    }
    assert!(
        extended_flags >= 6,
        "hop extension flagged only {extended_flags}/8 hidden-mode runs"
    );
}
