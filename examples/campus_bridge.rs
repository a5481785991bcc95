//! The paper's motivating scenario, end to end: "people in a library use
//! wireless ad hoc networks to communicate with people in a nearby
//! building" — two dense clusters joined by a sparse bridge. A wormhole
//! pair tunnels route requests between the clusters, captures every
//! route, then blackholes the data. The full three-step procedure
//! (statistical analysis → probe test → confirm/isolate) runs against
//! the live simulation.
//!
//! ```text
//! cargo run --release --example campus_bridge
//! ```

use wormhole_sam::prelude::*;

fn main() {
    let plan = two_cluster(1);
    let src = plan.src_pool[5]; // someone in the library
    let dst = plan.dst_pool[10]; // someone in the building across
    println!(
        "campus network: {} nodes (16 library + 10 bridge + 16 building + 2 covert devices)",
        plan.topology.len()
    );

    // ---- Phase 0: training under normal conditions ----------------------
    let normal_sets: Vec<Vec<Route>> = (0..12)
        .map(|seed| {
            run_attacked_discovery(
                &plan,
                ProtocolKind::Mr,
                &AttackWiring::none(),
                src,
                dst,
                seed,
            )
            .routes
        })
        .collect();
    let profile = NormalProfile::train(&normal_sets, SamConfig::default().pmf_bins);
    println!(
        "trained on {} normal discoveries (mean {:.1} routes each)",
        normal_sets.len(),
        normal_sets.iter().map(Vec::len).sum::<usize>() as f64 / normal_sets.len() as f64
    );

    // ---- Phase 1: the attackers switch on their tunnel -------------------
    // A pure wormhole would already skew the statistics; this pair also
    // blackholes data once routes are captured — the behaviour the paper's
    // step-2 probe test exists to expose.
    let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::blackholing());
    let mut session = attack_session(
        &plan,
        RouterConfig::new(ProtocolKind::Mr),
        &wiring,
        LatencyModel::default(),
        424242,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
    println!(
        "\nroute discovery {}→{}: {} routes collected, {} tx+rx overhead",
        src,
        dst,
        discovery.routes.len(),
        discovery.overhead
    );
    let pair = plan.attacker_pairs[0];
    println!(
        "ground truth: {:.0}% of routes cross the covert tunnel {}-{}",
        100.0 * affected_fraction(&discovery.routes, pair),
        pair.a,
        pair.b
    );

    // ---- Phases 1–3: the three-step procedure ----------------------------
    let procedure = Procedure::default();
    // The live session is the probe transport: SAM's step-2 test packets
    // cross the simulated network.
    match procedure.execute(&discovery.routes, &profile, &mut session) {
        DetectionOutcome::Normal { selected_routes } => {
            println!(
                "no anomaly; feeding {} routes back to the source",
                selected_routes.len()
            );
        }
        DetectionOutcome::SuspiciousUnconfirmed {
            analysis,
            selected_routes,
        } => {
            println!(
                "suspicious (λ = {:.3}) but probes passed; routing around via {} safe routes",
                analysis.lambda,
                selected_routes.len()
            );
        }
        DetectionOutcome::Confirmed { report, analysis } => {
            println!("\nWORMHOLE CONFIRMED");
            println!(
                "  step 1: p_max = {:.3} (z = {:.1}), Δ = {:.3} (z = {:.1}), λ = {:.3}",
                report.p_max, analysis.z_p_max, report.delta, analysis.z_delta, report.lambda
            );
            println!(
                "  step 2: probed {} suspicious paths, ACK ratio {:.0}%",
                report.paths_tested,
                100.0 * report.probe_ack_ratio
            );
            println!(
                "  step 3: attack link {}-{}; requesting isolation of {:?}",
                report.suspect_link.0, report.suspect_link.1, report.isolate
            );
            assert_eq!(
                (report.suspect_link.0, report.suspect_link.1),
                (pair.a, pair.b),
                "localization should name the covert devices"
            );
        }
    }
}
