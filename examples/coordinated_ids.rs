//! Global coordinated detection (paper §III.B): several destination
//! nodes each run SAM locally over their own discoveries; their attack
//! reports flow to a coordination point that fuses them into per-node
//! verdicts and an isolation list.
//!
//! Each destination sees a different traffic slice, so individual
//! suspect links can differ (tied capture-prefix links, endpoint
//! adjacency); the fusion rule — confidence mass accumulating on the
//! *nodes* that reported links touch — makes the wormhole endpoints rise
//! above every coincidental suspect.
//!
//! ```text
//! cargo run --release --example coordinated_ids
//! ```

use wormhole_sam::prelude::*;

fn main() {
    let plan = two_cluster(1);
    let pair = plan.attacker_pairs[0];
    println!(
        "campus network, wormhole ground truth: {}-{}\n",
        pair.a, pair.b
    );

    let mut coordinator = GlobalCoordinator::new();
    let procedure = Procedure::default();

    // Five (source, destination) pairs run their own discoveries; each
    // destination trains its own profile and reports locally.
    for (i, (s_idx, d_idx)) in [(0, 0), (3, 7), (6, 10), (9, 13), (12, 15)]
        .iter()
        .enumerate()
    {
        let src = plan.src_pool[*s_idx];
        let dst = plan.dst_pool[*d_idx];

        // Local training.
        let sets: Vec<Vec<Route>> = (0..10)
            .map(|seed| {
                run_attacked_discovery(
                    &plan,
                    ProtocolKind::Mr,
                    &AttackWiring::none(),
                    src,
                    dst,
                    seed * 31 + i as u64,
                )
                .routes
            })
            .collect();
        let profile = NormalProfile::train(&sets, SamConfig::default().pmf_bins);

        // Attack phase: blackholing wormhole.
        let wiring = AttackWiring::all_pairs(&plan, WormholeConfig::blackholing());
        let mut session = attack_session(
            &plan,
            RouterConfig::new(ProtocolKind::Mr),
            &wiring,
            LatencyModel::default(),
            1000 + i as u64,
        );
        let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
        match procedure.execute(&discovery.routes, &profile, &mut session) {
            DetectionOutcome::Confirmed { report, .. } => {
                println!(
                    "agent at {dst}: confirmed link {}-{} (λ = {:.3}, probes {:.0}%)",
                    report.suspect_link.0,
                    report.suspect_link.1,
                    report.lambda,
                    100.0 * report.probe_ack_ratio
                );
                coordinator.ingest(&report);
            }
            other => println!("agent at {dst}: no confirmation ({other:?})"),
        }
    }

    println!("\nfused verdicts ({} reports):", coordinator.report_count());
    for v in coordinator.node_verdicts().iter().take(4) {
        println!(
            "  {}: confidence {:.2} over {} report(s)",
            v.node, v.confidence, v.reports
        );
    }
    let isolate = coordinator.isolation_list(1.5);
    println!("isolation list (threshold 1.5): {isolate:?}");
    assert!(
        isolate.contains(&pair.a) && isolate.contains(&pair.b),
        "coordination must converge on the wormhole endpoints"
    );
    for n in &isolate {
        assert!(
            *n == pair.a || *n == pair.b,
            "no innocent node may reach the isolation threshold, got {n}"
        );
    }
    println!("\nthe coordinator isolated exactly the wormhole pair.");
}
