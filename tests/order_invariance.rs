//! No verdict depends on the order a link table iterates in.
//!
//! A route set's link table places each link by its hash and by the
//! order links arrive in, so the same routes in another order iterate in
//! another order. Every detector of the standard registry must give the
//! same verdict, bit for bit, on the forward, reversed and rotated route
//! order of one set: each reader of the table either combines its counts
//! exactly or breaks ties by link.

use wormhole_sam::experiments::runner::{build_plan, run_once_with_routes};
use wormhole_sam::experiments::serving::{catalogue, train_profile};
use wormhole_sam::prelude::*;

/// A verdict with every float as its bits. Evidence floats print in
/// their shortest round-trip form, so two evidence values print alike
/// only if their floats are equal.
fn exact(v: &DetectorVerdict) -> (bool, [u64; 4], Option<Link>, String) {
    (
        v.anomalous,
        [v.score, v.lambda, v.p_max, v.delta].map(f64::to_bits),
        v.suspect_link,
        format!("{:?}", v.evidence),
    )
}

/// The table's iteration order.
fn layout(routes: &[Route]) -> Vec<Link> {
    LinkStats::from_routes(routes)
        .counts()
        .map(|(l, _)| l)
        .collect()
}

#[test]
fn verdicts_do_not_depend_on_route_order() {
    let registry = DetectorRegistry::calibrated();
    let mut sets = 0;
    let mut relaid = 0;
    for deployment in catalogue() {
        let profile = train_profile(&deployment);
        for spec in [&deployment.normal, &deployment.attacked] {
            for run in 0..4 {
                let (_, forward) = run_once_with_routes(spec, run);
                let plan = build_plan(spec, run);
                let positions = plan.topology.positions().iter().map(|p| (p.x, p.y));
                let obs = TopologyObservations::new(positions.collect(), plan.topology.range());
                let mut reversed = forward.clone();
                reversed.reverse();
                let mut rotated = forward.clone();
                rotated.rotate_left(forward.len() / 3);

                let orders = [&forward, &reversed, &rotated];
                let layouts: Vec<Vec<Link>> = orders.iter().map(|r| layout(r)).collect();
                sets += 1;
                if layouts[1] != layouts[0] || layouts[2] != layouts[0] {
                    relaid += 1;
                }
                for name in DETECTOR_NAMES {
                    let detector = registry.get(name).expect("standard name");
                    let verdicts: Vec<_> = orders
                        .iter()
                        .map(|routes| {
                            let input = DetectorInput::new(routes, &profile).with_topology(&obs);
                            exact(&detector.detect(&input))
                        })
                        .collect();
                    assert_eq!(
                        verdicts[1], verdicts[0],
                        "{name}, reversed: {spec:?} run {run}"
                    );
                    assert_eq!(
                        verdicts[2], verdicts[0],
                        "{name}, rotated: {spec:?} run {run}"
                    );
                }
            }
        }
    }
    // Small sets seldom collide in a sparse table, so not every set
    // changes layout; enough must for the test to mean something.
    assert!(
        relaid * 3 >= sets,
        "only {relaid} of {sets} sets changed layout in another order"
    );
}
