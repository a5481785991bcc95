//! Serialization round-trips for the types that cross process boundaries:
//! wire messages (logged/traced), network plans (scenario files), trained
//! profiles (persisted between sessions), and experiment tables
//! (`results/*.json`).

use wormhole_sam::prelude::*;
use wormhole_sam::routing::packet::RerrPkt;

fn route(ids: &[u32]) -> Route {
    Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
}

#[test]
fn routing_messages_round_trip() {
    let msgs = vec![
        RoutingMsg::Rreq(Rreq {
            id: RreqId {
                src: NodeId(1),
                seq: 4,
            },
            dst: NodeId(9),
            path: vec![NodeId(1), NodeId(2)].into(),
        }),
        RoutingMsg::Rrep(Rrep {
            id: RreqId {
                src: NodeId(1),
                seq: 4,
            },
            route: route(&[1, 2, 9]),
        }),
        RoutingMsg::Data(DataPkt {
            route: route(&[1, 2, 9]),
            seq: 7,
        }),
        RoutingMsg::Ack(AckPkt {
            route: route(&[9, 2, 1]),
            seq: 7,
        }),
        RoutingMsg::Rerr(RerrPkt {
            route: route(&[1, 2, 9]),
            broken_from: NodeId(2),
            broken_to: NodeId(9),
        }),
    ];
    for msg in msgs {
        let json = serde_json::to_string(&msg).unwrap();
        let back: RoutingMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
    }
}

#[test]
fn routes_decode_only_through_route_new() {
    let back: Route = serde_json::from_str("[1,2,9]").unwrap();
    assert_eq!(back, route(&[1, 2, 9]));
    for (refused, why) in [
        ("[1,2,1]", RouteError::Loop(NodeId(1))),
        ("[1]", RouteError::TooShort),
        ("[]", RouteError::TooShort),
    ] {
        let err = serde_json::from_str::<Route>(refused).expect_err(refused);
        assert!(
            err.to_string().contains(&why.to_string()),
            "{refused}: {err}"
        );
    }
}

#[test]
fn network_plan_round_trips_with_connectivity() {
    let plan = two_cluster(1);
    let json = serde_json::to_string(&plan).unwrap();
    let back: NetworkPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back.topology.positions(), plan.topology.positions());
    assert_eq!(back.src_pool, plan.src_pool);
    assert_eq!(back.attacker_pairs, plan.attacker_pairs);
    // Neighbour lists survive (serialized, not recomputed).
    for n in plan.topology.nodes() {
        assert_eq!(back.topology.neighbors(n), plan.topology.neighbors(n));
    }
    back.validate().unwrap();
}

#[test]
fn trained_profile_round_trips_and_still_detects() {
    let sets = vec![
        vec![
            route(&[0, 1, 2, 9]),
            route(&[0, 3, 4, 9]),
            route(&[0, 5, 6, 9]),
        ],
        vec![
            route(&[0, 1, 4, 9]),
            route(&[0, 3, 2, 9]),
            route(&[0, 5, 4, 9]),
        ],
        vec![
            route(&[0, 1, 6, 9]),
            route(&[0, 3, 6, 9]),
            route(&[0, 5, 2, 9]),
        ],
    ];
    let profile = NormalProfile::train(&sets, 20);
    let json = serde_json::to_string(&profile).unwrap();
    let back: NormalProfile = serde_json::from_str(&json).unwrap();
    assert_eq!(back.p_max, profile.p_max);
    assert_eq!(back.delta, profile.delta);
    assert_eq!(back.hops, profile.hops);

    // A detector using the deserialized profile behaves identically.
    let attacked = vec![
        route(&[0, 7, 8, 9]),
        route(&[0, 1, 7, 8, 9]),
        route(&[0, 2, 7, 8, 9]),
        route(&[0, 3, 7, 8, 9]),
        route(&[0, 5, 7, 8, 9]),
        route(&[0, 6, 7, 8, 9]),
    ];
    let d = SamDetector::default();
    let a = d.analyze(&attacked, &profile);
    let b = d.analyze(&attacked, &back);
    assert_eq!(a.lambda, b.lambda);
    assert_eq!(a.anomalous, b.anomalous);
    assert_eq!(a.suspect_link, b.suspect_link);
}

#[test]
fn analysis_and_reports_serialize() {
    let sets = vec![vec![route(&[0, 1, 2, 9]), route(&[0, 3, 4, 9])]];
    let profile = NormalProfile::train(&sets, 20);
    let d = SamDetector::default();
    let analysis = d.analyze(&[route(&[0, 1, 2, 9])], &profile);
    let json = serde_json::to_string(&analysis).unwrap();
    assert!(json.contains("lambda"));

    let report = AttackReport {
        suspect_link: (NodeId(7), NodeId(8)),
        lambda: 0.02,
        p_max: 0.3,
        delta: 0.6,
        probe_ack_ratio: 0.0,
        paths_tested: 3,
        isolate: vec![NodeId(7), NodeId(8)],
    };
    let back: AttackReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(back.suspect_link, report.suspect_link);
    assert_eq!(back.isolate, report.isolate);
}

#[test]
fn run_records_and_tables_serialize() {
    let spec = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
    let rec = run_once(&spec, 0);
    let json = serde_json::to_string(&rec).unwrap();
    let back: RunRecord = serde_json::from_str(&json).unwrap();
    // JSON float text loses the last ULP; integers are exact.
    assert!((back.p_max - rec.p_max).abs() < 1e-12);
    assert_eq!(back.overhead, rec.overhead);
    assert_eq!(back.n_routes, rec.n_routes);

    let tables = run_experiment("fig9", 1).unwrap();
    let json = tables[0].to_json();
    let back: Table = serde_json::from_str(&json).unwrap();
    // Floats lose the last ULP through JSON text, so compare structure
    // and the stable (string/int) cells, then spot-check floats loosely.
    assert_eq!(back.id, tables[0].id);
    assert_eq!(back.columns, tables[0].columns);
    assert_eq!(back.rows.len(), tables[0].rows.len());
    for (ra, rb) in back.rows.iter().zip(&tables[0].rows) {
        assert_eq!(ra.len(), rb.len());
        for (ca, cb) in ra.iter().zip(rb) {
            match (ca, cb) {
                (Cell::Num(a), Cell::Num(b)) => assert!((a - b).abs() < 1e-9),
                _ => assert_eq!(ca, cb),
            }
        }
    }
}
