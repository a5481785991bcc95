//! Golden-scenario snapshot tests: the cluster and 6×6-grid wormhole
//! scenarios under one fixed fault plan must keep producing exactly the
//! same flight summary, detector verdict and verdict explanation.
//!
//! Any engine, routing, attack, or fault-injection change that shifts a
//! single traced event or statistic fails here first, with a readable
//! field-level diff. When a change is *intentional*, regenerate the
//! snapshots and review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_scenarios
//! git diff tests/golden/
//! ```

use sam_experiments::flight::{record_flight, FlightOptions};
use sam_experiments::prelude::*;
use sam_faults::{ChurnKind, FaultPlan, JitterSpec, LossBurst};
use sam_flight::FlightSummary;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The fixed fault plan both scenarios run under: a 15% loss burst
/// through the heart of the discovery, one mid-flood crash, and light
/// duplication/reordering jitter — every fault class at once.
fn golden_plan() -> FaultPlan {
    FaultPlan::none()
        .named("golden")
        .with_burst(LossBurst::window(2_000, 9_000, 0.15))
        .with_churn(6_000, 3, ChurnKind::Crash)
        .with_jitter(JitterSpec {
            dup_prob: 0.05,
            dup_delay_us: 250,
            reorder_prob: 0.05,
            reorder_delay_us: 400,
        })
}

/// Everything a snapshot pins: the full flight summary, the
/// detector-facing statistics of the recorded run, and the explained
/// routes with their leave-one-out contributions and hop provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct GoldenSnapshot {
    summary: FlightSummary,
    p_max: f64,
    delta: f64,
    suspect_link: Option<(u32, u32)>,
    anomalous: bool,
    tunnel_traversals: u64,
    routes: Vec<GoldenRoute>,
}

/// One suspect-crossing route of the explanation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct GoldenRoute {
    nodes: Vec<u32>,
    p_max_contribution: f64,
    delta_contribution: f64,
    tunnel_hops: u64,
    lineage_depth: u64,
}

fn snapshot_of(topology: TopologyKind) -> GoldenSnapshot {
    let spec = ScenarioSpec::attacked(topology, manet_routing::ProtocolKind::Mr);
    let opts = FlightOptions {
        faults: Some(golden_plan()),
        ..FlightOptions::default()
    };
    let (recording, explanation) = record_flight(&spec, 0, &opts);
    GoldenSnapshot {
        summary: FlightSummary::from_recording(&recording),
        p_max: explanation.p_max,
        delta: explanation.delta,
        suspect_link: explanation.suspect_link,
        anomalous: explanation.anomalous,
        tunnel_traversals: explanation.tunnel_traversals,
        routes: explanation
            .routes
            .iter()
            .map(|r| GoldenRoute {
                nodes: r.nodes.clone(),
                p_max_contribution: r.p_max_contribution,
                delta_contribution: r.delta_contribution,
                tunnel_hops: r.tunnel_hops,
                lineage_depth: r.lineage_depth,
            })
            .collect(),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare against (or with `UPDATE_GOLDEN=1`, rewrite) the stored
/// snapshot. `p_max` and `Δ` are held to 1e-9 — tight enough to pin
/// behaviour, loose enough to survive JSON round-tripping. The explained
/// routes are compared exactly: the JSON writer emits the shortest text
/// that parses back to the same `f64`, so a contribution that moves by
/// one ulp fails here.
fn check_golden(name: &str, actual: &GoldenSnapshot) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(actual).unwrap();
        std::fs::write(&path, json).unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: GoldenSnapshot =
        serde_json::from_str(&stored).unwrap_or_else(|e| panic!("corrupt {}: {e}", path.display()));
    assert_eq!(
        expected.summary, actual.summary,
        "flight summary drifted for {name}; if intended, rerun with UPDATE_GOLDEN=1"
    );
    assert!(
        (expected.p_max - actual.p_max).abs() < 1e-9,
        "{name}: p_max {} != {}",
        actual.p_max,
        expected.p_max
    );
    assert!(
        (expected.delta - actual.delta).abs() < 1e-9,
        "{name}: delta {} != {}",
        actual.delta,
        expected.delta
    );
    assert_eq!(expected.suspect_link, actual.suspect_link, "{name}");
    assert_eq!(expected.anomalous, actual.anomalous, "{name}");
    assert_eq!(
        expected.tunnel_traversals, actual.tunnel_traversals,
        "{name}: tunnel traversals"
    );
    assert_eq!(
        expected.routes, actual.routes,
        "{name}: explained routes drifted; if intended, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_cluster1_under_fixed_fault_plan() {
    let snap = snapshot_of(TopologyKind::cluster1());
    // Sanity before comparing: the faulted run still detects the
    // cluster wormhole and records fault-channel evidence.
    assert!(snap.anomalous, "cluster wormhole must stay detectable");
    assert!(snap.suspect_link.is_some());
    assert!(snap.summary.faults > 0, "fault plan left no trace");
    check_golden("cluster1_faulted", &snap);
}

#[test]
fn golden_grid6x6_under_fixed_fault_plan() {
    let snap = snapshot_of(TopologyKind::uniform6x6());
    assert!(snap.summary.faults > 0, "fault plan left no trace");
    check_golden("grid6x6_faulted", &snap);
}

#[test]
fn golden_random_disc_under_fixed_fault_plan() {
    // The Fig. 9 random-disc placement: seeded, so the generated
    // topology — and therefore the whole snapshot — is reproducible.
    let snap = snapshot_of(TopologyKind::Random);
    assert!(snap.summary.faults > 0, "fault plan left no trace");
    check_golden("random_disc_faulted", &snap);
}
