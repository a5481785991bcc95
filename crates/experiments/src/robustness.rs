//! Robustness sweeps (extension experiment): SAM's step-1 detection and
//! false-positive rates as structured adversity — channel loss, node
//! churn, smarter attackers — is dialed up via
//! [`FaultPlan`]s.
//!
//! The paper evaluates on clean, static topologies; this experiment asks
//! how far those numbers degrade before the statistical signature
//! (`p_max`, `Δ`) stops separating attacked from normal route sets. At
//! `loss = 0`, no churn, and the paper's always-on attacker, the sweep
//! must reproduce the clean-scenario numbers exactly (the zero-fault
//! plan is byte-identical to no plan — see `sam-faults`' determinism
//! contract).
//!
//! Two tables come out:
//!
//! * `robustness` — detection% / FP% vs. packet-loss probability, one
//!   detection series per attacker variant (always-on, selective
//!   tunneling, duty-cycled tunnel), chartable as SVG;
//! * `robustness_churn` — detection% / FP% under membership churn
//!   (crash, crash+recover) at zero loss.
//!
//! The same data serializes as a typed [`RobustnessReport`]
//! (`BENCH_robustness.json`) for CI trend tracking.

use crate::report::{Cell, Table};
use crate::runner::{map_runs, run_once_faulted, train_normal_profile};
use crate::scenario::{ScenarioSpec, TopologyKind};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use sam::prelude::*;
use sam_faults::{ChurnKind, FaultPlan};
use serde::{Deserialize, Serialize};

/// Loss probabilities swept (the CI smoke asserts at least three).
pub const LOSS_LEVELS: &[f64] = &[0.0, 0.05, 0.1, 0.2];

/// One measured operating point of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Attacker variant label (`paper`, `selective50`, `duty50`).
    pub variant: String,
    /// Channel loss probability of the fault plan.
    pub loss: f64,
    /// Churn scenario label (`none`, `crash`, `crash+recover`).
    pub churn: String,
    /// Fraction of attacked runs flagged anomalous by step 1.
    pub detection_rate: f64,
    /// Fraction of normal runs flagged anomalous by step 1.
    pub false_positive_rate: f64,
    /// Mean route-set size over attacked runs.
    pub mean_routes_attacked: f64,
    /// Mean route-set size over normal runs.
    pub mean_routes_normal: f64,
}

/// The typed sweep report written to `BENCH_robustness.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Line discriminator, always `"robustness"`.
    pub kind: String,
    /// Base seed of every scenario in the sweep.
    pub base_seed: u64,
    /// Runs per operating point (each for attacked and normal).
    pub runs: u64,
    /// Every measured point, loss sweep first, churn rows after.
    pub points: Vec<RobustnessPoint>,
}

impl RobustnessReport {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// The attacker variants swept: the paper's always-on tunnel, selective
/// (p = 0.5) tunneling, and a duty-cycled tunnel active half of every
/// 4 ms window (a few radio-hop latencies, so the flood sees both
/// phases).
fn variants() -> Vec<(&'static str, WormholeConfig)> {
    vec![
        ("paper", WormholeConfig::default()),
        ("selective50", WormholeConfig::selective(0.5)),
        ("duty50", WormholeConfig::duty_cycled(4_000, 2_000)),
    ]
}

/// The churn scenarios applied at zero loss with the paper attacker.
/// Node 5 is a cluster-interior relay on the swept topology; crashing
/// it mid-flood (5 ms ≈ a few hops in) removes live routes, recovery at
/// 12 ms restores it for stragglers.
fn churn_plans() -> Vec<(&'static str, FaultPlan)> {
    let crash = FaultPlan::none()
        .named("crash")
        .with_churn(5_000, 5, ChurnKind::Crash);
    let crash_recover =
        crash
            .clone()
            .named("crash+recover")
            .with_churn(12_000, 5, ChurnKind::Recover);
    vec![("crash", crash), ("crash+recover", crash_recover)]
}

/// Run the full sweep: loss levels × attacker variants, then churn
/// scenarios. The profile is trained once, on clean normal runs — the
/// detector never sees faulted data at training time, exactly the
/// deployment story.
pub fn compute(runs: u64) -> RobustnessReport {
    let topology = TopologyKind::cluster1();
    let protocol = ProtocolKind::Mr;
    let normal = ScenarioSpec::normal(topology, protocol);
    let attacked = normal.with_wormholes(1);

    let profile = train_normal_profile(&normal, runs.max(8));
    // Same small-sample threshold rationale as the `detection`
    // experiment: the calibrated 2.5σ clears normal traffic with margin
    // at ten-run training scale.
    let detector = SamDetector::new(SamConfig::calibrated());
    // One series: `runs` discoveries of `spec` under `plan`, scored by
    // step 1. Returns the fraction flagged and the mean route-set size.
    let series = |spec: &ScenarioSpec, worm_cfg: WormholeConfig, plan: &FaultPlan| {
        let cfg = RouterConfig::new(spec.protocol);
        let faults = (!plan.is_inert()).then_some(plan);
        let mut flagged = 0u64;
        let mut routes_total = 0.0;
        for (anomalous, routes) in map_runs(0..runs, |run| {
            let (_, routes) = run_once_faulted(spec, run, &cfg, worm_cfg, faults);
            (detector.analyze(&routes, &profile).anomalous, routes.len())
        }) {
            flagged += u64::from(anomalous);
            routes_total += routes as f64;
        }
        (flagged as f64 / runs as f64, routes_total / runs as f64)
    };
    // A point from its attacked and normal series' (rate, mean routes).
    let point = |variant: &str, loss, churn: &str, (det, ra), (fp, rn)| RobustnessPoint {
        variant: variant.to_string(),
        loss,
        churn: churn.to_string(),
        detection_rate: det,
        false_positive_rate: fp,
        mean_routes_attacked: ra,
        mean_routes_normal: rn,
    };

    // No wormhole is active in a normal run, so the attacker variant
    // cannot change it: one normal series per loss level serves every
    // variant.
    let normal_by_loss: Vec<(f64, f64)> = LOSS_LEVELS
        .iter()
        .map(|&loss| {
            series(
                &normal,
                WormholeConfig::default(),
                &FaultPlan::constant_loss(loss),
            )
        })
        .collect();
    let mut points = Vec::new();
    for (variant, worm_cfg) in variants() {
        for (&loss, &normal_series) in LOSS_LEVELS.iter().zip(&normal_by_loss) {
            let attacked_series = series(&attacked, worm_cfg, &FaultPlan::constant_loss(loss));
            points.push(point(variant, loss, "none", attacked_series, normal_series));
        }
    }
    for (label, plan) in churn_plans() {
        let worm_cfg = WormholeConfig::default();
        let attacked_series = series(&attacked, worm_cfg, &plan);
        let normal_series = series(&normal, worm_cfg, &plan);
        points.push(point("paper", 0.0, label, attacked_series, normal_series));
    }
    RobustnessReport {
        kind: "robustness".to_string(),
        base_seed: normal.base_seed,
        runs,
        points,
    }
}

/// Render the report as the two experiment tables.
pub fn tables(report: &RobustnessReport) -> Vec<Table> {
    let mut loss_table = Table::new(
        "robustness",
        "Step-1 detection / false-positive rate vs. channel loss, per attacker variant (cluster, MR)",
        vec![
            "loss%",
            "paper detect%",
            "selective50 detect%",
            "duty50 detect%",
            "paper FP%",
        ],
    );
    for &loss in LOSS_LEVELS {
        let at = |variant: &str| {
            report
                .points
                .iter()
                .find(|p| p.variant == variant && p.loss == loss && p.churn == "none")
        };
        let detect = |variant: &str| at(variant).map_or(0.0, |p| 100.0 * p.detection_rate);
        loss_table.push_row(vec![
            Cell::Str(format!("{:.0}", 100.0 * loss)),
            Cell::Num(detect("paper")),
            Cell::Num(detect("selective50")),
            Cell::Num(detect("duty50")),
            Cell::Num(at("paper").map_or(0.0, |p| 100.0 * p.false_positive_rate)),
        ]);
    }
    loss_table
        .note("profile trained on clean normal runs only; loss/churn applied at evaluation time");
    loss_table.note("the loss=0 paper row is the clean scenario: a zero-fault plan is byte-identical to no plan");

    let mut churn_table = Table::new(
        "robustness_churn",
        "Step-1 detection / false-positive rate under membership churn (zero loss, paper attacker)",
        vec![
            "churn",
            "detect%",
            "FP%",
            "routes (attacked)",
            "routes (normal)",
        ],
    );
    for p in report
        .points
        .iter()
        .filter(|p| p.variant == "paper" && p.loss == 0.0)
    {
        churn_table.push_row(vec![
            Cell::Str(p.churn.clone()),
            Cell::Num(100.0 * p.detection_rate),
            Cell::Num(100.0 * p.false_positive_rate),
            Cell::Num(p.mean_routes_attacked),
            Cell::Num(p.mean_routes_normal),
        ]);
    }
    churn_table.note("node 5 crashes 5 ms into discovery; the recover row restores it at 12 ms");

    vec![loss_table, churn_table]
}

/// Run the experiment end to end (registry entry point).
pub fn run(runs: u64) -> Vec<Table> {
    tables(&compute(runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_point_matches_clean_scenario_and_losses_are_covered() {
        let report = compute(3);
        // Loss sweep: every variant measured at every level, plus churn.
        assert_eq!(
            report.points.len(),
            variants().len() * LOSS_LEVELS.len() + churn_plans().len()
        );
        let clean = report
            .points
            .iter()
            .find(|p| p.variant == "paper" && p.loss == 0.0 && p.churn == "none")
            .unwrap();
        // The cluster wormhole is the paper's strongest signature; the
        // clean operating point must detect every attacked run and pass
        // every normal one.
        assert_eq!(clean.detection_rate, 1.0, "{clean:?}");
        assert_eq!(clean.false_positive_rate, 0.0, "{clean:?}");
        assert!(clean.mean_routes_attacked > 0.0);
    }

    #[test]
    fn tables_chart_loss_on_x_with_variant_series() {
        let report = RobustnessReport {
            kind: "robustness".to_string(),
            base_seed: 1,
            runs: 1,
            points: variants()
                .iter()
                .flat_map(|(v, _)| {
                    LOSS_LEVELS.iter().map(|&loss| RobustnessPoint {
                        variant: v.to_string(),
                        loss,
                        churn: "none".to_string(),
                        detection_rate: 1.0 - loss,
                        false_positive_rate: loss / 2.0,
                        mean_routes_attacked: 4.0,
                        mean_routes_normal: 5.0,
                    })
                })
                .collect(),
        };
        let ts = tables(&report);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].id, "robustness");
        assert_eq!(ts[0].rows.len(), LOSS_LEVELS.len());
        assert!(
            crate::svg::chart(&ts[0]).is_some(),
            "loss table must be chartable"
        );
        let json = report.to_json();
        let back: RobustnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), report.points.len());
    }
}
