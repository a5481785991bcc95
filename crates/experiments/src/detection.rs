//! End-to-end SAM detection quality (extension experiment).
//!
//! The paper argues from the raw feature plots; this experiment closes the
//! loop around the **full three-step procedure**: train a
//! [`NormalProfile`] on normal-condition discoveries,
//! then for each held-out discovery run step 1 (statistical analysis),
//! step 2 (probe the suspicious paths *through the live simulation*, where
//! a blackholing wormhole drops them), and step 3 (confirm + localize).
//! Step-1 false alarms are expected occasionally at ten-run training
//! scale; the probe test clears them, so what matters downstream is the
//! *confirmed* false-positive rate.

use crate::report::{Cell, Table};
use crate::runner::{build_plan, run_once_with_routes, TRAIN_OFFSET};
use crate::scenario::{derive_seed, draw_endpoints, ScenarioSpec, TopologyKind};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use manet_sim::prelude::*;
use sam::prelude::*;
use serde::{Deserialize, Serialize};

/// Quality metrics for one configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DetectionQuality {
    /// Fraction of attacked runs flagged anomalous by step 1.
    pub step1_detection_rate: f64,
    /// Fraction of normal runs flagged anomalous by step 1 (raw alarms).
    pub step1_false_alarm_rate: f64,
    /// Fraction of attacked runs *confirmed* by the full procedure.
    pub confirmed_rate: f64,
    /// Fraction of normal runs confirmed (end-to-end false positives).
    pub confirmed_false_positive_rate: f64,
    /// Mean λ over attacked runs (should be ≈ 0).
    pub mean_lambda_attacked: f64,
    /// Mean λ over normal runs (should be ≈ 1).
    pub mean_lambda_normal: f64,
    /// Fraction of confirmed attacked runs whose reported suspects include
    /// a real attacker node.
    pub localization_accuracy: f64,
}

/// Run the full procedure over one discovery of `spec`, returning the
/// outcome and the plan (for ground truth).
fn procedure_run(
    spec: &ScenarioSpec,
    run: u64,
    profile: &NormalProfile,
    detector: &SamDetector,
) -> (DetectionOutcome, NetworkPlan) {
    let run_seed = derive_seed(spec.base_seed, run);
    let plan = build_plan(spec, run);
    let (src, dst) = draw_endpoints(&plan, run_seed);
    let active: Vec<usize> = (0..spec.active_wormholes).collect();
    let wiring = if active.is_empty() {
        AttackWiring::none()
    } else {
        // The wormhole blackholes data once routes are captured — the
        // configuration the probe test exists to expose.
        AttackWiring::from_plan(&plan, &active, WormholeConfig::blackholing())
    };
    let mut session = attack_session(
        &plan,
        RouterConfig::new(spec.protocol),
        &wiring,
        LatencyModel::default(),
        run_seed,
    );
    let discovery = session.discover(src, dst, DEFAULT_MAX_WAIT);
    let procedure = Procedure::new(detector.clone(), ProcedureConfig::default());
    let outcome = procedure.execute(&discovery.routes, profile, &mut session);
    (outcome, plan)
}

fn lambda_of(outcome: &DetectionOutcome) -> f64 {
    match outcome {
        DetectionOutcome::Normal { .. } => 1.0,
        DetectionOutcome::SuspiciousUnconfirmed { analysis, .. }
        | DetectionOutcome::Confirmed { analysis, .. } => analysis.lambda,
    }
}

/// Evaluate one topology/protocol configuration.
pub fn evaluate(
    topology: TopologyKind,
    protocol: ProtocolKind,
    train_runs: u64,
    eval_runs: u64,
) -> DetectionQuality {
    let normal = ScenarioSpec::normal(topology, protocol);
    let attacked = normal.with_wormholes(1);

    // Train on normal discoveries with disjoint run indices.
    let training: Vec<Vec<Route>> = (0..train_runs)
        .map(|i| run_once_with_routes(&normal, TRAIN_OFFSET + i).1)
        .collect();
    // At this training scale (≈10 sets, the paper's series length) the
    // profile σ is a noisy small-sample estimate, so the library's 3σ
    // default under-fires; the calibrated 2.5σ keeps a wide margin above
    // normal traffic (z ≲ 1 here) while catching attacked sets
    // (z ≈ 2.8+).
    let detector = SamDetector::new(SamConfig::calibrated());
    let profile = NormalProfile::train(&training, detector.config().pmf_bins);

    let mut step1_fp = 0usize;
    let mut confirmed_fp = 0usize;
    let mut lambda_normal = 0.0;
    for i in 0..eval_runs {
        let (outcome, _) = procedure_run(&normal, i, &profile, &detector);
        lambda_normal += lambda_of(&outcome);
        match outcome {
            DetectionOutcome::Normal { .. } => {}
            DetectionOutcome::SuspiciousUnconfirmed { .. } => step1_fp += 1,
            DetectionOutcome::Confirmed { .. } => {
                step1_fp += 1;
                confirmed_fp += 1;
            }
        }
    }

    let mut step1_hits = 0usize;
    let mut confirmed = 0usize;
    let mut localized = 0usize;
    let mut lambda_attacked = 0.0;
    for i in 0..eval_runs {
        let (outcome, plan) = procedure_run(&attacked, i, &profile, &detector);
        lambda_attacked += lambda_of(&outcome);
        match outcome {
            DetectionOutcome::Normal { .. } => {}
            DetectionOutcome::SuspiciousUnconfirmed { .. } => step1_hits += 1,
            DetectionOutcome::Confirmed { report, .. } => {
                step1_hits += 1;
                confirmed += 1;
                let attackers = plan.attacker_nodes();
                if report.isolate.iter().any(|n| attackers.contains(n)) {
                    localized += 1;
                }
            }
        }
    }

    DetectionQuality {
        step1_detection_rate: step1_hits as f64 / eval_runs as f64,
        step1_false_alarm_rate: step1_fp as f64 / eval_runs as f64,
        confirmed_rate: confirmed as f64 / eval_runs as f64,
        confirmed_false_positive_rate: confirmed_fp as f64 / eval_runs as f64,
        mean_lambda_attacked: lambda_attacked / eval_runs as f64,
        mean_lambda_normal: lambda_normal / eval_runs as f64,
        localization_accuracy: if confirmed == 0 {
            0.0
        } else {
            localized as f64 / confirmed as f64
        },
    }
}

/// Run the experiment over the paper's main configurations.
pub fn run(runs: u64) -> Table {
    let configs = [
        (TopologyKind::cluster1(), ProtocolKind::Mr),
        (TopologyKind::cluster2(), ProtocolKind::Mr),
        (TopologyKind::uniform10x6(), ProtocolKind::Mr),
        (TopologyKind::Random, ProtocolKind::Mr),
        (TopologyKind::cluster1(), ProtocolKind::Dsr),
    ];
    let mut table = Table::new(
        "detection",
        "End-to-end three-step procedure quality (trained profile, held-out runs, blackholing wormhole)",
        vec![
            "configuration",
            "step1 detect%",
            "step1 alarm% (normal)",
            "confirm%",
            "confirm-FP%",
            "mean λ attack",
            "mean λ normal",
            "localize%",
        ],
    );
    for (topology, protocol) in configs {
        let q = evaluate(topology, protocol, runs, runs);
        table.push_row(vec![
            Cell::Str(format!("{} {}", topology.label(), protocol.label())),
            Cell::Num(100.0 * q.step1_detection_rate),
            Cell::Num(100.0 * q.step1_false_alarm_rate),
            Cell::Num(100.0 * q.confirmed_rate),
            Cell::Num(100.0 * q.confirmed_false_positive_rate),
            Cell::Num(q.mean_lambda_attacked),
            Cell::Num(q.mean_lambda_normal),
            Cell::Num(100.0 * q.localization_accuracy),
        ]);
    }
    table.note("extension beyond the paper's figures: the full detector pipeline (analysis → probe → confirm), not just raw features");
    table.note("step-1 alarms on normal runs are cleared by the step-2 probe test; confirm-FP% is the end-to-end false-positive rate");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_mr_detects_and_confirms_reliably() {
        let q = evaluate(TopologyKind::cluster1(), ProtocolKind::Mr, 8, 4);
        assert!(
            q.step1_detection_rate >= 0.75,
            "step-1 detection rate {}",
            q.step1_detection_rate
        );
        assert!(
            q.confirmed_rate >= 0.75,
            "confirmed rate {}",
            q.confirmed_rate
        );
        assert!(
            q.confirmed_false_positive_rate <= 0.25,
            "confirmed FP rate {}",
            q.confirmed_false_positive_rate
        );
        assert!(q.mean_lambda_attacked < q.mean_lambda_normal);
    }

    #[test]
    fn localization_names_a_real_attacker_in_cluster() {
        let q = evaluate(TopologyKind::cluster1(), ProtocolKind::Mr, 8, 4);
        assert!(
            q.localization_accuracy >= 0.75,
            "localization {}",
            q.localization_accuracy
        );
    }
}
