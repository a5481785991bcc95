//! ROC sweep (extension experiment): every registered detector against
//! every attacker variant, as TPR/FPR curves on one normalized score
//! axis.
//!
//! The paper evaluates one detector (SAM) against one attacker (the
//! always-on tunnel). The detector registry makes both axes plural:
//! [`DETECTOR_NAMES`] × attacker variants (always-on, selective
//! tunneling, duty-cycled tunnel). Because every
//! [`DetectorVerdict`] score is normalized so
//! `1.0` is the decision boundary, one threshold sweep produces
//! comparable curves for all detectors, and the configured operating
//! point is the same `score > 1` cut everywhere.
//!
//! The headline question is SAM's known blind spot: a
//! `Selective(p = 0.3)` attacker tunnels only 30% of RREQs, diluting
//! exactly the link-frequency statistic SAM watches. The report pins,
//! at SAM's own operating false-positive rate, how much detection the
//! ensemble recovers ([`RocHeadline`]) — the CI smoke asserts the
//! recovery is real.
//!
//! Unlike the serving tier (wire requests carry no positions), the
//! experiment harness knows the ground-truth topology, so the geometric
//! detector sees [`TopologyObservations`] here and votes instead of
//! abstaining.

use crate::report::{Cell, Table};
use crate::runner::{build_plan, run_once_configured, TRAIN_OFFSET};
use crate::scenario::{ScenarioSpec, TopologyKind};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use sam::prelude::*;
use serde::{Deserialize, Serialize};

/// The selective attacker's tunneling probability — the headline
/// operating point (`p ≤ 0.3` is where frequency statistics starve).
pub const SELECTIVE_P: f64 = 0.3;

/// One point of a ROC curve: the rates at one score threshold.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RocPoint {
    /// Score cut: a run is called attacked when `score >= threshold`.
    pub threshold: f64,
    /// Fraction of attacked runs at or above the cut.
    pub tpr: f64,
    /// Fraction of normal runs at or above the cut.
    pub fpr: f64,
}

/// One detector's curve against one attacker variant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RocCurve {
    /// Detector name (a [`DETECTOR_NAMES`] entry).
    pub detector: String,
    /// Attacker variant label (`always`, `selective30`, `duty50`).
    pub variant: String,
    /// Area under the curve (trapezoid over the threshold sweep).
    pub auc: f64,
    /// TPR at the configured operating point (the detector's own
    /// `anomalous` decision, i.e. normalized score > 1).
    pub tpr: f64,
    /// FPR at the configured operating point.
    pub fpr: f64,
    /// Best TPR reachable without exceeding SAM's operating FPR on the
    /// same variant — the like-for-like comparison column.
    pub tpr_at_matched_fpr: f64,
    /// The threshold sweep, lowest threshold (most permissive) last.
    pub points: Vec<RocPoint>,
}

/// The headline comparison on the selective attacker.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RocHeadline {
    /// Variant the headline is measured on.
    pub variant: String,
    /// SAM's operating FPR there — the matched budget.
    pub matched_fpr: f64,
    /// SAM's best TPR within the budget.
    pub sam_tpr: f64,
    /// The ensemble's best TPR within the same budget.
    pub ensemble_tpr: f64,
    /// `ensemble_tpr - sam_tpr`: detection recovered by the extra
    /// signals.
    pub ensemble_advantage: f64,
}

/// The typed sweep report written to `BENCH_roc.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RocReport {
    /// Line discriminator, always `"roc"`.
    pub kind: String,
    /// Base seed of every scenario in the sweep.
    pub base_seed: u64,
    /// Runs per (variant, class) — each variant scores `runs` attacked
    /// and `runs` normal discoveries.
    pub runs: u64,
    /// One curve per detector × variant, detectors in registry order.
    pub curves: Vec<RocCurve>,
    /// The selective-attacker headline.
    pub headline: RocHeadline,
}

impl RocReport {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The curve for one detector × variant.
    pub fn curve(&self, detector: &str, variant: &str) -> Option<&RocCurve> {
        self.curves
            .iter()
            .find(|c| c.detector == detector && c.variant == variant)
    }
}

/// The attacker variants swept: the paper's always-on tunnel, selective
/// (p = [`SELECTIVE_P`]) tunneling, and a duty-cycled tunnel active half
/// of every 4 ms window.
fn variants() -> Vec<(&'static str, WormholeConfig)> {
    vec![
        ("always", WormholeConfig::default()),
        ("selective30", WormholeConfig::selective(SELECTIVE_P)),
        ("duty50", WormholeConfig::duty_cycled(4_000, 2_000)),
    ]
}

/// One scored run: the normalized score plus the detector's own
/// operating-point decision.
#[derive(Clone, Copy)]
struct Scored {
    score: f64,
    anomalous: bool,
}

/// Score every registered detector on one run, with the run's
/// ground-truth topology observations attached.
fn score_run(
    registry: &DetectorRegistry,
    spec: &ScenarioSpec,
    run: u64,
    worm_cfg: WormholeConfig,
    profile: &NormalProfile,
) -> Vec<Scored> {
    let cfg = RouterConfig::new(spec.protocol);
    let (_, routes) = run_once_configured(spec, run, &cfg, worm_cfg);
    let plan = build_plan(spec, run);
    let obs = TopologyObservations::new(
        plan.topology
            .positions()
            .iter()
            .map(|p| (p.x, p.y))
            .collect(),
        plan.topology.range(),
    );
    let input = DetectorInput::new(&routes, profile).with_topology(&obs);
    DETECTOR_NAMES
        .iter()
        .map(|name| {
            let v = registry.get(name).expect("standard name").detect(&input);
            Scored {
                score: v.score,
                anomalous: v.anomalous,
            }
        })
        .collect()
}

/// Sweep the score threshold over everything observed; most restrictive
/// cut first, so TPR/FPR are non-decreasing down the list.
fn sweep(pos: &[Scored], neg: &[Scored]) -> Vec<RocPoint> {
    let mut cuts: Vec<f64> = pos.iter().chain(neg).map(|s| s.score).collect();
    cuts.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    cuts.dedup();
    let rate = |set: &[Scored], t: f64| {
        if set.is_empty() {
            0.0
        } else {
            set.iter().filter(|s| s.score >= t).count() as f64 / set.len() as f64
        }
    };
    let mut points = vec![RocPoint {
        threshold: f64::INFINITY,
        tpr: 0.0,
        fpr: 0.0,
    }];
    for t in cuts {
        points.push(RocPoint {
            threshold: t,
            tpr: rate(pos, t),
            fpr: rate(neg, t),
        });
    }
    points
}

/// Trapezoid AUC over a sweep (the sweep ends at the most permissive
/// observed cut; the tail to (1, 1) closes the integral).
fn auc_of(points: &[RocPoint]) -> f64 {
    let mut auc = 0.0;
    let mut prev = (0.0, 0.0);
    for p in points {
        auc += (p.fpr - prev.0) * (p.tpr + prev.1) / 2.0;
        prev = (p.fpr, p.tpr);
    }
    auc + (1.0 - prev.0) * (1.0 + prev.1) / 2.0
}

/// Best TPR reachable without exceeding `budget` FPR.
fn tpr_within(points: &[RocPoint], budget: f64) -> f64 {
    points
        .iter()
        .filter(|p| p.fpr <= budget + 1e-12)
        .map(|p| p.tpr)
        .fold(0.0, f64::max)
}

/// Run the full sweep: score `runs` attacked discoveries per variant and
/// `runs` normal discoveries (shared across variants — an inactive
/// tunnel's configuration is irrelevant) with every registered detector,
/// then sweep thresholds. The profile is trained once, on clean normal
/// runs, exactly as the serving tier trains it.
pub fn compute(runs: u64) -> RocReport {
    let topology = TopologyKind::cluster1();
    let protocol = ProtocolKind::Mr;
    let normal = ScenarioSpec::normal(topology, protocol);
    let attacked = normal.with_wormholes(1);

    let cfg = RouterConfig::new(protocol);
    let training: Vec<Vec<Route>> = (0..runs.max(8))
        .map(|i| run_once_configured(&normal, TRAIN_OFFSET + i, &cfg, WormholeConfig::default()).1)
        .collect();
    let registry = DetectorRegistry::calibrated();
    let profile = NormalProfile::train(&training, SamConfig::calibrated().pmf_bins);

    // Normal runs once: per run, one score per detector.
    let neg_by_run: Vec<Vec<Scored>> = (0..runs)
        .map(|run| score_run(&registry, &normal, run, WormholeConfig::default(), &profile))
        .collect();
    let neg_of = |d: usize| -> Vec<Scored> { neg_by_run.iter().map(|s| s[d]).collect() };

    let mut curves = Vec::new();
    for (variant, worm_cfg) in variants() {
        let pos_by_run: Vec<Vec<Scored>> = (0..runs)
            .map(|run| score_run(&registry, &attacked, run, worm_cfg, &profile))
            .collect();
        // SAM's operating FPR on this variant is the matched budget for
        // every detector's comparison column.
        let sam_idx = 0; // DETECTOR_NAMES[0] is "sam"
        let matched_fpr = operating_rate(&neg_of(sam_idx));
        for (d, name) in DETECTOR_NAMES.iter().enumerate() {
            let pos: Vec<Scored> = pos_by_run.iter().map(|s| s[d]).collect();
            let neg = neg_of(d);
            let points = sweep(&pos, &neg);
            curves.push(RocCurve {
                detector: name.to_string(),
                variant: variant.to_string(),
                auc: auc_of(&points),
                tpr: operating_rate(&pos),
                fpr: operating_rate(&neg),
                tpr_at_matched_fpr: tpr_within(&points, matched_fpr),
                points,
            });
        }
    }

    let find = |d: &str, v: &str| {
        curves
            .iter()
            .find(|c| c.detector == d && c.variant == v)
            .expect("curve computed")
    };
    let sam = find("sam", "selective30");
    let ensemble = find("ensemble", "selective30");
    let headline = RocHeadline {
        variant: "selective30".to_string(),
        matched_fpr: sam.fpr,
        sam_tpr: sam.tpr_at_matched_fpr,
        ensemble_tpr: ensemble.tpr_at_matched_fpr,
        ensemble_advantage: ensemble.tpr_at_matched_fpr - sam.tpr_at_matched_fpr,
    };

    RocReport {
        kind: "roc".to_string(),
        base_seed: normal.base_seed,
        runs,
        curves,
        headline,
    }
}

/// Fraction of runs the detector's own operating point flags.
fn operating_rate(scored: &[Scored]) -> f64 {
    if scored.is_empty() {
        return 0.0;
    }
    scored.iter().filter(|s| s.anomalous).count() as f64 / scored.len() as f64
}

/// Render the report as the experiment table.
pub fn tables(report: &RocReport) -> Vec<Table> {
    let mut table = Table::new(
        "roc",
        "Detector × attacker variant: operating TPR/FPR, AUC, and TPR at SAM's matched FPR (cluster, MR)",
        vec![
            "detector",
            "variant",
            "TPR%",
            "FPR%",
            "AUC",
            "TPR%@SAM-FPR",
        ],
    );
    for c in &report.curves {
        table.push_row(vec![
            Cell::Str(c.detector.clone()),
            Cell::Str(c.variant.clone()),
            Cell::Num(100.0 * c.tpr),
            Cell::Num(100.0 * c.fpr),
            Cell::Num(c.auc),
            Cell::Num(100.0 * c.tpr_at_matched_fpr),
        ]);
    }
    let h = &report.headline;
    table.note("scores are normalized (1.0 = each detector's decision boundary), so one threshold sweep compares all detectors");
    table.note("geometric sees ground-truth topology observations here; on the wire it abstains");
    table.note(format!(
        "headline ({}): at SAM's matched FPR {:.0}%, SAM TPR {:.0}% vs ensemble TPR {:.0}% (+{:.0} pts)",
        h.variant,
        100.0 * h.matched_fpr,
        100.0 * h.sam_tpr,
        100.0 * h.ensemble_tpr,
        100.0 * h.ensemble_advantage,
    ));
    vec![table]
}

/// Run the experiment end to end (registry entry point).
pub fn run(runs: u64) -> Vec<Table> {
    tables(&compute(runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rates_are_monotone_and_auc_is_sane() {
        let s = |score: f64, anomalous: bool| Scored { score, anomalous };
        let pos: Vec<Scored> = [2.0, 1.6, 0.8].iter().map(|&x| s(x, x > 1.0)).collect();
        let neg: Vec<Scored> = [0.9, 0.4, 0.2].iter().map(|&x| s(x, x > 1.0)).collect();
        let points = sweep(&pos, &neg);
        for w in points.windows(2) {
            assert!(w[1].tpr >= w[0].tpr, "{points:?}");
            assert!(w[1].fpr >= w[0].fpr, "{points:?}");
            assert!(w[1].threshold <= w[0].threshold, "{points:?}");
        }
        let auc = auc_of(&points);
        assert!(auc > 0.8 && auc <= 1.0, "near-separable sample: {auc}");
        // Perfect separation pins AUC = 1 and full TPR at zero FPR.
        let perfect = sweep(&pos, &[s(0.1, false)]);
        assert_eq!(auc_of(&perfect), 1.0);
        assert_eq!(tpr_within(&perfect, 0.0), 1.0);
    }

    #[test]
    fn always_on_cluster_attack_is_fully_detected_by_sam() {
        let report = compute(3);
        assert_eq!(report.curves.len(), DETECTOR_NAMES.len() * variants().len());
        let sam = report.curve("sam", "always").expect("swept");
        // The paper's scenario: the cluster tunnel dominates discovery,
        // so the frequency detector is perfect on the always-on attacker.
        assert_eq!(sam.tpr, 1.0, "{sam:?}");
        assert_eq!(sam.fpr, 0.0, "{sam:?}");
        let geo = report.curve("geometric", "always").expect("swept");
        assert_eq!(
            geo.fpr, 0.0,
            "normal links are physically in range: {geo:?}"
        );
    }

    #[test]
    fn ensemble_beats_sam_on_the_selective_attacker() {
        // The acceptance headline: at SAM's matched FPR, the ensemble
        // strictly recovers detection the frequency statistic loses to
        // selective tunneling.
        let report = compute(6);
        let h = &report.headline;
        assert!(
            h.ensemble_tpr > h.sam_tpr,
            "ensemble must strictly beat SAM at matched FPR: {h:?}"
        );
        assert!(h.ensemble_advantage > 0.0, "{h:?}");
        let table = &tables(&report)[0];
        assert_eq!(table.id, "roc");
        assert_eq!(table.rows.len(), DETECTOR_NAMES.len() * variants().len());
        let json = report.to_json();
        let back: RocReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.curves.len(), report.curves.len());
        assert_eq!(back.headline.variant, "selective30");
    }
}
