//! Detector plurality: the [`Detector`] trait, the alternative detectors,
//! ensemble voting, and the name registry.
//!
//! The paper's SAM detector is one statistical signal — relative
//! link-frequency (`p_max`, eq. 3) and the frequency gap (`Δ`, eq. 7) —
//! and it has a known blind spot: a `Selective` attacker that tunnels
//! only a fraction of RREQs dilutes exactly the statistic SAM watches.
//! Related work contributes two *independent* signals that survive
//! selectivity:
//!
//! * **z-score + neighbor tables** (cf. Zeng, arXiv 2505.09405): a
//!   wormhole endpoint accumulates implausibly many distinct neighbors
//!   across the captured routes, and the tunneled link's occurrence
//!   count is a within-set outlier — both scored as z-scores against the
//!   set's own distribution ([`ZScoreNeighborDetector`]);
//! * **geometric distance-vs-range** (cf. the complex-wormhole taxonomy
//!   in Azer & El-Kassas, arXiv 0906.1245): a claimed neighbor link
//!   whose Euclidean length exceeds the radio range is physically
//!   impossible, however rarely it is used ([`GeometricDetector`]).
//!
//! Every detector consumes the same [`DetectorInput`] (the discovery's
//! route set, the trained profile, and — where available — topology
//! observations) and returns a unified [`DetectorVerdict`] with a
//! *normalized* anomaly score: `1.0` is the decision boundary for every
//! detector, so ROC sweeps and ensemble voting compare like with like.
//! [`EnsembleDetector`] combines members under configurable
//! [`Voting`]; [`DetectorRegistry`] names the standard detectors for the
//! serving tier and the experiments, and is the **single calibration
//! path**: the small-sample `z = 2.5` threshold lives in
//! [`SamConfig::calibrated`](crate::detector::SamConfig::calibrated) and
//! nowhere else.

use crate::detector::{SamAnalysis, SamConfig, SamDetector};
use crate::procedure::{AttackReport, ProbeTransport, ProcedureConfig};
use crate::profile::NormalProfile;
use crate::stats::{common_endpoints, LinkStats};
use manet_routing::{select_disjoint, ProbeOutcome, Route};
use manet_sim::{Link, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Node positions plus the radio range — the side information the
/// [`GeometricDetector`] checks claimed links against. Kept as plain
/// data (not the simulator's `Topology`) so the detection core stays
/// independent of the engine: a deployment would source this from GPS
/// claims or a site survey.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyObservations {
    /// `(x, y)` per node, indexed by node id.
    pub positions: Vec<(f64, f64)>,
    /// Maximum radio range: two nodes farther apart than this cannot be
    /// genuine neighbors.
    pub range: f64,
}

impl TopologyObservations {
    /// Observations from explicit positions and a radio range.
    pub fn new(positions: Vec<(f64, f64)>, range: f64) -> Self {
        TopologyObservations { positions, range }
    }

    /// Euclidean distance between two nodes, `None` if either id is
    /// outside the observed set.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let pa = self.positions.get(a.0 as usize)?;
        let pb = self.positions.get(b.0 as usize)?;
        Some(((pa.0 - pb.0).powi(2) + (pa.1 - pb.1).powi(2)).sqrt())
    }
}

/// Everything a detector may consume for one decision.
#[derive(Clone, Copy)]
pub struct DetectorInput<'a> {
    /// The route set of one multi-path discovery.
    pub routes: &'a [Route],
    /// The trained normal-condition profile.
    pub profile: &'a NormalProfile,
    /// Topology observations, when the deployment has them. Wire
    /// requests carry none; detectors that need them abstain.
    pub topology: Option<&'a TopologyObservations>,
}

impl<'a> DetectorInput<'a> {
    /// Input from routes and a profile, no topology observations.
    pub fn new(routes: &'a [Route], profile: &'a NormalProfile) -> Self {
        DetectorInput {
            routes,
            profile,
            topology: None,
        }
    }

    /// Attach topology observations.
    pub fn with_topology(mut self, topology: &'a TopologyObservations) -> Self {
        self.topology = Some(topology);
        self
    }
}

/// One member's contribution to an ensemble decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectorVote {
    /// Member detector name.
    pub detector: String,
    /// The member's anomaly decision.
    pub anomalous: bool,
    /// The member's normalized score.
    pub score: f64,
    /// Effective voting weight (0 when the member abstained).
    pub weight: f64,
}

/// Per-detector evidence for the explainer — one variant per detector
/// kind, so an [`Explanation`](crate::explain::Explanation) can carry
/// whichever detector produced the verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DetectorEvidence {
    /// SAM frequency statistics (eq. 1–7 against the trained profile).
    Sam {
        /// Z-score of `p_max` against the profile.
        z_p_max: f64,
        /// Z-score of `Δ` against the profile.
        z_delta: f64,
        /// Shortening score of the mean route length.
        z_hops_short: f64,
        /// PMF-profile rule outcome, when enabled and trained.
        pmf_anomalous: Option<bool>,
        /// True when the profile had no training data.
        untrained: bool,
    },
    /// Within-set z-scores of link counts and neighbor-table sizes.
    NeighborZ {
        /// Largest link-count z-score over non-endpoint links.
        max_link_z: f64,
        /// Largest neighbor-table-size z-score over interior nodes.
        max_degree_z: f64,
        /// Distinct links tallied.
        distinct_links: u64,
        /// Interior nodes whose neighbor table was scored.
        nodes_scored: u64,
    },
    /// Claimed-link length vs. radio range.
    Geometric {
        /// Distinct claimed links with known positions.
        checked_links: u64,
        /// Links longer than `range × tolerance`.
        violations: u64,
        /// Largest `length / range` ratio observed.
        max_stretch: f64,
    },
    /// The detector abstained (not enough data, or missing side
    /// information such as topology observations).
    Abstained {
        /// Why the detector abstained.
        reason: String,
    },
    /// Ensemble decision: the member votes.
    Ensemble {
        /// One vote per member, in member order.
        votes: Vec<DetectorVote>,
    },
}

/// The unified verdict every detector returns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectorVerdict {
    /// Name of the detector that produced this verdict.
    pub detector: String,
    /// Anomaly decision at the detector's configured threshold.
    pub anomalous: bool,
    /// Normalized anomaly score: the raw signal divided by the
    /// configured threshold, so `1.0` is the decision boundary for every
    /// detector and ROC sweeps compare detectors on one axis.
    pub score: f64,
    /// Soft decision λ ∈ [0, 1] (0 = attacked with certainty).
    pub lambda: f64,
    /// `p_max` of the route set (eq. 3) — context for the report.
    pub p_max: f64,
    /// `Δ` of the route set (eq. 7) — context for the report.
    pub delta: f64,
    /// The localized attack link, when one was identified.
    pub suspect_link: Option<Link>,
    /// Detector-specific evidence for the explainer.
    pub evidence: DetectorEvidence,
}

impl DetectorVerdict {
    /// Whether the detector abstained rather than decided.
    pub fn abstained(&self) -> bool {
        matches!(self.evidence, DetectorEvidence::Abstained { .. })
    }
}

/// A wormhole detector: consumes discovery evidence, returns a unified
/// verdict. Implementations must be deterministic in their input.
pub trait Detector: Send + Sync {
    /// Registry name of this detector (`"sam"`, `"zscore"`, …).
    fn name(&self) -> &str;
    /// Decide whether `input` shows a wormhole.
    fn detect(&self, input: &DetectorInput) -> DetectorVerdict;
}

/// Map a completed SAM analysis to the unified verdict — the exact field
/// correspondence the differential harness pins: `anomalous`, `λ`,
/// `p_max`, `Δ`, and the suspect link are copied, never recomputed.
pub fn verdict_from_sam(cfg: &SamConfig, analysis: &SamAnalysis) -> DetectorVerdict {
    let mut z = analysis.z_p_max.max(analysis.z_delta);
    if cfg.use_hop_feature {
        z = z.max(analysis.z_hops_short);
    }
    DetectorVerdict {
        detector: "sam".to_string(),
        anomalous: analysis.anomalous,
        score: z / cfg.z_threshold,
        lambda: analysis.lambda,
        p_max: analysis.features.p_max,
        delta: analysis.features.delta,
        suspect_link: analysis.suspect_link,
        evidence: DetectorEvidence::Sam {
            z_p_max: analysis.z_p_max,
            z_delta: analysis.z_delta,
            z_hops_short: analysis.z_hops_short,
            pmf_anomalous: analysis.pmf_verdict.map(|v| v.anomalous),
            untrained: analysis.untrained,
        },
    }
}

impl Detector for SamDetector {
    fn name(&self) -> &str {
        "sam"
    }

    fn detect(&self, input: &DetectorInput) -> DetectorVerdict {
        let analysis = self.analyze(input.routes, input.profile);
        verdict_from_sam(self.config(), &analysis)
    }
}

/// Population standard deviation; 0 for empty/singleton samples.
fn mean_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Logistic soft decision shared by the alternative detectors: 0.5 at
/// the threshold, decreasing in the signal.
fn lambda_of(signal: f64, threshold: f64, steepness: f64) -> f64 {
    1.0 / (1.0 + (steepness * (signal - threshold)).exp())
}

/// [`ZScoreNeighborDetector`] configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ZScoreConfig {
    /// Z-score above which the set is anomalous.
    pub z_threshold: f64,
    /// Steepness of the z → λ logistic map.
    pub lambda_steepness: f64,
    /// Below this many routes the detector abstains.
    pub min_routes: usize,
    /// Below this many distinct links the within-set distribution is
    /// meaningless and the detector abstains.
    pub min_links: usize,
}

impl Default for ZScoreConfig {
    fn default() -> Self {
        ZScoreConfig {
            z_threshold: SamConfig::calibrated().z_threshold,
            lambda_steepness: 1.5,
            min_routes: 3,
            min_links: 4,
        }
    }
}

/// Per-node neighbor-table deltas plus z-scored link counts.
///
/// Two within-set signals, needing no trained profile:
///
/// * **link counts** — each non-endpoint link's occurrence count is
///   z-scored against the mean/std of all link counts in the set; the
///   tunneled link is an extreme outlier;
/// * **neighbor tables** — each interior node's distinct-neighbor count
///   (from route adjacency) is z-scored the same way; a wormhole
///   endpoint pairs with a different entry/exit node on nearly every
///   route, so its table balloons.
///
/// The score is the larger z divided by the threshold.
#[derive(Clone, Debug, Default)]
pub struct ZScoreNeighborDetector {
    cfg: ZScoreConfig,
}

impl ZScoreNeighborDetector {
    /// Detector with explicit configuration.
    pub fn new(cfg: ZScoreConfig) -> Self {
        ZScoreNeighborDetector { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ZScoreConfig {
        &self.cfg
    }
}

impl Detector for ZScoreNeighborDetector {
    fn name(&self) -> &str {
        "zscore"
    }

    fn detect(&self, input: &DetectorInput) -> DetectorVerdict {
        let stats = LinkStats::from_routes(input.routes);
        let features = stats.summary();
        let abstain = |reason: String| DetectorVerdict {
            detector: "zscore".to_string(),
            anomalous: false,
            score: 0.0,
            lambda: 1.0,
            p_max: features.p_max,
            delta: features.delta,
            suspect_link: None,
            evidence: DetectorEvidence::Abstained { reason },
        };
        if input.routes.len() < self.cfg.min_routes {
            return abstain(format!(
                "{} routes < min_routes {}",
                input.routes.len(),
                self.cfg.min_routes
            ));
        }
        if stats.distinct_links() < self.cfg.min_links {
            return abstain(format!(
                "{} distinct links < min_links {}",
                stats.distinct_links(),
                self.cfg.min_links
            ));
        }

        let (src, dst) = common_endpoints(input.routes);
        let exclude: Vec<NodeId> = src.into_iter().chain(dst).collect();
        let excluded = |n: NodeId| exclude.contains(&n);

        // Signal 1: within-set z of each non-endpoint link's count.
        let counts: Vec<f64> = stats.counts().map(|(_, c)| f64::from(c)).collect();
        let (mean, std) = mean_std(&counts);
        let mut max_link_z = 0.0f64;
        if std > 1e-9 {
            for (link, c) in stats.counts() {
                let (a, b) = link.endpoints();
                if excluded(a) || excluded(b) {
                    continue;
                }
                max_link_z = max_link_z.max((f64::from(c) - mean) / std);
            }
        }

        // Signal 2: within-set z of each interior node's neighbor-table
        // size. BTree containers keep the tally order-independent.
        let mut tables: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for route in input.routes {
            for link in route.links() {
                let (a, b) = link.endpoints();
                tables.entry(a.0).or_default().insert(b.0);
                tables.entry(b.0).or_default().insert(a.0);
            }
        }
        let degrees: Vec<f64> = tables
            .iter()
            .filter(|(&n, _)| !excluded(NodeId(n)))
            .map(|(_, t)| t.len() as f64)
            .collect();
        let (dmean, dstd) = mean_std(&degrees);
        let mut max_degree_z = 0.0f64;
        if dstd > 1e-9 {
            for d in &degrees {
                max_degree_z = max_degree_z.max((d - dmean) / dstd);
            }
        }

        let z = max_link_z.max(max_degree_z);
        let anomalous = z > self.cfg.z_threshold;
        DetectorVerdict {
            detector: "zscore".to_string(),
            anomalous,
            score: z / self.cfg.z_threshold,
            lambda: lambda_of(z, self.cfg.z_threshold, self.cfg.lambda_steepness),
            p_max: features.p_max,
            delta: features.delta,
            // Localize like SAM: the most frequent non-endpoint link.
            suspect_link: stats.suspect_link_excluding(&exclude),
            evidence: DetectorEvidence::NeighborZ {
                max_link_z,
                max_degree_z,
                distinct_links: stats.distinct_links() as u64,
                nodes_scored: degrees.len() as u64,
            },
        }
    }
}

/// [`GeometricDetector`] configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GeometricConfig {
    /// A claimed link longer than `range × stretch_tolerance` is a
    /// violation (the slack absorbs position measurement error).
    pub stretch_tolerance: f64,
    /// Steepness of the stretch → λ logistic map.
    pub lambda_steepness: f64,
}

impl Default for GeometricConfig {
    fn default() -> Self {
        GeometricConfig {
            stretch_tolerance: 1.25,
            lambda_steepness: 4.0,
        }
    }
}

/// Claimed-link length vs. radio range.
///
/// Every link claimed by a discovered route is checked against the
/// [`TopologyObservations`]: two nodes farther apart than the radio
/// range cannot be genuine neighbors, so such a claim is a tunnel —
/// *regardless of how rarely the attacker uses it*. This is the signal
/// that survives `Selective` tunneling: one tunneled route in the set is
/// enough. Without topology observations the detector abstains.
#[derive(Clone, Debug, Default)]
pub struct GeometricDetector {
    cfg: GeometricConfig,
}

impl GeometricDetector {
    /// Detector with explicit configuration.
    pub fn new(cfg: GeometricConfig) -> Self {
        GeometricDetector { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GeometricConfig {
        &self.cfg
    }
}

impl Detector for GeometricDetector {
    fn name(&self) -> &str {
        "geometric"
    }

    fn detect(&self, input: &DetectorInput) -> DetectorVerdict {
        let stats = LinkStats::from_routes(input.routes);
        let features = stats.summary();
        let Some(obs) = input.topology else {
            return DetectorVerdict {
                detector: "geometric".to_string(),
                anomalous: false,
                score: 0.0,
                lambda: 1.0,
                p_max: features.p_max,
                delta: features.delta,
                suspect_link: None,
                evidence: DetectorEvidence::Abstained {
                    reason: "no topology observations".to_string(),
                },
            };
        };

        let mut checked = 0u64;
        let mut violations = 0u64;
        // Longest claimed link, ties broken on endpoint ids so the pick
        // is independent of tabulation iteration order.
        let mut worst: Option<(f64, Link)> = None;
        for (link, _) in stats.counts() {
            let (a, b) = link.endpoints();
            let Some(d) = obs.distance(a, b) else {
                continue;
            };
            checked += 1;
            let stretch = if obs.range > 0.0 { d / obs.range } else { 0.0 };
            if stretch > self.cfg.stretch_tolerance {
                violations += 1;
            }
            let replace = match worst {
                None => true,
                Some((ws, wl)) => {
                    stretch > ws
                        || (stretch == ws && (link.lo().0, link.hi().0) < (wl.lo().0, wl.hi().0))
                }
            };
            if replace {
                worst = Some((stretch, link));
            }
        }
        let max_stretch = worst.map(|(s, _)| s).unwrap_or(0.0);

        let anomalous = violations > 0;
        DetectorVerdict {
            detector: "geometric".to_string(),
            anomalous,
            score: if self.cfg.stretch_tolerance > 0.0 {
                max_stretch / self.cfg.stretch_tolerance
            } else {
                max_stretch
            },
            lambda: lambda_of(
                max_stretch,
                self.cfg.stretch_tolerance,
                self.cfg.lambda_steepness,
            ),
            p_max: features.p_max,
            delta: features.delta,
            // The suspect is the longest claimed link — only meaningful
            // once it violates the range.
            suspect_link: if anomalous {
                worst.map(|(_, l)| l)
            } else {
                None
            },
            evidence: DetectorEvidence::Geometric {
                checked_links: checked,
                violations,
                max_stretch,
            },
        }
    }
}

/// How an [`EnsembleDetector`] combines member decisions. Abstaining
/// members never vote: they are excluded from the denominator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Voting {
    /// Anomalous if any voting member is anomalous.
    Any,
    /// Anomalous if a strict majority of voting members are anomalous.
    Majority,
    /// Anomalous if the anomalous members' weight *strictly* exceeds
    /// half the voting weight — an exact tie is **not** anomalous.
    /// Weights are per-member, in member order; missing entries count 1.
    Weighted(Vec<f64>),
}

/// Combines member detectors under a [`Voting`] rule.
///
/// The ensemble score is voting-consistent for `Any` (max member score)
/// and `Majority` (the k-th largest member score, k the strict-majority
/// count): `score > 1.0` iff the vote passes. For `Weighted` the score
/// is the weighted mean of member scores — a smooth surrogate; the
/// decision itself always comes from the weight rule.
pub struct EnsembleDetector {
    members: Vec<Arc<dyn Detector>>,
    voting: Voting,
}

impl EnsembleDetector {
    /// Ensemble over explicit members.
    pub fn new(members: Vec<Arc<dyn Detector>>, voting: Voting) -> Self {
        EnsembleDetector { members, voting }
    }

    /// The standard ensemble: calibrated SAM + z-score + geometric under
    /// `Any` voting (the detectors are independent signals, so one
    /// firing is evidence; the roc experiment quantifies the FPR cost).
    pub fn standard() -> Self {
        EnsembleDetector::new(
            vec![
                Arc::new(SamDetector::new(SamConfig::calibrated())),
                Arc::new(ZScoreNeighborDetector::default()),
                Arc::new(GeometricDetector::default()),
            ],
            Voting::Any,
        )
    }

    /// The voting rule in effect.
    pub fn voting(&self) -> &Voting {
        &self.voting
    }
}

impl Detector for EnsembleDetector {
    fn name(&self) -> &str {
        "ensemble"
    }

    fn detect(&self, input: &DetectorInput) -> DetectorVerdict {
        let verdicts: Vec<DetectorVerdict> = self.members.iter().map(|m| m.detect(input)).collect();
        let weight_of = |i: usize| match &self.voting {
            Voting::Weighted(w) => w.get(i).copied().unwrap_or(1.0),
            _ => 1.0,
        };
        let votes: Vec<DetectorVote> = verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| DetectorVote {
                detector: v.detector.clone(),
                anomalous: v.anomalous,
                score: v.score,
                weight: if v.abstained() { 0.0 } else { weight_of(i) },
            })
            .collect();
        let voters: Vec<&DetectorVerdict> = verdicts.iter().filter(|v| !v.abstained()).collect();

        let anomalous = match &self.voting {
            Voting::Any => voters.iter().any(|v| v.anomalous),
            Voting::Majority => {
                let yes = voters.iter().filter(|v| v.anomalous).count();
                yes * 2 > voters.len()
            }
            Voting::Weighted(_) => {
                let total: f64 = votes.iter().map(|v| v.weight).sum();
                let yes: f64 = votes.iter().filter(|v| v.anomalous).map(|v| v.weight).sum();
                yes * 2.0 > total
            }
        };

        let score = match &self.voting {
            Voting::Any => voters.iter().map(|v| v.score).fold(0.0, f64::max),
            Voting::Majority => {
                let mut scores: Vec<f64> = voters.iter().map(|v| v.score).collect();
                scores.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
                let k = voters.len() / 2; // k-th largest, 0-indexed
                scores.get(k).copied().unwrap_or(0.0)
            }
            Voting::Weighted(_) => {
                let total: f64 = votes.iter().map(|v| v.weight).sum();
                if total > 0.0 {
                    votes.iter().map(|v| v.weight * v.score).sum::<f64>() / total
                } else {
                    0.0
                }
            }
        };

        // Suspect: the highest-scoring anomalous voter's pick, falling
        // back to the highest-scoring voter. Member order breaks ties
        // (strict > keeps the first of equals).
        fn best_suspect<'v>(
            voters: &[&'v DetectorVerdict],
            anomalous_only: bool,
        ) -> Option<&'v DetectorVerdict> {
            let mut best: Option<&DetectorVerdict> = None;
            for v in voters {
                if v.suspect_link.is_none() || (anomalous_only && !v.anomalous) {
                    continue;
                }
                if best.map(|b| v.score > b.score).unwrap_or(true) {
                    best = Some(v);
                }
            }
            best
        }
        let suspect_link = best_suspect(&voters, true)
            .or_else(|| best_suspect(&voters, false))
            .and_then(|v| v.suspect_link);

        let lambda = voters.iter().map(|v| v.lambda).fold(1.0, f64::min);
        let (p_max, delta) = voters
            .first()
            .map(|v| (v.p_max, v.delta))
            .unwrap_or((0.0, 0.0));

        DetectorVerdict {
            detector: "ensemble".to_string(),
            anomalous,
            score,
            lambda,
            p_max,
            delta,
            suspect_link,
            evidence: DetectorEvidence::Ensemble { votes },
        }
    }
}

/// The named detectors one serving tier (or experiment) can select from.
///
/// This is the single configuration path for detection thresholds: the
/// `"sam"` entry carries the one [`SamConfig`], and everything that used
/// to duplicate the small-sample calibration (experiments, loadgen, the
/// gateway) now builds a registry instead.
#[derive(Clone)]
pub struct DetectorRegistry {
    entries: Vec<(&'static str, Arc<dyn Detector>)>,
}

/// Names in every standard registry, in registry order.
pub const DETECTOR_NAMES: &[&str] = &["sam", "zscore", "geometric", "ensemble"];

impl DetectorRegistry {
    /// The standard registry with the small-sample calibration
    /// ([`SamConfig::calibrated`], z = 2.5).
    pub fn calibrated() -> Self {
        DetectorRegistry::with_sam(SamConfig::calibrated())
    }

    /// The standard registry with an explicit SAM configuration (the
    /// ensemble member shares it).
    pub fn with_sam(sam_cfg: SamConfig) -> Self {
        let sam: Arc<dyn Detector> = Arc::new(SamDetector::new(sam_cfg));
        let zscore: Arc<dyn Detector> = Arc::new(ZScoreNeighborDetector::default());
        let geometric: Arc<dyn Detector> = Arc::new(GeometricDetector::default());
        let ensemble: Arc<dyn Detector> = Arc::new(EnsembleDetector::new(
            vec![sam.clone(), zscore.clone(), geometric.clone()],
            Voting::Any,
        ));
        DetectorRegistry {
            entries: vec![
                ("sam", sam),
                ("zscore", zscore),
                ("geometric", geometric),
                ("ensemble", ensemble),
            ],
        }
    }

    /// Look a detector up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Detector>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Registered names, in registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Comma-joined names for error messages.
    pub fn known(&self) -> String {
        self.names().join(", ")
    }
}

/// Outcome of [`run_procedure`]: the step-1 verdict plus what steps 2–3
/// concluded from it. [`DetectionOutcome`](crate::procedure::DetectionOutcome)
/// is the same outcome seen through SAM's analysis.
#[derive(Clone, Debug)]
pub enum DetectorOutcome {
    /// No anomaly; these routes go back to the source.
    Normal {
        /// Step-1 verdict.
        verdict: DetectorVerdict,
        /// Maximally disjoint routes selected for use.
        selected_routes: Vec<Route>,
    },
    /// Anomalous but neither probes nor statistics confirm.
    SuspiciousUnconfirmed {
        /// Step-1 verdict.
        verdict: DetectorVerdict,
        /// Routes avoiding the suspect link, if any.
        selected_routes: Vec<Route>,
    },
    /// Attack confirmed; alert raised.
    Confirmed {
        /// Step-1 verdict.
        verdict: DetectorVerdict,
        /// The full report for the response module.
        report: AttackReport,
    },
}

impl DetectorOutcome {
    /// Whether the outcome is a confirmed attack.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, DetectorOutcome::Confirmed { .. })
    }

    /// The step-1 verdict, whatever the outcome.
    pub fn verdict(&self) -> &DetectorVerdict {
        match self {
            DetectorOutcome::Normal { verdict, .. }
            | DetectorOutcome::SuspiciousUnconfirmed { verdict, .. }
            | DetectorOutcome::Confirmed { verdict, .. } => verdict,
        }
    }
}

/// The three-step procedure (paper Fig. 3) over any [`Detector`]: step 1
/// is `detector.detect`, steps 2–3 are the shared `conclude`. This is the
/// one procedure; [`Procedure::execute`](crate::procedure::Procedure) is
/// SAM's step 1 followed by the same `conclude`, for callers that need
/// the SAM analysis.
pub fn run_procedure<T: ProbeTransport>(
    detector: &dyn Detector,
    input: &DetectorInput,
    cfg: &ProcedureConfig,
    transport: &mut T,
) -> DetectorOutcome {
    conclude(detector.detect(input), input.routes, cfg, transport)
}

/// Steps 2–3 of the procedure on a step-1 `verdict` over `routes`: probe
/// the paths crossing the suspect link, confirm on failed probes or
/// conclusive λ, and otherwise select routes for the source, avoiding the
/// suspect link when the verdict is anomalous.
pub(crate) fn conclude<T: ProbeTransport>(
    verdict: DetectorVerdict,
    routes: &[Route],
    cfg: &ProcedureConfig,
    transport: &mut T,
) -> DetectorOutcome {
    if !verdict.anomalous {
        return DetectorOutcome::Normal {
            verdict,
            selected_routes: select_disjoint(routes, cfg.routes_to_source),
        };
    }
    let crosses_suspect = |r: &Route| verdict.suspect_link.is_some_and(|l| r.contains_link(l));

    // Step 2: probe the suspicious paths (those crossing the suspect).
    let tested: Vec<ProbeOutcome> = routes
        .iter()
        .filter(|r| crosses_suspect(r))
        .take(cfg.max_paths_tested)
        .map(|route| transport.probe(route, cfg.probes_per_path))
        .collect();
    let paths_tested = tested.len();
    let probe_ack_ratio = if tested.is_empty() {
        1.0
    } else {
        tested.iter().map(|o| o.ack_ratio()).sum::<f64>() / tested.len() as f64
    };

    // Step 3: confirm on failed probes OR overwhelming statistics.
    let probes_failed = paths_tested > 0 && probe_ack_ratio < cfg.ack_threshold;
    let stats_conclusive = verdict.lambda < cfg.lambda_confirm;
    if probes_failed || stats_conclusive {
        if let Some(link) = verdict.suspect_link {
            let (a, b) = link.endpoints();
            let report = AttackReport {
                suspect_link: (a, b),
                lambda: verdict.lambda,
                p_max: verdict.p_max,
                delta: verdict.delta,
                probe_ack_ratio,
                paths_tested,
                isolate: vec![a, b],
            };
            return DetectorOutcome::Confirmed { verdict, report };
        }
        // Anomalous with no localizable link: report as unconfirmed
        // rather than fabricate a suspect.
    }

    // Anomalous but unconfirmed: steer traffic around the suspect.
    let safe: Vec<Route> = routes
        .iter()
        .filter(|r| !crosses_suspect(r))
        .cloned()
        .collect();
    DetectorOutcome::SuspiciousUnconfirmed {
        verdict,
        selected_routes: select_disjoint(&safe, cfg.routes_to_source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::{DetectionOutcome, Procedure};

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    fn normal_sets() -> Vec<Vec<Route>> {
        vec![
            vec![
                r(&[0, 1, 2, 9]),
                r(&[0, 3, 4, 9]),
                r(&[0, 5, 6, 9]),
                r(&[0, 10, 11, 9]),
                r(&[0, 12, 13, 9]),
            ],
            vec![
                r(&[0, 1, 4, 9]),
                r(&[0, 3, 6, 9]),
                r(&[0, 5, 2, 9]),
                r(&[0, 10, 13, 9]),
                r(&[0, 12, 11, 9]),
            ],
            vec![
                r(&[0, 1, 2, 9]),
                r(&[0, 3, 2, 9]),
                r(&[0, 5, 6, 9]),
                r(&[0, 10, 11, 9]),
                r(&[0, 12, 13, 9]),
            ],
            vec![
                r(&[0, 1, 6, 9]),
                r(&[0, 3, 6, 9]),
                r(&[0, 5, 2, 9]),
                r(&[0, 10, 11, 9]),
                r(&[0, 12, 13, 9]),
            ],
        ]
    }

    fn attacked_set() -> Vec<Route> {
        vec![
            r(&[0, 7, 8, 9]),
            r(&[0, 1, 7, 8, 2, 9]),
            r(&[0, 3, 7, 8, 4, 9]),
            r(&[0, 5, 7, 8, 6, 9]),
            r(&[0, 10, 7, 8, 11, 9]),
            r(&[0, 12, 7, 8, 13, 9]),
        ]
    }

    fn normal_live() -> Vec<Route> {
        vec![r(&[0, 1, 2, 9]), r(&[0, 5, 6, 9]), r(&[0, 3, 4, 9])]
    }

    /// Positions for nodes 0..=13: everyone within one unit of their
    /// route neighbors except 7 and 8, which sit 10 units apart.
    fn observations() -> TopologyObservations {
        let mut positions = vec![(0.0, 0.0); 14];
        for (i, p) in positions.iter_mut().enumerate() {
            *p = (i as f64 * 0.1, 0.0);
        }
        positions[7] = (-5.0, 0.0);
        positions[8] = (5.0, 0.0);
        TopologyObservations::new(positions, 2.0)
    }

    #[test]
    fn sam_trait_verdict_mirrors_analyze() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::new(SamConfig::calibrated());
        for routes in [attacked_set(), normal_live()] {
            let analysis = d.analyze(&routes, &profile);
            let verdict = Detector::detect(&d, &DetectorInput::new(&routes, &profile));
            assert_eq!(verdict.detector, "sam");
            assert_eq!(verdict.anomalous, analysis.anomalous);
            assert_eq!(verdict.lambda, analysis.lambda);
            assert_eq!(verdict.p_max, analysis.features.p_max);
            assert_eq!(verdict.delta, analysis.features.delta);
            assert_eq!(verdict.suspect_link, analysis.suspect_link);
            assert_eq!(
                verdict.score,
                analysis.z_p_max.max(analysis.z_delta) / d.config().z_threshold
            );
        }
    }

    #[test]
    fn zscore_flags_the_attacked_set_and_passes_normal() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = ZScoreNeighborDetector::default();
        let routes = attacked_set();
        let v = d.detect(&DetectorInput::new(&routes, &profile));
        assert!(v.anomalous, "{v:?}");
        assert!(v.score > 1.0);
        assert_eq!(
            v.suspect_link,
            Some(Link::new(NodeId(7), NodeId(8))),
            "{v:?}"
        );
        let normal = normal_live();
        let vn = d.detect(&DetectorInput::new(&normal, &profile));
        assert!(!vn.anomalous, "{vn:?}");
        assert!(vn.score < 1.0);
    }

    #[test]
    fn zscore_needs_no_trained_profile() {
        let untrained = NormalProfile::train(&[], 20);
        let d = ZScoreNeighborDetector::default();
        let routes = attacked_set();
        let v = d.detect(&DetectorInput::new(&routes, &untrained));
        assert!(v.anomalous, "within-set statistics need no profile: {v:?}");
    }

    #[test]
    fn zscore_abstains_on_tiny_sets() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = ZScoreNeighborDetector::default();
        let routes = vec![r(&[0, 7, 8, 9])];
        let v = d.detect(&DetectorInput::new(&routes, &profile));
        assert!(v.abstained());
        assert!(!v.anomalous);
        assert_eq!(v.lambda, 1.0);
    }

    #[test]
    fn geometric_flags_the_impossible_link() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let obs = observations();
        let d = GeometricDetector::default();
        let routes = attacked_set();
        let v = d.detect(&DetectorInput::new(&routes, &profile).with_topology(&obs));
        assert!(v.anomalous, "{v:?}");
        assert_eq!(v.suspect_link, Some(Link::new(NodeId(7), NodeId(8))));
        match v.evidence {
            DetectorEvidence::Geometric {
                violations,
                max_stretch,
                ..
            } => {
                assert!(violations >= 1);
                assert!(max_stretch > 4.0, "10 units over range 2: {max_stretch}");
            }
            other => panic!("wrong evidence kind: {other:?}"),
        }
    }

    #[test]
    fn geometric_catches_a_single_tunneled_route() {
        // The selective-attacker scenario in miniature: the tunnel shows
        // up on ONE route only. Frequency statistics shrug; geometry
        // cannot.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let obs = observations();
        let mut routes = normal_live();
        routes.push(r(&[0, 7, 8, 9]));
        let sam = SamDetector::new(SamConfig::calibrated());
        let vs = Detector::detect(&sam, &DetectorInput::new(&routes, &profile));
        assert!(!vs.anomalous, "frequency alone must miss this: {vs:?}");
        let geo = GeometricDetector::default();
        let vg = geo.detect(&DetectorInput::new(&routes, &profile).with_topology(&obs));
        assert!(vg.anomalous, "{vg:?}");
        assert_eq!(vg.suspect_link, Some(Link::new(NodeId(7), NodeId(8))));
    }

    #[test]
    fn geometric_abstains_without_observations() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = GeometricDetector::default();
        let routes = attacked_set();
        let v = d.detect(&DetectorInput::new(&routes, &profile));
        assert!(v.abstained());
        assert!(!v.anomalous);
        assert_eq!(v.score, 0.0);
    }

    #[test]
    fn geometric_passes_in_range_links() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let obs = TopologyObservations::new(vec![(0.0, 0.0); 14], 2.0);
        let d = GeometricDetector::default();
        let routes = attacked_set();
        let v = d.detect(&DetectorInput::new(&routes, &profile).with_topology(&obs));
        assert!(!v.anomalous, "all distances 0: {v:?}");
    }

    /// A stub member with a fixed decision, for voting-rule tests.
    struct Fixed {
        name: &'static str,
        anomalous: bool,
        score: f64,
        abstain: bool,
    }

    impl Fixed {
        fn vote(name: &'static str, anomalous: bool, score: f64) -> Arc<dyn Detector> {
            Arc::new(Fixed {
                name,
                anomalous,
                score,
                abstain: false,
            })
        }

        fn abstain(name: &'static str) -> Arc<dyn Detector> {
            Arc::new(Fixed {
                name,
                anomalous: false,
                score: 0.0,
                abstain: true,
            })
        }
    }

    impl Detector for Fixed {
        fn name(&self) -> &str {
            self.name
        }

        fn detect(&self, _input: &DetectorInput) -> DetectorVerdict {
            DetectorVerdict {
                detector: self.name.to_string(),
                anomalous: self.anomalous,
                score: self.score,
                lambda: if self.anomalous { 0.1 } else { 0.9 },
                p_max: 0.2,
                delta: 0.5,
                suspect_link: self.anomalous.then(|| Link::new(NodeId(7), NodeId(8))),
                evidence: if self.abstain {
                    DetectorEvidence::Abstained {
                        reason: "stub".to_string(),
                    }
                } else {
                    DetectorEvidence::NeighborZ {
                        max_link_z: 0.0,
                        max_degree_z: 0.0,
                        distinct_links: 0,
                        nodes_scored: 0,
                    }
                },
            }
        }
    }

    fn ensemble_on(members: Vec<Arc<dyn Detector>>, voting: Voting) -> DetectorVerdict {
        let profile = NormalProfile::train(&[], 20);
        let routes = normal_live();
        EnsembleDetector::new(members, voting).detect(&DetectorInput::new(&routes, &profile))
    }

    #[test]
    fn ensemble_unanimous_negative_is_negative() {
        for voting in [
            Voting::Any,
            Voting::Majority,
            Voting::Weighted(vec![1.0; 3]),
        ] {
            let v = ensemble_on(
                vec![
                    Fixed::vote("a", false, 0.2),
                    Fixed::vote("b", false, 0.4),
                    Fixed::vote("c", false, 0.1),
                ],
                voting.clone(),
            );
            assert!(!v.anomalous, "{voting:?}: {v:?}");
            assert!(v.score < 1.0, "{voting:?}: {v:?}");
        }
    }

    #[test]
    fn one_of_three_fires_any_but_not_majority() {
        let members = || {
            vec![
                Fixed::vote("a", true, 1.8),
                Fixed::vote("b", false, 0.3),
                Fixed::vote("c", false, 0.2),
            ]
        };
        let any = ensemble_on(members(), Voting::Any);
        assert!(any.anomalous, "{any:?}");
        assert!(any.score > 1.0, "any score is the max: {any:?}");
        let majority = ensemble_on(members(), Voting::Majority);
        assert!(
            !majority.anomalous,
            "1 of 3 is not a majority: {majority:?}"
        );
        assert!(
            majority.score < 1.0,
            "majority score is the 2nd largest: {majority:?}"
        );
    }

    #[test]
    fn two_of_three_carry_a_majority() {
        let v = ensemble_on(
            vec![
                Fixed::vote("a", true, 1.8),
                Fixed::vote("b", true, 1.2),
                Fixed::vote("c", false, 0.2),
            ],
            Voting::Majority,
        );
        assert!(v.anomalous, "{v:?}");
        assert!(v.score > 1.0, "{v:?}");
    }

    #[test]
    fn weighted_tie_is_not_anomalous() {
        // 1.0 anomalous vs 1.0 total-half: an exact tie must lose.
        let v = ensemble_on(
            vec![Fixed::vote("a", true, 2.0), Fixed::vote("b", false, 0.1)],
            Voting::Weighted(vec![1.0, 1.0]),
        );
        assert!(!v.anomalous, "exact weight tie must not fire: {v:?}");
        // Tip the weight past half and it fires.
        let v2 = ensemble_on(
            vec![Fixed::vote("a", true, 2.0), Fixed::vote("b", false, 0.1)],
            Voting::Weighted(vec![1.01, 1.0]),
        );
        assert!(v2.anomalous, "{v2:?}");
    }

    #[test]
    fn abstaining_members_leave_the_denominator() {
        // One abstainer + one anomalous voter: a majority of the *voting*
        // members (1 of 1), so the ensemble fires.
        let v = ensemble_on(
            vec![Fixed::abstain("geo"), Fixed::vote("a", true, 1.5)],
            Voting::Majority,
        );
        assert!(v.anomalous, "{v:?}");
        match &v.evidence {
            DetectorEvidence::Ensemble { votes } => {
                assert_eq!(votes.len(), 2, "abstainers still appear in evidence");
                assert_eq!(votes[0].weight, 0.0);
                assert_eq!(votes[1].weight, 1.0);
            }
            other => panic!("wrong evidence kind: {other:?}"),
        }
    }

    #[test]
    fn standard_ensemble_catches_what_sam_misses() {
        // The motivating composition: one tunneled route, topology known.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let obs = observations();
        let mut routes = normal_live();
        routes.push(r(&[0, 7, 8, 9]));
        let input = DetectorInput::new(&routes, &profile).with_topology(&obs);
        let sam = SamDetector::new(SamConfig::calibrated());
        assert!(!Detector::detect(&sam, &input).anomalous);
        let v = EnsembleDetector::standard().detect(&input);
        assert!(v.anomalous, "{v:?}");
        assert_eq!(v.suspect_link, Some(Link::new(NodeId(7), NodeId(8))));
    }

    #[test]
    fn registry_resolves_every_standard_name() {
        let reg = DetectorRegistry::calibrated();
        assert_eq!(reg.names(), DETECTOR_NAMES);
        for name in DETECTOR_NAMES {
            let d = reg.get(name).expect("registered");
            assert_eq!(d.name(), *name);
        }
        assert!(reg.get("frequency-hopper").is_none());
        assert!(!reg.contains("FREQ"));
        assert_eq!(reg.known(), "sam, zscore, geometric, ensemble");
    }

    /// Re-creatable probe transport so both procedure paths see the
    /// same outcomes.
    enum TestTransport {
        Blackhole(Link),
        AllAck,
    }

    impl ProbeTransport for TestTransport {
        fn probe(&mut self, route: &Route, count: u32) -> ProbeOutcome {
            match self {
                TestTransport::Blackhole(l) => ProbeOutcome {
                    sent: count,
                    acked: if route.contains_link(*l) { 0 } else { count },
                },
                TestTransport::AllAck => ProbeOutcome {
                    sent: count,
                    acked: count,
                },
            }
        }
    }

    /// `Procedure::execute` is SAM's step 1 plus the shared steps 2–3, so
    /// this pins its view: the same outcome class and report as
    /// `run_procedure`, with the analysis behind the verdict on the
    /// anomalous variants.
    #[test]
    fn run_procedure_with_sam_matches_concrete_procedure() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let cfg = ProcedureConfig::default();
        let sam = SamDetector::new(SamConfig::calibrated());
        let procedure = Procedure::new(sam.clone(), cfg);
        let transport = |blackhole: bool| {
            if blackhole {
                TestTransport::Blackhole(Link::new(NodeId(7), NodeId(8)))
            } else {
                TestTransport::AllAck
            }
        };
        for (routes, blackhole) in [
            (attacked_set(), true),
            (attacked_set(), false),
            (normal_live(), false),
        ] {
            let concrete = {
                let mut t = transport(blackhole);
                procedure.execute(&routes, &profile, &mut t)
            };
            let traited = {
                let mut t = transport(blackhole);
                run_procedure(&sam, &DetectorInput::new(&routes, &profile), &cfg, &mut t)
            };
            match (&concrete, &traited) {
                (
                    DetectionOutcome::Normal { selected_routes: a },
                    DetectorOutcome::Normal {
                        selected_routes: b, ..
                    },
                ) => assert_eq!(a, b),
                (
                    DetectionOutcome::SuspiciousUnconfirmed {
                        analysis,
                        selected_routes: a,
                    },
                    DetectorOutcome::SuspiciousUnconfirmed {
                        verdict,
                        selected_routes: b,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(verdict_from_sam(sam.config(), analysis), *verdict);
                }
                (
                    DetectionOutcome::Confirmed {
                        report: a,
                        analysis,
                    },
                    DetectorOutcome::Confirmed {
                        report: b, verdict, ..
                    },
                ) => {
                    assert_eq!(a.suspect_link, b.suspect_link);
                    assert_eq!(a.lambda, b.lambda);
                    assert_eq!(a.p_max, b.p_max);
                    assert_eq!(a.delta, b.delta);
                    assert_eq!(a.probe_ack_ratio, b.probe_ack_ratio);
                    assert_eq!(a.paths_tested, b.paths_tested);
                    assert_eq!(a.isolate, b.isolate);
                    assert_eq!(verdict_from_sam(sam.config(), analysis), *verdict);
                }
                (c, t) => panic!("outcomes diverge: {c:?} vs {t:?}"),
            }
        }
    }

    #[test]
    fn evidence_round_trips_through_the_value_model() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let obs = observations();
        let routes = attacked_set();
        let reg = DetectorRegistry::calibrated();
        for name in DETECTOR_NAMES {
            let v = reg
                .get(name)
                .unwrap()
                .detect(&DetectorInput::new(&routes, &profile).with_topology(&obs));
            let line = serde_json::to_string(&v).expect("serializes");
            let back: DetectorVerdict = serde_json::from_str(&line).expect("deserializes");
            assert_eq!(back, v, "{name}");
        }
    }
}
