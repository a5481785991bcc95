//! The SAM anomaly detector (step 1 of the paper's procedure).
//!
//! Computes the feature vector of a route set, scores it against the
//! trained [`NormalProfile`], and produces the **soft decision λ ∈ [0, 1]**
//! the paper's IDS model requires: "0 means being attacked with absolute
//! certainty and 1 means no attack has been detected with absolute
//! certainty".

use crate::pmf::{Pmf, PmfProfile, PmfVerdict};
use crate::profile::NormalProfile;
use crate::stats::{common_endpoint_array, LinkStats, RouteSetFeatures};
use manet_routing::Route;
use manet_sim::Link;
use serde::{Deserialize, Serialize};

/// Detector configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SamConfig {
    /// Z-score above which a feature is anomalous (λ crosses 0.5 here).
    pub z_threshold: f64,
    /// Steepness of the z → λ logistic map.
    pub lambda_steepness: f64,
    /// Bins for the PMF comparison (must match the trained profile).
    pub pmf_bins: usize,
    /// Whether to include the PMF-profile rule as extra evidence.
    pub use_pmf: bool,
    /// Below this many routes the detector abstains (λ = 1, no anomaly):
    /// SAM needs "enough routing information … obtained by multi-path
    /// routing".
    pub min_routes: usize,
    /// **Extension** (off by default, to stay faithful to the paper's
    /// feature set): also score the mean route length. A wormhole
    /// shortens routes dramatically; this catches the hidden-replay
    /// variant whose per-link signature is diluted across the attackers'
    /// neighbour pairs (see `ablation_hidden_detection`).
    pub use_hop_feature: bool,
}

impl Default for SamConfig {
    fn default() -> Self {
        SamConfig {
            z_threshold: 3.0,
            lambda_steepness: 1.5,
            pmf_bins: 20,
            use_pmf: true,
            min_routes: 1,
            use_hop_feature: false,
        }
    }
}

/// The small-sample calibration threshold: at ~10-run training scale the
/// 3σ library default under-fires on held-out traffic, so everything
/// operational (experiments, serving, the detector registry) runs at
/// 2.5σ. This constant is the **only** place the calibration lives.
pub const CALIBRATED_Z_THRESHOLD: f64 = 2.5;

impl SamConfig {
    /// The operational calibration shared by the experiments and the
    /// serving tier (see [`CALIBRATED_Z_THRESHOLD`]). The detector
    /// registry names this configuration `"sam"`.
    pub fn calibrated() -> Self {
        SamConfig {
            z_threshold: CALIBRATED_Z_THRESHOLD,
            ..SamConfig::default()
        }
    }
}

/// Everything SAM concludes about one route set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SamAnalysis {
    /// The extracted features (eq. 1–7).
    pub features: RouteSetFeatures,
    /// Z-score of `p_max` against the profile.
    pub z_p_max: f64,
    /// Z-score of `Δ` against the profile.
    pub z_delta: f64,
    /// Shortening score of the mean route length: positive when routes
    /// are shorter than the trained profile (the wormhole direction).
    /// Only contributes to the verdict when `use_hop_feature` is set.
    pub z_hops_short: f64,
    /// PMF comparison evidence, when enabled and trained.
    pub pmf_verdict: Option<PmfVerdict>,
    /// Analytic p-value of the observed `p_max` under the trained PMF
    /// (the paper's "estimate the probability of high usage link using
    /// theoretical analysis"): `P(max of |L| normal frequencies ≥ p_max)`.
    /// Diagnostic only — it does not gate the verdict.
    pub p_max_pvalue: Option<f64>,
    /// The soft decision: 0 = attacked with certainty, 1 = certainly
    /// normal.
    pub lambda: f64,
    /// Step-1 outcome: anomalous patterns occurred.
    pub anomalous: bool,
    /// The most frequent link — the attack link if the anomaly is real.
    pub suspect_link: Option<Link>,
    /// True if the profile had no training data (analysis abstained).
    pub untrained: bool,
}

/// The SAM detector.
#[derive(Clone, Debug, Default)]
pub struct SamDetector {
    cfg: SamConfig,
}

impl SamDetector {
    /// Detector with explicit configuration.
    pub fn new(cfg: SamConfig) -> Self {
        SamDetector { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SamConfig {
        &self.cfg
    }

    /// Map a z-score to the soft decision λ: logistic centred on the
    /// threshold, decreasing in z.
    pub fn lambda_of_z(&self, z: f64) -> f64 {
        let s = self.cfg.lambda_steepness;
        1.0 / (1.0 + (s * (z - self.cfg.z_threshold)).exp())
    }

    /// Analyze one route set against a trained profile.
    pub fn analyze(&self, routes: &[Route], profile: &NormalProfile) -> SamAnalysis {
        self.analyze_with(routes, &LinkStats::from_routes(routes), profile)
    }

    /// [`SamDetector::analyze`] over `stats`, the link table of `routes`
    /// (`LinkStats::from_routes(routes)`) that the caller already holds.
    /// One pass over the table gives the features and the suspect link.
    pub fn analyze_with(
        &self,
        routes: &[Route],
        stats: &LinkStats,
        profile: &NormalProfile,
    ) -> SamAnalysis {
        debug_assert_eq!(stats.route_count(), routes.len(), "the table of `routes`");
        // Localize while ignoring endpoint-adjacent links (trivially
        // frequent; see `LinkStats::suspect_link_excluding`).
        let (ends, n_ends) = common_endpoint_array(routes);
        let (features, suspect_link) = stats.summary_excluding(&ends[..n_ends]);

        if !profile.is_trained() || routes.len() < self.cfg.min_routes {
            return SamAnalysis {
                features,
                z_p_max: 0.0,
                z_delta: 0.0,
                z_hops_short: 0.0,
                pmf_verdict: None,
                p_max_pvalue: None,
                lambda: 1.0,
                anomalous: false,
                suspect_link,
                untrained: !profile.is_trained(),
            };
        }

        let z_p_max = profile.p_max.z(features.p_max);
        let z_delta = profile.delta.z(features.delta);
        // Shorter-than-normal routes are the wormhole direction, so the
        // signal is the *negated* z-score of the mean length (tighter
        // relative floor — see `FeatureStat::z_with_rel_floor`).
        let z_hops_short = -profile.hops.z_with_rel_floor(features.mean_hops, 0.1);
        // "It is expected that both statistics will be much higher under
        // wormhole attack … Together they will determine whether the
        // routing protocol is under wormhole attack."  We score on the
        // stronger of the two signals: either feature spiking is evidence
        // (Δ alone goes to 0 in the paper's tie cases, p_max alone can
        // stay moderate on long honest routes).
        let mut z = z_p_max.max(z_delta);
        if self.cfg.use_hop_feature {
            z = z.max(z_hops_short);
        }
        let lambda = self.lambda_of_z(z);

        let pmf_verdict = if self.cfg.use_pmf && profile.pmf.sample_count() > 0 {
            let mut live = Pmf::new(profile.pmf.bin_count());
            for f in stats.frequencies() {
                live.add_sample(f);
            }
            Some(PmfProfile::new(&profile.pmf).check(&live))
        } else {
            None
        };
        let p_max_pvalue = (profile.pmf.sample_count() > 0).then(|| {
            profile
                .pmf
                .max_order_pvalue(features.p_max, features.distinct_links)
        });

        let anomalous =
            z > self.cfg.z_threshold || pmf_verdict.map(|v| v.anomalous).unwrap_or(false);

        SamAnalysis {
            features,
            z_p_max,
            z_delta,
            z_hops_short,
            pmf_verdict,
            p_max_pvalue,
            lambda,
            anomalous,
            suspect_link,
            untrained: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::NodeId;

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    /// Spread-out normal sets: five routes each, at most one repeated
    /// link, so the trained profile is p_max ≈ 0.10 ± 0.033 and
    /// Δ ≈ 0.25 ± 0.25.
    fn normal_sets() -> Vec<Vec<Route>> {
        vec![
            // All links distinct: p_max = 1/15.
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
            // One repeated link (2-9): p_max = 2/15.
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

    /// A captured set: link 7-8 on every one of six routes with diverse
    /// exits (p_max = 6/28 ≈ 0.21, z ≈ 3.4; Δ = 5/6).
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

    #[test]
    fn lambda_is_monotone_decreasing_in_z() {
        let d = SamDetector::default();
        let l0 = d.lambda_of_z(0.0);
        let l3 = d.lambda_of_z(3.0);
        let l6 = d.lambda_of_z(6.0);
        assert!(l0 > l3 && l3 > l6);
        assert!((l3 - 0.5).abs() < 1e-9, "λ = 0.5 at the threshold");
        assert!(l0 > 0.9);
        assert!(l6 < 0.05);
    }

    #[test]
    fn attack_set_is_flagged_and_localized() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::default();
        let analysis = d.analyze(&attacked_set(), &profile);
        assert!(analysis.anomalous, "{analysis:?}");
        assert!(analysis.lambda < 0.5);
        assert_eq!(analysis.suspect_link, Some(Link::new(NodeId(7), NodeId(8))));
    }

    #[test]
    fn normal_set_passes() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::default();
        let live = vec![r(&[0, 1, 2, 9]), r(&[0, 5, 6, 9]), r(&[0, 3, 4, 9])];
        let analysis = d.analyze(&live, &profile);
        assert!(!analysis.anomalous, "{analysis:?}");
        assert!(analysis.lambda > 0.5);
    }

    #[test]
    fn untrained_profile_abstains() {
        let profile = NormalProfile::train(&[], 20);
        let d = SamDetector::default();
        let analysis = d.analyze(&attacked_set(), &profile);
        assert!(analysis.untrained);
        assert!(!analysis.anomalous);
        assert_eq!(analysis.lambda, 1.0);
        // The suspect link is still computed (it is just the mode).
        assert!(analysis.suspect_link.is_some());
    }

    #[test]
    fn too_few_routes_abstain() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let cfg = SamConfig {
            min_routes: 3,
            ..SamConfig::default()
        };
        let d = SamDetector::new(cfg);
        let analysis = d.analyze(&[r(&[0, 7, 9])], &profile);
        assert!(!analysis.anomalous);
        assert!(!analysis.untrained);
    }

    #[test]
    fn an_interior_repeated_link_is_the_suspect() {
        // Endpoint-adjacent links are excluded from localization, so the
        // interior repeated link 1-2 is the suspect.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::default();
        let routes = vec![r(&[0, 1, 2, 9]), r(&[0, 3, 1, 2, 9]), r(&[0, 4, 5, 9])];
        let analysis = d.analyze(&routes, &profile);
        assert_eq!(analysis.suspect_link, Some(Link::new(NodeId(1), NodeId(2))));
    }

    #[test]
    fn hop_feature_catches_shortened_routes_when_enabled() {
        // A "hidden wormhole" set: link frequencies look normal (all
        // distinct links) but routes are drastically shorter than the
        // trained 3-hop profile.
        let shortened = vec![
            r(&[0, 1, 9]),
            r(&[0, 3, 9]),
            r(&[0, 5, 9]),
            r(&[0, 10, 9]),
            r(&[0, 12, 9]),
        ];
        let profile = NormalProfile::train(&normal_sets(), 20);
        let plain = SamDetector::default();
        let plain_analysis = plain.analyze(&shortened, &profile);
        assert!(
            !plain_analysis.anomalous,
            "link features alone must not fire: {plain_analysis:?}"
        );
        let hops = SamDetector::new(SamConfig {
            use_hop_feature: true,
            ..SamConfig::default()
        });
        let hops_analysis = hops.analyze(&shortened, &profile);
        assert!(hops_analysis.z_hops_short > 3.0, "{hops_analysis:?}");
        assert!(hops_analysis.anomalous);
        assert!(hops_analysis.lambda < 0.5);
    }

    #[test]
    fn hop_feature_ignores_longer_routes() {
        // Longer-than-normal routes are not the wormhole direction.
        let longer = vec![
            r(&[0, 1, 2, 3, 4, 9]),
            r(&[0, 5, 6, 10, 11, 9]),
            r(&[0, 12, 13, 14, 15, 9]),
        ];
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::new(SamConfig {
            use_hop_feature: true,
            ..SamConfig::default()
        });
        let a = d.analyze(&longer, &profile);
        assert!(a.z_hops_short < 0.0, "{a:?}");
    }

    #[test]
    fn pvalue_separates_attack_from_normal() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::default();
        let attacked = d.analyze(&attacked_set(), &profile);
        let normal = d.analyze(
            &[r(&[0, 1, 2, 9]), r(&[0, 3, 4, 9]), r(&[0, 5, 6, 9])],
            &profile,
        );
        let pa = attacked.p_max_pvalue.unwrap();
        let pn = normal.p_max_pvalue.unwrap();
        assert!(pa < 0.01, "attack p-value {pa}");
        assert!(pa < pn, "attack {pa} vs normal {pn}");
    }

    #[test]
    fn pmf_evidence_is_reported_when_enabled() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let d = SamDetector::default();
        let analysis = d.analyze(&attacked_set(), &profile);
        let v = analysis.pmf_verdict.expect("pmf enabled by default");
        assert!(v.anomalous, "{v:?}");
        let d2 = SamDetector::new(SamConfig {
            use_pmf: false,
            ..SamConfig::default()
        });
        assert!(d2.analyze(&attacked_set(), &profile).pmf_verdict.is_none());
    }
}
