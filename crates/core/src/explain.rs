//! The verdict explainer: *why* a detector flagged a route set.
//!
//! A verdict is a couple of statistics and a soft decision λ — enough to
//! act on, useless to debug with. An [`Explanation`] opens the box: it
//! names the most-frequent link, lists every route crossing it, and
//! quantifies each route's **leave-one-out contribution** to the
//! statistics (how much `p_max`/`Δ` drop when the route is removed from
//! the set — the principled answer to "which routes made the detector
//! fire"). A route's hops are its `nodes`, so an explanation repeats
//! no hop list of its own: `hops` stays empty unless a causal flight
//! recording of the discovery backs the route, hop by hop, with
//! [`HopProvenance`] (the trace's event/cause ids and tunnel markings),
//! tying the statistical verdict all the way down to individual wormhole
//! tunnel traversals.
//!
//! The explanation is detector-agnostic: `detector` names which detector
//! produced the verdict and `evidence` carries that detector's
//! [`DetectorEvidence`] variant. The flat SAM statistics stay as
//! top-level fields (they describe the route set whichever detector
//! judged it). Explanation lines written before the detector redesign
//! lack `detector`, `score` and `evidence`; they decode as SAM's, with
//! score 0 and no evidence.

use crate::detect::{DetectorEvidence, DetectorVerdict};
use crate::stats::LinkStats;
use manet_routing::Route;
use serde::{Deserialize, Serialize};

/// One hop of a suspicious route as a flight recording reconstructed it:
/// the delivery that carried it, its causal parent, and whether it rode
/// a wormhole tunnel. This crate puts hops in an explanation only through
/// [`Explanation::set_provenance`]; lines written by older builds also
/// carry provenance-less hops (`tunneled` false, no ids), which still
/// decode.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HopProvenance {
    /// Sending node id.
    pub from: u32,
    /// Receiving node id.
    pub to: u32,
    /// Whether the hop rode a wormhole tunnel.
    pub tunneled: bool,
    /// The trace entry id evidencing this hop; `None` only on
    /// provenance-less hops of older lines.
    pub event: Option<u64>,
    /// That entry's causal parent id.
    pub cause: Option<u64>,
}

/// Why one route matters to the verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteExplanation {
    /// The route's node ids, source first.
    pub nodes: Vec<u32>,
    /// Hop-by-hop flight-recorder provenance, one entry per hop in
    /// order; empty unless [`Explanation::set_provenance`] filled it.
    /// Hop endpoints are read off `nodes`.
    pub hops: Vec<HopProvenance>,
    /// Tunnel crossings on the route's causal lineage.
    pub tunnel_hops: u64,
    /// Causal depth of the route's final delivery (0 = unreconstructed).
    pub lineage_depth: u64,
    /// `p_max(R) − p_max(R \ {route})`: how much this route alone
    /// inflates the top-link frequency.
    pub p_max_contribution: f64,
    /// `Δ(R) − Δ(R \ {route})`: ditto for the frequency gap.
    pub delta_contribution: f64,
}

/// The full explanation of one detection, serialized into flight
/// recordings, telemetry JSONL, and `results/*.json` reports (its
/// `kind` field discriminates the line).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Line discriminator, always `"explanation"`.
    pub kind: String,
    /// Name of the detector that produced the verdict (`"sam"`,
    /// `"zscore"`, `"geometric"`, `"ensemble"`); `"sam"` on explanations
    /// predating the detector redesign.
    #[serde(default = "sam_detector")]
    pub detector: String,
    /// The detector's normalized anomaly score (1.0 = decision
    /// boundary); 0 on explanations predating the detector redesign.
    #[serde(default)]
    pub score: f64,
    /// Detector-specific evidence, when the producing path supplied it.
    pub evidence: Option<DetectorEvidence>,
    /// The most-frequent (suspect) link, as `(lo, hi)` node ids.
    pub suspect_link: Option<(u32, u32)>,
    /// Occurrences of the suspect link (`n_max`).
    pub suspect_count: u64,
    /// Total link occurrences in the set (`N`).
    pub total_links: u64,
    /// The observed `p_max` (eq. 3).
    pub p_max: f64,
    /// The observed `Δ` (eq. 7).
    pub delta: f64,
    /// Z-score of `p_max` against the trained profile.
    pub z_p_max: f64,
    /// Z-score of `Δ`.
    pub z_delta: f64,
    /// The soft decision λ.
    pub lambda: f64,
    /// Step-1 verdict.
    pub anomalous: bool,
    /// Total tunnel traversals across the explained routes' lineages.
    pub tunnel_traversals: u64,
    /// The routes crossing the suspect link, each with its contribution.
    pub routes: Vec<RouteExplanation>,
}

/// The detector an explanation names when its line predates the
/// detector redesign: SAM was the only one.
fn sam_detector() -> String {
    "sam".to_string()
}

impl Explanation {
    /// Build the explanation of any detector's verdict over the route set
    /// it judged: list the routes crossing the suspect link with their
    /// leave-one-out contributions, read off one tabulation of the set and
    /// one ranking of its link counts (`LinkStats::leave_one_out`, then
    /// O(hops) per listed route). The top-level z-scores are filled from
    /// SAM evidence when the verdict carries it (they are SAM statistics;
    /// other detectors leave them 0). Every route's `hops` is left empty;
    /// callers holding a flight recording fill it in with
    /// [`Explanation::set_provenance`].
    pub fn from_verdict(routes: &[Route], verdict: &DetectorVerdict) -> Self {
        Explanation::from_verdict_with(routes, &LinkStats::from_routes(routes), verdict)
    }

    /// [`Explanation::from_verdict`] over `stats`, the link table of
    /// `routes` (`LinkStats::from_routes(routes)`) that the caller
    /// already holds, such as the one the detector read
    /// ([`DetectorInput::stats`](crate::detect::DetectorInput::stats)).
    pub fn from_verdict_with(
        routes: &[Route],
        stats: &LinkStats,
        verdict: &DetectorVerdict,
    ) -> Self {
        debug_assert_eq!(stats.route_count(), routes.len(), "the table of `routes`");
        let (z_p_max, z_delta) = match &verdict.evidence {
            DetectorEvidence::Sam {
                z_p_max, z_delta, ..
            } => (*z_p_max, *z_delta),
            _ => (0.0, 0.0),
        };
        let suspect = verdict.suspect_link;
        let leave_one_out = stats.leave_one_out();
        let explained = routes
            .iter()
            .filter(|route| suspect.is_some_and(|l| route.contains_link(l)))
            .map(|route| {
                let (loo_p_max, loo_delta) = leave_one_out(route);
                RouteExplanation {
                    nodes: route.nodes().iter().map(|n| n.0).collect(),
                    hops: Vec::new(),
                    tunnel_hops: 0,
                    lineage_depth: 0,
                    p_max_contribution: verdict.p_max - loo_p_max,
                    delta_contribution: verdict.delta - loo_delta,
                }
            })
            .collect();
        Explanation {
            kind: "explanation".to_string(),
            detector: verdict.detector.clone(),
            score: verdict.score,
            evidence: Some(verdict.evidence.clone()),
            suspect_link: suspect.map(|l| (l.lo().0, l.hi().0)),
            suspect_count: suspect.map(|l| u64::from(stats.count(l))).unwrap_or(0),
            total_links: stats.total_links(),
            p_max: verdict.p_max,
            delta: verdict.delta,
            z_p_max,
            z_delta,
            lambda: verdict.lambda,
            anomalous: verdict.anomalous,
            tunnel_traversals: 0,
            routes: explained,
        }
    }

    /// Fill route `idx`'s hop provenance from a reconstructed lineage and
    /// refresh the tunnel totals. `hops` must cover the route's hops in
    /// order.
    pub fn set_provenance(&mut self, idx: usize, hops: Vec<HopProvenance>, lineage_depth: u64) {
        let route = &mut self.routes[idx];
        route.tunnel_hops = hops.iter().filter(|h| h.tunneled).count() as u64;
        route.hops = hops;
        route.lineage_depth = lineage_depth;
        self.tunnel_traversals = self.routes.iter().map(|r| r.tunnel_hops).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::verdict_from_sam;
    use crate::detector::SamDetector;
    use crate::profile::NormalProfile;
    use manet_sim::NodeId;

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
            ],
            vec![
                r(&[0, 1, 4, 9]),
                r(&[0, 3, 6, 9]),
                r(&[0, 5, 2, 9]),
                r(&[0, 10, 13, 9]),
            ],
        ]
    }

    fn attacked_set() -> Vec<Route> {
        vec![
            r(&[0, 7, 8, 9]),
            r(&[0, 1, 7, 8, 2, 9]),
            r(&[0, 3, 7, 8, 4, 9]),
            r(&[0, 5, 6, 9]), // one honest straggler
        ]
    }

    /// SAM's explanation of `routes`: the verdict of its analysis,
    /// explained.
    fn sam_explanation(routes: &[Route], profile: &NormalProfile) -> Explanation {
        let d = SamDetector::default();
        let verdict = verdict_from_sam(d.config(), &d.analyze(routes, profile));
        Explanation::from_verdict(routes, &verdict)
    }

    fn explain() -> (Vec<Route>, Explanation) {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes = attacked_set();
        let ex = sam_explanation(&routes, &profile);
        (routes, ex)
    }

    #[test]
    fn explanation_names_the_suspect_and_its_routes() {
        let (_, ex) = explain();
        assert_eq!(ex.suspect_link, Some((7, 8)));
        assert_eq!(ex.suspect_count, 3);
        assert_eq!(ex.routes.len(), 3, "only suspect-crossing routes listed");
        assert!(ex.p_max > 0.0 && ex.delta > 0.0);
        for route in &ex.routes {
            assert!(route.nodes.windows(2).any(|w| w == [7, 8]));
            assert!(route.hops.is_empty(), "no recording, no hop list");
            assert!(
                route.p_max_contribution > 0.0,
                "removing a suspect route must lower p_max: {route:?}"
            );
        }
    }

    #[test]
    fn provenance_fills_in_and_totals_tunnels() {
        let (_, mut ex) = explain();
        let hops: Vec<HopProvenance> = ex.routes[0]
            .nodes
            .windows(2)
            .enumerate()
            .map(|(i, w)| HopProvenance {
                from: w[0],
                to: w[1],
                tunneled: w == [7, 8],
                event: Some(i as u64 + 10),
                cause: (i > 0).then(|| i as u64 + 9),
            })
            .collect();
        ex.set_provenance(0, hops, 4);
        assert_eq!(ex.routes[0].tunnel_hops, 1);
        assert_eq!(ex.routes[0].lineage_depth, 4);
        assert_eq!(ex.tunnel_traversals, 1);
    }

    #[test]
    fn zero_routes_explains_without_panicking() {
        // A discovery that found nothing still gets a (vacuous) verdict.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes: Vec<Route> = Vec::new();
        let ex = sam_explanation(&routes, &profile);
        assert_eq!(ex.suspect_link, None);
        assert_eq!(ex.suspect_count, 0);
        assert_eq!(ex.total_links, 0);
        assert_eq!(ex.p_max, 0.0);
        assert_eq!(ex.delta, 0.0);
        assert!(!ex.anomalous);
        assert!(ex.routes.is_empty());
    }

    #[test]
    fn tied_top_links_break_deterministically_with_zero_delta() {
        // Two equally frequent links — e.g. a second wormhole pair as
        // strong as the first. Δ must be exactly 0 and the suspect must
        // be the normalized-order smaller link, every time.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes = vec![
            r(&[0, 7, 8, 9]),
            r(&[0, 1, 7, 8, 2, 9]),
            r(&[0, 11, 12, 9]),
            r(&[0, 3, 11, 12, 4, 9]),
        ];
        let ex = sam_explanation(&routes, &profile);
        assert_eq!(ex.delta, 0.0, "a perfect tie has no frequency gap");
        assert_eq!(ex.suspect_link, Some((7, 8)), "tie broken by link order");
        assert_eq!(ex.suspect_count, 2);
        // Re-running is byte-stable: same suspect, same listed routes.
        let again = sam_explanation(&routes, &profile);
        assert_eq!(again, ex);
    }

    #[test]
    fn single_route_set_yields_empty_leave_one_out_rest() {
        // One route only: the leave-one-out complement is the empty set,
        // which must not panic and must attribute everything to that
        // route.
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes = vec![r(&[0, 7, 8, 9])];
        let mut ex = sam_explanation(&routes, &profile);
        assert_eq!(ex.routes.len(), 1);
        let only = &ex.routes[0];
        assert_eq!(only.p_max_contribution, ex.p_max);
        assert_eq!(only.delta_contribution, ex.delta);
        assert!(only.hops.is_empty(), "no recording, no hop list");
        let hops: Vec<HopProvenance> = only
            .nodes
            .windows(2)
            .map(|w| HopProvenance {
                from: w[0],
                to: w[1],
                tunneled: w == [7, 8],
                event: Some(u64::from(w[1])),
                cause: Some(u64::from(w[0])),
            })
            .collect();
        ex.set_provenance(0, hops.clone(), 3);
        assert_eq!(ex.routes[0].hops, hops, "the recording fills it");
    }

    #[test]
    fn explanation_round_trips_through_json() {
        let (_, ex) = explain();
        let line = serde_json::to_string(&ex).unwrap();
        let back: Explanation = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ex);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            v.field("kind").and_then(serde::Value::as_str),
            Some("explanation")
        );
        assert_eq!(
            v.field("detector").and_then(serde::Value::as_str),
            Some("sam")
        );
    }

    #[test]
    fn from_verdict_carries_the_detector_name_score_and_evidence() {
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes = attacked_set();
        let d = SamDetector::default();
        let analysis = d.analyze(&routes, &profile);
        let verdict = verdict_from_sam(d.config(), &analysis);
        let ex = Explanation::from_verdict(&routes, &verdict);
        assert_eq!(ex.detector, "sam");
        assert_eq!(ex.score, verdict.score);
        assert!(ex.score > 1.0, "attacked set must sit past the boundary");
        assert_eq!(ex.evidence.as_ref(), Some(&verdict.evidence));
        // The top-level SAM statistics are the analysis's own.
        assert_eq!(ex.z_p_max, analysis.z_p_max);
        assert_eq!(ex.z_delta, analysis.z_delta);
        assert_eq!(ex.lambda, analysis.lambda);
        assert_eq!(ex.p_max, analysis.features.p_max);
        assert_eq!(ex.suspect_link, Some((7, 8)));
    }

    #[test]
    fn from_verdict_on_a_non_sam_detector_leaves_sam_z_scores_zero() {
        use crate::detect::{Detector, DetectorInput, ZScoreNeighborDetector};
        let profile = NormalProfile::train(&normal_sets(), 20);
        let routes = attacked_set();
        let verdict = ZScoreNeighborDetector.detect(&DetectorInput::new(&routes, &profile));
        let ex = Explanation::from_verdict(&routes, &verdict);
        assert_eq!(ex.detector, "zscore");
        assert_eq!(ex.z_p_max, 0.0);
        assert_eq!(ex.z_delta, 0.0);
        assert!(matches!(
            ex.evidence,
            Some(DetectorEvidence::NeighborZ { .. })
        ));
        // The suspect-crossing route listing works off the verdict's link.
        assert_eq!(ex.suspect_link, Some((7, 8)));
        assert_eq!(ex.routes.len(), 3);
    }
}
