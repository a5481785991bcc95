//! The three-step wormhole detection procedure (paper Fig. 3).
//!
//! 1. **Statistical analysis** of the routes from one discovery. No
//!    anomaly → choose several (maximally disjoint) paths to feed back to
//!    the source.
//! 2. **Probe test** of the suspicious paths: send test data packets and
//!    wait for ACKs. This also catches the DoS attacker that "refuses to
//!    forward data packets but behaves normally during routing".
//! 3. **Confirm & report**: identify the malicious nodes as the endpoints
//!    of the most frequent link, and emit the report that feeds the IDS
//!    response module (alert the security authority, notify the source and
//!    the attackers' neighbours to isolate them).
//!
//! The probe transport is abstracted as [`ProbeTransport`] so the
//! procedure is testable without a simulator (closures implement it) and
//! runs unchanged over a live discovery [`Session`], which implements it
//! too.

use crate::detect::{conclude, verdict_from_sam, DetectorOutcome};
use crate::detector::{SamAnalysis, SamDetector};
use crate::profile::NormalProfile;
use manet_routing::{ProbeOutcome, Route, RouterAccess, RoutingMsg, Session};
use manet_sim::{Behavior, Link, NodeId, SimDuration};
use serde::{Deserialize, Serialize};

/// Ability to send probe packets along a route and observe the ACKs.
pub trait ProbeTransport {
    /// Send `count` probes along `route`; return the outcome.
    fn probe(&mut self, route: &Route, count: u32) -> ProbeOutcome;
}

/// Blanket impl so closures can serve as transports in tests.
impl<F> ProbeTransport for F
where
    F: FnMut(&Route, u32) -> ProbeOutcome,
{
    fn probe(&mut self, route: &Route, count: u32) -> ProbeOutcome {
        self(route, count)
    }
}

/// Probes over the live session that just ran the discovery: they leave
/// the route's source 10 ms apart, and an ACK counts if it is back within
/// 500 ms of the last send.
impl<B: Behavior<Msg = RoutingMsg> + RouterAccess> ProbeTransport for Session<B> {
    fn probe(&mut self, route: &Route, count: u32) -> ProbeOutcome {
        Session::probe(
            self,
            route,
            count,
            SimDuration::from_millis(10),
            SimDuration::from_millis(500),
        )
    }
}

/// Procedure configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProcedureConfig {
    /// Probes per suspicious path in step 2.
    pub probes_per_path: u32,
    /// Maximum number of suspicious paths to test.
    pub max_paths_tested: usize,
    /// ACK ratio below which a tested path counts as failed.
    pub ack_threshold: f64,
    /// λ below which the statistical evidence alone confirms the attack
    /// (a pure-relay wormhole passes the probe test — the paper's
    /// statistics, not the probes, are what expose it).
    pub lambda_confirm: f64,
    /// Number of routes fed back to the source when everything is normal
    /// ("exactly how many routes will be chosen is a design parameter").
    pub routes_to_source: usize,
}

impl Default for ProcedureConfig {
    fn default() -> Self {
        ProcedureConfig {
            probes_per_path: 5,
            max_paths_tested: 3,
            ack_threshold: 0.6,
            lambda_confirm: 0.15,
            routes_to_source: 3,
        }
    }
}

/// Attack report emitted on confirmation (step 3) — the payload of the
/// "report to security authority and/or notify the source and the
/// neighbours of the attackers" signalling.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackReport {
    /// The attack link.
    pub suspect_link: (NodeId, NodeId),
    /// The soft decision at detection time.
    pub lambda: f64,
    /// `p_max` of the offending route set.
    pub p_max: f64,
    /// `Δ` of the offending route set.
    pub delta: f64,
    /// Mean ACK ratio over the tested suspicious paths (1.0 if none were
    /// testable).
    pub probe_ack_ratio: f64,
    /// How many suspicious paths were probe-tested.
    pub paths_tested: usize,
    /// Nodes to notify for isolation: the suspects themselves.
    pub isolate: Vec<NodeId>,
}

/// Outcome of one run of [`Procedure::execute`]: the
/// [`DetectorOutcome`] of the shared steps 2–3, seen through SAM's
/// analysis. Callers that read the analysis use this view (the IDS agent
/// adapts its profile from `analysis.features`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum DetectionOutcome {
    /// No anomaly; these (maximally disjoint) routes go back to the source.
    Normal {
        /// The routes selected for use.
        selected_routes: Vec<Route>,
    },
    /// Step 1 fired but step 2/3 could not confirm: the paths pass probes
    /// and the statistics are not conclusive. The routes avoiding the
    /// suspect link are preferred.
    SuspiciousUnconfirmed {
        /// The step-1 analysis.
        analysis: SamAnalysis,
        /// Routes avoiding the suspect link, if any exist.
        selected_routes: Vec<Route>,
    },
    /// Attack confirmed; alert raised.
    Confirmed {
        /// The full report for the response module.
        report: AttackReport,
        /// The step-1 analysis.
        analysis: SamAnalysis,
    },
}

impl DetectionOutcome {
    /// Whether the outcome is a confirmed attack.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, DetectionOutcome::Confirmed { .. })
    }
}

/// The three-step procedure with SAM as step 1, returning the SAM-typed
/// [`DetectionOutcome`].
#[derive(Clone, Debug, Default)]
pub struct Procedure {
    detector: SamDetector,
    cfg: ProcedureConfig,
}

impl Procedure {
    /// Procedure with explicit detector and configuration.
    pub fn new(detector: SamDetector, cfg: ProcedureConfig) -> Self {
        Procedure { detector, cfg }
    }

    /// The detector used in step 1.
    pub fn detector(&self) -> &SamDetector {
        &self.detector
    }

    /// Execute the procedure over the route set of one discovery: SAM's
    /// analysis as step 1, then the steps 2–3
    /// [`run_procedure`](crate::detect::run_procedure) runs for every
    /// detector. The outcome keeps the analysis on the anomalous
    /// variants. An anomalous analysis with no suspect link is reported
    /// unconfirmed.
    pub fn execute<T: ProbeTransport>(
        &self,
        routes: &[Route],
        profile: &NormalProfile,
        transport: &mut T,
    ) -> DetectionOutcome {
        let analysis = self.detector.analyze(routes, profile);
        let verdict = verdict_from_sam(self.detector.config(), &analysis);
        match conclude(verdict, routes, &self.cfg, transport) {
            DetectorOutcome::Normal {
                selected_routes, ..
            } => DetectionOutcome::Normal { selected_routes },
            DetectorOutcome::SuspiciousUnconfirmed {
                selected_routes, ..
            } => DetectionOutcome::SuspiciousUnconfirmed {
                analysis,
                selected_routes,
            },
            DetectorOutcome::Confirmed { report, .. } => {
                DetectionOutcome::Confirmed { report, analysis }
            }
        }
    }
}

/// A transport whose probes always succeed (for tests and for modelling a
/// network with no data-plane attacker).
pub fn all_ack_transport() -> impl ProbeTransport {
    |_: &Route, count: u32| ProbeOutcome {
        sent: count,
        acked: count,
    }
}

/// A transport that drops everything crossing `link` (blackhole behind a
/// wormhole).
pub fn blackhole_transport(link: Link) -> impl ProbeTransport {
    move |route: &Route, count: u32| {
        let crosses = route.contains_link(link);
        ProbeOutcome {
            sent: count,
            acked: if crosses { 0 } else { count },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{SamConfig, SamDetector};
    use manet_sim::NodeId;

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    fn trained_profile() -> NormalProfile {
        let sets = vec![
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
        ];
        NormalProfile::train(&sets, 20)
    }

    /// Six captured routes funnelling into 8-9: p_max = 6/23 ≈ 0.26
    /// (z ≈ 4.8, λ ≈ 0.06) and the paper's tie case Δ = 0 (7-8 and 8-9
    /// both appear six times).
    fn attacked_routes() -> Vec<Route> {
        vec![
            r(&[0, 7, 8, 9]),
            r(&[0, 1, 7, 8, 9]),
            r(&[0, 2, 7, 8, 9]),
            r(&[0, 3, 7, 8, 9]),
            r(&[0, 10, 7, 8, 9]),
            r(&[0, 12, 7, 8, 9]),
        ]
    }

    #[test]
    fn normal_routes_come_back_selected() {
        let p = trained_profile();
        let proc = Procedure::default();
        let routes = vec![r(&[0, 1, 2, 9]), r(&[0, 3, 4, 9]), r(&[0, 5, 6, 9])];
        let mut t = all_ack_transport();
        match proc.execute(&routes, &p, &mut t) {
            DetectionOutcome::Normal { selected_routes } => {
                assert!(!selected_routes.is_empty());
                assert!(selected_routes.len() <= 3);
            }
            other => panic!("expected Normal, got {other:?}"),
        }
    }

    #[test]
    fn blackholing_wormhole_is_confirmed_with_failed_probes() {
        let p = trained_profile();
        let proc = Procedure::default();
        let routes = attacked_routes();
        let link = Link::new(NodeId(7), NodeId(8));
        let mut t = blackhole_transport(link);
        let outcome = proc.execute(&routes, &p, &mut t);
        let DetectionOutcome::Confirmed { report, analysis } = outcome else {
            panic!("expected Confirmed");
        };
        assert_eq!(report.suspect_link, (NodeId(7), NodeId(8)));
        assert_eq!(report.isolate, vec![NodeId(7), NodeId(8)]);
        assert!(report.probe_ack_ratio < 0.5);
        assert!(report.paths_tested > 0);
        assert!(analysis.anomalous);
    }

    #[test]
    fn pure_relay_wormhole_confirmed_by_statistics_alone() {
        // All probes ACK (the wormhole relays data), but λ is tiny.
        let p = trained_profile();
        let proc = Procedure::default();
        let routes = attacked_routes();
        let mut t = all_ack_transport();
        let outcome = proc.execute(&routes, &p, &mut t);
        assert!(
            outcome.is_confirmed(),
            "statistics alone should confirm: {outcome:?}"
        );
    }

    #[test]
    fn borderline_anomaly_with_good_probes_is_unconfirmed() {
        let p = trained_profile();
        // Loosen the statistical confirmation so only probes could confirm.
        let cfg = ProcedureConfig {
            lambda_confirm: 0.0,
            ..ProcedureConfig::default()
        };
        let proc = Procedure::new(SamDetector::default(), cfg);
        let routes = attacked_routes();
        let mut t = all_ack_transport();
        match proc.execute(&routes, &p, &mut t) {
            DetectionOutcome::SuspiciousUnconfirmed {
                selected_routes, ..
            } => {
                // Every route crosses the suspect link → nothing safe.
                assert!(selected_routes.is_empty());
            }
            other => panic!("expected SuspiciousUnconfirmed, got {other:?}"),
        }
    }

    #[test]
    fn anomalous_analysis_without_a_suspect_link_is_unconfirmed() {
        // A route set with no links has no suspect; a threshold below any
        // z-score flags it anyway, with λ ≈ 0 (statistically conclusive).
        let p = trained_profile();
        let sam = SamConfig {
            z_threshold: -1000.0,
            min_routes: 0,
            ..SamConfig::default()
        };
        let proc = Procedure::new(SamDetector::new(sam), ProcedureConfig::default());
        let mut t = all_ack_transport();
        match proc.execute(&[], &p, &mut t) {
            DetectionOutcome::SuspiciousUnconfirmed {
                analysis,
                selected_routes,
            } => {
                assert!(analysis.anomalous && analysis.suspect_link.is_none());
                assert!(selected_routes.is_empty());
            }
            other => panic!("expected SuspiciousUnconfirmed, got {other:?}"),
        }
    }

    #[test]
    fn probe_count_and_path_cap_are_respected() {
        let p = trained_profile();
        let cfg = ProcedureConfig {
            probes_per_path: 7,
            max_paths_tested: 2,
            ..ProcedureConfig::default()
        };
        let proc = Procedure::new(SamDetector::default(), cfg);
        let routes = attacked_routes();
        let mut calls: Vec<u32> = Vec::new();
        {
            let mut t = |_route: &Route, count: u32| {
                calls.push(count);
                ProbeOutcome {
                    sent: count,
                    acked: 0,
                }
            };
            let outcome = proc.execute(&routes, &p, &mut t);
            assert!(outcome.is_confirmed());
        }
        assert_eq!(calls, vec![7, 7], "2 paths × 7 probes");
    }
}
