//! # sam — Statistical Analysis of Multi-path routing
//!
//! The primary contribution of *"Wormhole Attacks Detection in Wireless Ad
//! Hoc Networks: A Statistical Analysis Approach"* (Song, Qian, Li, 2005):
//! detect wormhole attacks — and localize the attacker pair — using
//! **nothing but the route set one multi-path route discovery already
//! produces**. No clock synchronization, no GPS, no directional antennas,
//! no protocol changes.
//!
//! The insight: a wormhole tunnel is so attractive to route requests that
//! the tunneled link appears in almost every discovered route. Two scalar
//! features expose it:
//!
//! * [`p_max`](stats::LinkStats::p_max) — the maximum link relative
//!   frequency (paper eq. 3), and
//! * [`Δ`](stats::LinkStats::delta) — the normalized gap between the
//!   most- and second-most-frequent links (eq. 7),
//!
//! plus, as an alternative, the [PMF of link relative
//! frequencies](pmf::Pmf) compared against a trained profile (Fig. 5).
//!
//! Modules, mirroring the paper's architecture:
//!
//! * [`stats`] — eq. (1)–(7) over a route set;
//! * [`pmf`] — the PMF-profile alternative;
//! * [`profile`] — normal-condition training + the eq. (8)–(9)
//!   forgetting-factor update;
//! * [`detector`] — step 1: anomaly decision + soft decision λ;
//! * [`procedure`] — the three-step procedure of Fig. 3 (analysis →
//!   probe test → confirm/localize/report);
//! * [`ids`] — the agent model of Fig. 4 (local data collection, local
//!   detection, response);
//! * [`collaboration`] — fusion of many agents' reports into global
//!   verdicts ("global coordinated detection").
//!
//! ```
//! use manet_routing::Route;
//! use manet_sim::NodeId;
//! use sam::prelude::*;
//!
//! let n = |i| NodeId(i);
//! let route = |ids: &[u32]| Route::new(ids.iter().map(|&i| n(i)).collect()).unwrap();
//!
//! // Under a wormhole the link 7-8 rides on every route …
//! let captured = vec![
//!     route(&[0, 7, 8, 9]),
//!     route(&[0, 1, 7, 8, 2, 9]),
//!     route(&[0, 3, 7, 8, 4, 9]),
//! ];
//! let stats = LinkStats::from_routes(&captured);
//! // … so SAM fingers it as the attack link.
//! assert_eq!(stats.suspect_link().unwrap().endpoints(), (n(7), n(8)));
//! assert!(stats.p_max() > 0.2);
//! assert!(stats.delta() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collaboration;
pub mod detect;
pub mod detector;
pub mod explain;
pub mod hypothesis;
pub mod ids;
pub mod linkmap;
pub mod pmf;
pub mod procedure;
pub mod profile;
pub mod stats;

/// One-stop imports for SAM users.
pub mod prelude {
    pub use crate::collaboration::{GlobalCoordinator, LinkVerdict, NodeVerdict};
    pub use crate::detect::{
        run_procedure, verdict_from_sam, Detector, DetectorEvidence, DetectorInput,
        DetectorOutcome, DetectorRegistry, DetectorVerdict, DetectorVote, EnsembleDetector,
        GeometricDetector, TopologyObservations, ZScoreNeighborDetector, DETECTOR_NAMES,
    };
    pub use crate::detector::{SamAnalysis, SamConfig, SamDetector, CALIBRATED_Z_THRESHOLD};
    pub use crate::explain::{Explanation, HopProvenance, RouteExplanation};
    pub use crate::hypothesis::{mann_whitney_u, normal_cdf, MannWhitney};
    pub use crate::ids::{AgentAction, AgentConfig, AgentPhase, IdsAgent, ResponseMsg};
    pub use crate::linkmap::LinkMap;
    pub use crate::pmf::{Pmf, PmfProfile, PmfVerdict};
    pub use crate::procedure::{
        all_ack_transport, blackhole_transport, AttackReport, DetectionOutcome, ProbeTransport,
        Procedure, ProcedureConfig,
    };
    pub use crate::profile::{forgetting_update, FeatureStat, NormalProfile, STD_FLOOR};
    pub use crate::stats::{common_endpoints, LinkStats, RouteSetFeatures};
}

pub use prelude::*;
