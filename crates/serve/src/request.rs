//! Request/response types crossing the service boundary.

use manet_routing::Route;
use manet_sim::{Link, NodeId};
use sam::{AttackReport, DetectionOutcome, DetectorOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Identity of the deployment a route set was observed in.
///
/// The paper trains one normal-condition profile per "network topology,
/// transmission range and routing algorithm employed in the system"; this
/// key is exactly that triple (range being part of the topology family
/// string). Requests with equal keys share one cached
/// [`NormalProfile`](sam::NormalProfile).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ProfileKey {
    /// Topology family + parameters, e.g. `"uniform6x6"` or `"cluster1"`.
    pub topology: String,
    /// Routing protocol identifier, e.g. `"mr"` or `"dsr"`.
    pub protocol: String,
}

impl ProfileKey {
    /// Build a key from displayable parts.
    pub fn new(topology: impl Into<String>, protocol: impl Into<String>) -> Self {
        ProfileKey {
            topology: topology.into(),
            protocol: protocol.into(),
        }
    }
}

impl fmt::Display for ProfileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.topology, self.protocol)
    }
}

/// One node's detection request: the route set of one discovery plus the
/// deployment it came from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetectionRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Deployment the routes were discovered in (profile cache key).
    pub key: ProfileKey,
    /// The routes collected at the destination by one multi-path
    /// discovery.
    pub routes: Vec<Route>,
    /// ACK ratio the requesting node observed when probing suspicious
    /// paths (step 2 of the paper's procedure), if it probed. `None`
    /// means probes all succeeded — the pure-relay wormhole case, where
    /// the statistics alone must carry the verdict.
    pub probe_ack_ratio: Option<f64>,
    /// Which registered detector should judge the routes (`"sam"`,
    /// `"zscore"`, `"geometric"`, `"ensemble"`). `None` selects `"sam"`
    /// — exactly the pre-registry behaviour. Unknown names are refused
    /// with [`SubmitError::UnknownDetector`].
    pub detector: Option<String>,
}

/// Compact verdict derived from the procedure outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Step-1 anomaly decision.
    pub anomalous: bool,
    /// Step-3 confirmation (probes failed or statistics conclusive).
    pub confirmed: bool,
    /// The soft decision λ (0 = certainly attacked, 1 = certainly
    /// normal).
    pub lambda: f64,
    /// `p_max` of the route set.
    pub p_max: f64,
    /// `Δ` of the route set.
    pub delta: f64,
    /// The localized attack link, when one was singled out.
    pub suspect_link: Option<(NodeId, NodeId)>,
    /// Nodes to isolate, when confirmed.
    pub isolate: Vec<NodeId>,
}

impl Verdict {
    /// Project a SAM procedure outcome down to the wire verdict, the same
    /// way [`Verdict::from_detector_outcome`] does. Kept for the
    /// benchmark's in-process judge; the service itself runs
    /// `run_procedure`.
    pub fn from_outcome(outcome: &DetectionOutcome) -> Self {
        let (a, report) = match outcome {
            DetectionOutcome::Normal { .. } => return Verdict::normal(),
            DetectionOutcome::SuspiciousUnconfirmed { analysis, .. } => (analysis, None),
            DetectionOutcome::Confirmed { report, analysis } => (analysis, Some(report)),
        };
        Verdict::flagged(
            a.lambda,
            a.features.p_max,
            a.features.delta,
            a.suspect_link,
            report,
        )
    }

    /// Project a procedure outcome down to the wire verdict. A Normal
    /// outcome zeroes the statistics.
    pub fn from_detector_outcome(outcome: &DetectorOutcome) -> Self {
        let (v, report) = match outcome {
            DetectorOutcome::Normal { .. } => return Verdict::normal(),
            DetectorOutcome::SuspiciousUnconfirmed { verdict, .. } => (verdict, None),
            DetectorOutcome::Confirmed { verdict, report } => (verdict, Some(report)),
        };
        Verdict::flagged(v.lambda, v.p_max, v.delta, v.suspect_link, report)
    }

    /// The verdict of a Normal outcome: nothing flagged, statistics zeroed.
    fn normal() -> Self {
        Verdict {
            anomalous: false,
            confirmed: false,
            lambda: 1.0,
            p_max: 0.0,
            delta: 0.0,
            suspect_link: None,
            isolate: Vec::new(),
        }
    }

    /// The verdict of an anomalous outcome (the procedure's only other
    /// kind); `report` is present when step 3 confirmed it.
    fn flagged(
        lambda: f64,
        p_max: f64,
        delta: f64,
        suspect_link: Option<Link>,
        report: Option<&AttackReport>,
    ) -> Self {
        Verdict {
            anomalous: true,
            confirmed: report.is_some(),
            lambda,
            p_max,
            delta,
            suspect_link: suspect_link.map(|l| l.endpoints()),
            isolate: report.map(|r| r.isolate.clone()).unwrap_or_default(),
        }
    }
}

/// Where one request's latency went, stage by stage, on the monotonic
/// request clock.
///
/// The service fills `compute_us` (detection + explanation) and leaves
/// `queue_wait_us` at 0: [`serve`](crate::service::DetectionService::serve)
/// runs the request on its caller's thread. `serialize_us` is 0 until a
/// transport that actually serializes (the gateway) measures its
/// encode-and-write step. Diagnostic only — excluded from the
/// determinism contract, like `profile_cache_hit`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Time spent waiting before compute, microseconds: always 0, since
    /// nothing queues. Kept on the wire and in the stage ladder so
    /// readers of either keep their shape.
    pub queue_wait_us: u64,
    /// Time spent producing the verdict (profile lookup, procedure,
    /// explanation), microseconds.
    pub compute_us: u64,
    /// Time spent encoding the response for the wire, microseconds
    /// (0 for in-process callers — nothing was serialized).
    pub serialize_us: u64,
}

/// A duration in whole microseconds, saturating — the one conversion
/// behind every `*_us` figure the serving tier records.
pub fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// The service's answer to one [`DetectionRequest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DetectionResponse {
    /// Correlation id from the request.
    pub id: u64,
    /// Name of the detector that judged the routes (`"sam"` when the
    /// request named none).
    pub detector: String,
    /// The detector's normalized anomaly score (1.0 = the decision
    /// boundary). One rule is SAM's alone: a `"sam"` verdict that is not
    /// anomalous reports 0, mirroring the zeroed verdict statistics. SAM
    /// clients from before the detector registry have always seen that
    /// 0, and the benchmark's judge checks it. The explanation's own
    /// `score` is always the real one.
    pub score: f64,
    /// The verdict. Deterministic in the request contents — independent
    /// of the calling thread, how many threads call, and arrival order.
    pub verdict: Verdict,
    /// Whether the profile came from the cache (`true`) or was trained
    /// for this request (`false`). Diagnostic; excluded from the
    /// determinism contract.
    pub profile_cache_hit: bool,
    /// Per-stage latency breakdown on the request clock. Diagnostic;
    /// excluded from the determinism contract.
    pub timing: StageTiming,
    /// The verdict explanation (suspect link, per-route leave-one-out
    /// contributions), when the service runs with
    /// [`ServiceConfig::explain`](crate::service::ServiceConfig) on.
    /// Deterministic in the request contents, like the verdict.
    pub explanation: Option<sam::Explanation>,
}

/// Why a request was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// `queue_capacity` requests were already in compute; the request
    /// was shed. The caller sees the count it collided with and may
    /// retry later.
    Rejected {
        /// Requests in compute at rejection time.
        queue_depth: usize,
    },
    /// The request named a detector the service's registry does not
    /// hold. Refused at the door — it takes no place in compute.
    UnknownDetector {
        /// The name the request asked for.
        name: String,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Rejected { queue_depth } => {
                write!(f, "request shed: {queue_depth} requests in compute")
            }
            SubmitError::UnknownDetector { name } => {
                write!(
                    f,
                    "unknown detector `{name}` (known: {})",
                    sam::DETECTOR_NAMES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}
