//! The fault-plan schema: what can go wrong, when, and with what
//! probability.
//!
//! ## JSON schema
//!
//! ```json
//! {
//!   "name": "burst20",
//!   "loss_bursts": [
//!     {"start_us": 0, "end_us": 18446744073709551615, "prob": 0.2,
//!      "region": {"x": 500.0, "y": 300.0, "radius": 250.0}}
//!   ],
//!   "churn": [
//!     {"at_us": 5000000, "node": 17, "kind": "Crash"},
//!     {"at_us": 20000000, "node": 17, "kind": "Recover"}
//!   ],
//!   "jitter": {"dup_prob": 0.05, "dup_delay_us": 40,
//!              "reorder_prob": 0.05, "reorder_delay_us": 200}
//! }
//! ```
//!
//! `end_us = u64::MAX` means the burst never ends; `region: null` makes
//! it network-wide. All fields are plain data: a plan carries no RNG
//! state, so the same plan composes deterministically onto any seed.

use manet_sim::Pos;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A circular region of the deployment area (metres, like `Pos`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Centre x coordinate.
    pub x: f64,
    /// Centre y coordinate.
    pub y: f64,
    /// Radius.
    pub radius: f64,
}

impl Region {
    /// Whether `p` lies inside (or on) the disc.
    pub fn contains(&self, p: Pos) -> bool {
        Pos::new(self.x, self.y).dist(p) <= self.radius
    }
}

/// A time-windowed loss field: while active, each over-the-air delivery
/// whose **receiver** sits inside `region` (everywhere when `None`) is
/// independently dropped with probability `prob`. The simulator's only
/// channel-loss model: [`FaultPlan::constant_loss`] is the uniform case.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LossBurst {
    /// Activation time (absolute, µs).
    pub start_us: u64,
    /// Deactivation time (absolute, µs); `u64::MAX` = never ends.
    pub end_us: u64,
    /// Per-delivery drop probability while active.
    pub prob: f64,
    /// Spatial scope; `None` covers the whole network.
    pub region: Option<Region>,
}

impl LossBurst {
    /// A network-wide burst active for the whole run.
    pub fn always(prob: f64) -> Self {
        LossBurst {
            start_us: 0,
            end_us: u64::MAX,
            prob,
            region: None,
        }
    }

    /// A network-wide burst active over `[start_us, end_us)`.
    pub fn window(start_us: u64, end_us: u64, prob: f64) -> Self {
        LossBurst {
            start_us,
            end_us,
            prob,
            region: None,
        }
    }

    /// Confine this burst to a circular region.
    pub fn in_region(mut self, x: f64, y: f64, radius: f64) -> Self {
        self.region = Some(Region { x, y, radius });
        self
    }
}

/// What a churn event does to its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// Radio dies abruptly.
    Crash,
    /// A crashed radio comes back.
    Recover,
    /// The node departs the network (same effect as a crash; named
    /// separately so plans read as intended).
    Leave,
    /// The node joins: it is **absent from t=0** until this fires (when
    /// this is the node's earliest churn event).
    Join,
}

impl ChurnKind {
    /// Whether the event turns the node's radio off.
    pub fn goes_down(self) -> bool {
        matches!(self, ChurnKind::Crash | ChurnKind::Leave)
    }
}

/// One membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When it happens (absolute, µs).
    pub at_us: u64,
    /// The affected node id.
    pub node: u32,
    /// What happens.
    pub kind: ChurnKind,
}

/// Packet duplication/reordering jitter, applied to every over-the-air
/// delivery while the plan is installed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JitterSpec {
    /// Probability a delivery is duplicated.
    pub dup_prob: f64,
    /// How far after the original the duplicate arrives (µs).
    pub dup_delay_us: u64,
    /// Probability a delivery is delayed (reordering: a delayed copy can
    /// arrive after packets sent later).
    pub reorder_prob: f64,
    /// The extra delay (µs).
    pub reorder_delay_us: u64,
}

impl JitterSpec {
    /// Jitter that never fires.
    pub fn none() -> Self {
        JitterSpec {
            dup_prob: 0.0,
            dup_delay_us: 0,
            reorder_prob: 0.0,
            reorder_delay_us: 0,
        }
    }
}

/// A complete, serializable fault schedule. See the module docs for the
/// JSON schema and `sam_faults` crate docs for the determinism contract.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Human-readable label (lands in reports and summaries).
    pub name: String,
    /// Loss bursts; indices are the `idx` in burst fault events.
    pub loss_bursts: Vec<LossBurst>,
    /// Membership changes.
    pub churn: Vec<ChurnEvent>,
    /// Duplication/reordering jitter, if any.
    pub jitter: Option<JitterSpec>,
}

/// Why a plan was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// A probability field was NaN, infinite, or outside `[0, 1]`.
    BadProbability {
        /// Which field.
        what: String,
        /// The offending value.
        value: f64,
    },
    /// A burst's window is empty (`start_us >= end_us`).
    EmptyWindow {
        /// Index into `loss_bursts`.
        idx: usize,
    },
    /// A churn event names a node outside the topology.
    NodeOutOfRange {
        /// The named node.
        node: u32,
        /// Topology size.
        nodes: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadProbability { what, value } => {
                write!(
                    f,
                    "{what} must be a finite probability in [0.0, 1.0], got {value}"
                )
            }
            PlanError::EmptyWindow { idx } => {
                write!(
                    f,
                    "loss burst {idx} has an empty window (start_us >= end_us)"
                )
            }
            PlanError::NodeOutOfRange { node, nodes } => {
                write!(f, "churn names node {node}, topology has {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for PlanError {}

fn check_prob(what: &str, value: f64) -> Result<(), PlanError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(PlanError::BadProbability {
            what: what.to_string(),
            value,
        })
    }
}

impl FaultPlan {
    /// An empty plan (no faults at all).
    pub fn none() -> Self {
        FaultPlan {
            name: "none".to_string(),
            loss_bursts: Vec::new(),
            churn: Vec::new(),
            jitter: None,
        }
    }

    /// A whole-run, network-wide loss field — the robustness sweeps' loss
    /// axis.
    pub fn constant_loss(prob: f64) -> Self {
        FaultPlan {
            name: format!("loss{:.0}", prob * 100.0),
            loss_bursts: vec![LossBurst::always(prob)],
            churn: Vec::new(),
            jitter: None,
        }
    }

    /// Rename the plan (builder style).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Add a loss burst (builder style).
    pub fn with_burst(mut self, burst: LossBurst) -> Self {
        self.loss_bursts.push(burst);
        self
    }

    /// Add a churn event (builder style).
    pub fn with_churn(mut self, at_us: u64, node: u32, kind: ChurnKind) -> Self {
        self.churn.push(ChurnEvent { at_us, node, kind });
        self
    }

    /// Set the jitter spec (builder style).
    pub fn with_jitter(mut self, jitter: JitterSpec) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Whether the plan can never change anything: every probability is
    /// zero and there is no churn. Inert plans schedule no directives and
    /// never draw from the RNG, so they are trace-identical to running
    /// with no plan at all.
    pub fn is_inert(&self) -> bool {
        self.loss_bursts.iter().all(|b| b.prob <= 0.0)
            && self.churn.is_empty()
            && self
                .jitter
                .as_ref()
                .is_none_or(|j| j.dup_prob <= 0.0 && j.reorder_prob <= 0.0)
    }

    /// Check every probability and window. Node bounds are checked
    /// against the actual topology in [`apply`](crate::apply).
    pub fn validate(&self) -> Result<(), PlanError> {
        for (idx, b) in self.loss_bursts.iter().enumerate() {
            check_prob(&format!("loss_bursts[{idx}].prob"), b.prob)?;
            if b.start_us >= b.end_us {
                return Err(PlanError::EmptyWindow { idx });
            }
        }
        if let Some(j) = &self.jitter {
            check_prob("jitter.dup_prob", j.dup_prob)?;
            check_prob("jitter.reorder_prob", j.reorder_prob)?;
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plan serializes")
    }

    /// Parse from JSON (schema in the module docs) and validate.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let plan: FaultPlan = serde_json::from_str(s).map_err(|e| e.to_string())?;
        plan.validate().map_err(|e| e.to_string())?;
        Ok(plan)
    }

    /// Write the plan to `path` as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Load and validate a plan from a JSON file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let s = fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultPlan {
        FaultPlan::none()
            .named("sample")
            .with_burst(LossBurst::window(1_000, 5_000, 0.3).in_region(2.0, 1.0, 1.5))
            .with_burst(LossBurst::always(0.05))
            .with_churn(2_000, 3, ChurnKind::Crash)
            .with_churn(4_000, 3, ChurnKind::Recover)
            .with_jitter(JitterSpec {
                dup_prob: 0.1,
                dup_delay_us: 40,
                reorder_prob: 0.1,
                reorder_delay_us: 200,
            })
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = sample();
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validation_rejects_bad_probabilities_and_windows() {
        let bad_prob = FaultPlan::constant_loss(1.5);
        assert!(matches!(
            bad_prob.validate(),
            Err(PlanError::BadProbability { .. })
        ));
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let msg = FaultPlan::constant_loss(bad)
                .validate()
                .unwrap_err()
                .to_string();
            assert!(
                msg.contains("loss_bursts[0].prob") && msg.contains(&bad.to_string()),
                "{msg}"
            );
        }
        for ok in [0.0, 1.0] {
            assert!(FaultPlan::constant_loss(ok).validate().is_ok());
        }
        let nan = FaultPlan::none().with_jitter(JitterSpec {
            dup_prob: f64::NAN,
            ..JitterSpec::none()
        });
        let msg = nan.validate().unwrap_err().to_string();
        assert!(msg.contains("dup_prob") && msg.contains("NaN"), "{msg}");
        let empty = FaultPlan::none().with_burst(LossBurst::window(5, 5, 0.1));
        assert_eq!(empty.validate(), Err(PlanError::EmptyWindow { idx: 0 }));
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn inertness_requires_every_knob_at_zero() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::constant_loss(0.0).is_inert());
        assert!(FaultPlan::none().with_jitter(JitterSpec::none()).is_inert());
        assert!(!FaultPlan::constant_loss(0.1).is_inert());
        assert!(!FaultPlan::none()
            .with_churn(0, 1, ChurnKind::Crash)
            .is_inert());
    }

    #[test]
    fn region_membership_is_a_closed_disc() {
        let r = Region {
            x: 0.0,
            y: 0.0,
            radius: 2.0,
        };
        assert!(r.contains(Pos::new(0.0, 2.0)));
        assert!(r.contains(Pos::new(1.0, 1.0)));
        assert!(!r.contains(Pos::new(2.0, 2.0)));
    }
}
