//! # manet-sim — discrete-event simulator for wireless ad hoc networks
//!
//! The substrate for the SAM wormhole-detection reproduction. The paper's
//! experiments ran in OPNET; this crate provides the equivalent pieces
//! built from scratch:
//!
//! * a deterministic [discrete-event engine](engine::Network) with
//!   behaviour-based node logic ([`engine::Behavior`]),
//! * a disc-radio model with configurable per-link
//!   [latency + contention jitter](radio::LatencyModel),
//! * the paper's [topologies](topology): two-cluster, uniform grids, and
//!   random placements, each with source/destination pools and wormhole
//!   endpoint placement,
//! * per-node [tx/rx metrics](metrics::Metrics) implementing the paper's
//!   route-discovery overhead criterion (Table II).
//!
//! Routing protocols live in `manet-routing`; attacks in `manet-attacks`;
//! the SAM detector in `sam`.
//!
//! ## Quick tour
//!
//! ```
//! use manet_sim::prelude::*;
//!
//! // The paper's Fig. 1 scenario: two clusters, sparse bridge, a wormhole
//! // endpoint hovering near each cluster.
//! let plan = two_cluster(1);
//! assert_eq!(plan.topology.len(), 44);
//! // The tunnel spans several radio hops — the wormhole precondition.
//! assert!(plan.tunnel_span_hops(0).unwrap() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod ids;
pub mod metrics;
pub mod radio;
pub mod time;
pub mod topology;
pub mod trace;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::engine::{
        Behavior, Ctx, DeliveryVerdict, FaultHook, FaultStats, Network, RunStats,
    };
    pub use crate::event::{Channel, FaultKind};
    pub use crate::ids::{Link, NodeId, NodeIndexOverflow};
    pub use crate::metrics::{Metrics, NodeCounters};
    pub use crate::radio::{range_for_tier, LatencyModel};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::cluster::{two_cluster, two_cluster_with, TwoClusterConfig};
    pub use crate::topology::graph::{bfs_hops, hop_distance, is_connected, shortest_path};
    pub use crate::topology::grid::{grid_node, try_uniform_grid, uniform_grid};
    pub use crate::topology::random::{random_topology, random_topology_with, RandomConfig};
    pub use crate::topology::{AttackerPair, NetworkPlan, Pos, Topology};
    pub use crate::trace::{Trace, TraceEntry, TraceKind};
}

pub use prelude::*;
