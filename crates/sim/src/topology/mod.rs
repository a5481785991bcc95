//! Network topologies.
//!
//! The paper evaluates SAM on three topology families, all reproduced here:
//!
//! * **two-cluster** ([`cluster::two_cluster`]) — two 4×4 hot spots joined
//!   by a sparse 2×5 bridge (Fig. 1), "people in a library … communicate
//!   with people in a nearby building";
//! * **uniform grid** ([`grid::uniform_grid`]) — 6×6 (Fig. 2) and 6×10
//!   (Fig. 8) unit-spaced grids;
//! * **random** ([`random::random_topology`]) — uniformly placed nodes in a
//!   square (Fig. 9).
//!
//! Every generator returns a [`NetworkPlan`]: the node placement plus the
//! roles the experiments need (source pool, destination pool, the attacker
//! pair positions). Attacker nodes are *always present in the topology* —
//! whether their tunnel is active is decided later by the attack wiring —
//! so "normal" and "under attack" runs use the identical node set, exactly
//! the comparison the paper makes.

pub mod cluster;
pub mod graph;
pub mod grid;
pub mod mobility;
pub mod random;

use crate::ids::{NodeId, NodeIndexOverflow};
use serde::{DeError, Deserialize, Serialize, Sink, Source};

/// A point in the plane, in abstract distance units (grid spacing = 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pos {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Pos {
    /// A point at `(x, y)`.
    pub fn new(x: f64, y: f64) -> Self {
        Pos { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(self, other: Pos) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Static node placement plus the disc-radio connectivity derived from it.
///
/// Connectivity is stored flat, CSR-style: one offsets array plus one
/// contiguous neighbour-id array (with the per-link Euclidean distances in
/// a parallel array), so flood propagation iterates cache-friendly slices
/// and never recomputes a `sqrt` per delivery. Neighbour lists are sorted
/// ascending by id — the order the old nested-`Vec` build produced — so
/// the restructuring is invisible to RNG draw order and traces.
#[derive(Clone, Debug)]
pub struct Topology {
    positions: Vec<Pos>,
    range: f64,
    /// CSR row offsets, `len() + 1` entries; node `i`'s neighbours live at
    /// `neighbor_ids[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// All neighbour ids, concatenated per node, each row sorted ascending.
    neighbor_ids: Vec<NodeId>,
    /// Euclidean distance to the matching `neighbor_ids` entry.
    neighbor_dists: Vec<f64>,
}

impl Topology {
    /// Build a topology from explicit positions and a common radio range.
    /// Neighbour lists are precomputed; links are bidirectional by
    /// construction (shared range).
    ///
    /// # Panics
    /// On a non-positive range or more than `u32::MAX + 1` nodes; use
    /// [`Topology::try_new`] for a typed error on the latter.
    pub fn new(positions: Vec<Pos>, range: f64) -> Self {
        match Self::try_new(positions, range) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Topology::new`]: rejects node counts that overflow the
    /// `u32` id space before building anything.
    pub fn try_new(positions: Vec<Pos>, range: f64) -> Result<Self, NodeIndexOverflow> {
        assert!(range > 0.0, "radio range must be positive");
        let n = positions.len();
        if n > 0 {
            NodeId::try_from_idx(n - 1)?;
        }
        // Build per-node rows first (ascending by construction: for node
        // k, partners i < k are pushed across earlier outer iterations,
        // then partners j > k in inner-loop order), then flatten to CSR.
        let mut rows: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = positions[i].dist(positions[j]);
                if d <= range {
                    rows[i].push((NodeId(j as u32), d));
                    rows[j].push((NodeId(i as u32), d));
                }
            }
        }
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbor_ids = Vec::with_capacity(total);
        let mut neighbor_dists = Vec::with_capacity(total);
        offsets.push(0u32);
        for row in rows {
            for (id, d) in row {
                neighbor_ids.push(id);
                neighbor_dists.push(d);
            }
            offsets.push(u32::try_from(neighbor_ids.len()).expect("edge count fits u32"));
        }
        Ok(Topology {
            positions,
            range,
            offsets,
            neighbor_ids,
            neighbor_dists,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Pos {
        self.positions[id.idx()]
    }

    /// All positions, indexed by node id.
    pub fn positions(&self) -> &[Pos] {
        &self.positions
    }

    /// The common radio range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Radio neighbours of `id`, ascending by id.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.idx();
        &self.neighbor_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Euclidean distances to each of [`Topology::neighbors`]`(id)`, in
    /// the same order — the broadcast hot path reads these instead of
    /// recomputing a square root per delivery.
    #[inline]
    pub fn neighbor_dists(&self, id: NodeId) -> &[f64] {
        let i = id.idx();
        &self.neighbor_dists[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether `a` and `b` are within radio range of each other. Binary
    /// search over the sorted neighbour row.
    #[inline]
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Euclidean distance between two nodes.
    pub fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).dist(self.position(b))
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_idx)
    }
}

/// The wire format stores placement only; connectivity is derived, so it
/// is rebuilt on deserialization (and the CSR arrays never hit the wire).
impl Serialize for Topology {
    fn serialize<W: Sink>(&self, out: &mut W) {
        out.begin_object();
        out.key("positions");
        self.positions.serialize(out);
        out.key("range");
        self.range.serialize(out);
        out.end_object();
    }
}

impl Deserialize for Topology {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let (mut positions, mut range) = (None, None);
        serde::read_fields(src, &["positions", "range"], |src, i| match i {
            0 => positions = Some(Vec::<Pos>::deserialize(src)),
            _ => range = Some(f64::deserialize(src)),
        })?;
        let positions = positions.ok_or_else(|| DeError::msg("missing Topology.positions"))?;
        let range = range.ok_or_else(|| DeError::msg("missing Topology.range"))?;
        Topology::try_new(positions?, range?).map_err(DeError::msg)
    }
}

/// A pair of colluding wormhole endpoints as placed by a generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackerPair {
    /// First endpoint (left/source side by generator convention).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
}

/// A topology plus the experiment roles defined on it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkPlan {
    /// Human-readable scenario name, e.g. `"cluster-1tier"`.
    pub name: String,
    /// The node placement and connectivity.
    pub topology: Topology,
    /// Candidate source nodes (drawn per run, per the paper's rule for the
    /// topology family).
    pub src_pool: Vec<NodeId>,
    /// Candidate destination nodes.
    pub dst_pool: Vec<NodeId>,
    /// Wormhole endpoint pairs placed by the generator (tunnels may or may
    /// not be activated by the experiment).
    pub attacker_pairs: Vec<AttackerPair>,
}

impl NetworkPlan {
    /// Ids of all attacker nodes (both endpoints of every pair).
    pub fn attacker_nodes(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.attacker_pairs.len() * 2);
        for p in &self.attacker_pairs {
            v.push(p.a);
            v.push(p.b);
        }
        v
    }

    /// Ids of non-attacker nodes.
    pub fn legit_nodes(&self) -> Vec<NodeId> {
        let attackers = self.attacker_nodes();
        self.topology
            .nodes()
            .filter(|n| !attackers.contains(n))
            .collect()
    }

    /// Hop distance between the endpoints of pair `i` through the *real*
    /// radio topology (not using any tunnel). The paper's premise is that
    /// this is much greater than one hop: "the wormhole nodes can tunnel
    /// much more than one hop".
    pub fn tunnel_span_hops(&self, i: usize) -> Option<u32> {
        let p = self.attacker_pairs.get(i)?;
        graph::bfs_hops(&self.topology, p.a)[p.b.idx()]
    }

    /// Extend the plan with one more wormhole pair at explicit positions
    /// (multi-wormhole scenarios, paper §III.D). The topology is rebuilt
    /// with the two new nodes appended, preserving all existing ids.
    ///
    /// # Panics
    /// If the two extra nodes overflow the `u32` id space; see
    /// [`NetworkPlan::try_with_additional_pair`].
    pub fn with_additional_pair(&self, pos_a: Pos, pos_b: Pos) -> NetworkPlan {
        match self.try_with_additional_pair(pos_a, pos_b) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`NetworkPlan::with_additional_pair`]: returns the typed
    /// overflow error instead of panicking when the appended endpoints
    /// would not fit the `u32` id space.
    pub fn try_with_additional_pair(
        &self,
        pos_a: Pos,
        pos_b: Pos,
    ) -> Result<NetworkPlan, NodeIndexOverflow> {
        let mut positions = self.topology.positions().to_vec();
        let a = NodeId::try_from_idx(positions.len())?;
        positions.push(pos_a);
        let b = NodeId::try_from_idx(positions.len())?;
        positions.push(pos_b);
        let mut plan = self.clone();
        plan.topology = Topology::try_new(positions, self.topology.range())?;
        plan.attacker_pairs.push(AttackerPair { a, b });
        Ok(plan)
    }

    /// Sanity-check the plan: non-empty pools, every pool member exists,
    /// attackers distinct, and the radio graph is connected.
    pub fn validate(&self) -> Result<(), String> {
        if self.src_pool.is_empty() || self.dst_pool.is_empty() {
            return Err("empty source/destination pool".into());
        }
        let n = self.topology.len();
        for pool in [&self.src_pool, &self.dst_pool] {
            if let Some(bad) = pool.iter().find(|id| id.idx() >= n) {
                return Err(format!("pool node {bad} out of range"));
            }
        }
        for p in &self.attacker_pairs {
            if p.a == p.b {
                return Err(format!("attacker pair {p:?} is degenerate"));
            }
            if p.a.idx() >= n || p.b.idx() >= n {
                return Err(format!("attacker pair {p:?} out of range"));
            }
        }
        if !graph::is_connected(&self.topology) {
            return Err("radio graph is not connected".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        let pos = (0..n).map(|i| Pos::new(i as f64, 0.0)).collect();
        Topology::new(pos, 1.1)
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = line(5);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.are_neighbors(b, a), "{a}->{b} not symmetric");
            }
        }
    }

    #[test]
    fn line_topology_connectivity() {
        let t = line(4);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert!(!t.are_neighbors(NodeId(0), NodeId(3)));
    }

    #[test]
    fn dist_matches_euclid() {
        let t = Topology::new(vec![Pos::new(0.0, 0.0), Pos::new(3.0, 4.0)], 10.0);
        assert!((t.dist(NodeId(0), NodeId(1)) - 5.0).abs() < 1e-12);
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
    }

    #[test]
    fn plan_validation_catches_empty_pools() {
        let plan = NetworkPlan {
            name: "x".into(),
            topology: line(3),
            src_pool: vec![],
            dst_pool: vec![NodeId(2)],
            attacker_pairs: vec![],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn plan_validation_catches_degenerate_pair() {
        let plan = NetworkPlan {
            name: "x".into(),
            topology: line(3),
            src_pool: vec![NodeId(0)],
            dst_pool: vec![NodeId(2)],
            attacker_pairs: vec![AttackerPair {
                a: NodeId(1),
                b: NodeId(1),
            }],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn legit_nodes_excludes_attackers() {
        let plan = NetworkPlan {
            name: "x".into(),
            topology: line(4),
            src_pool: vec![NodeId(0)],
            dst_pool: vec![NodeId(3)],
            attacker_pairs: vec![AttackerPair {
                a: NodeId(1),
                b: NodeId(2),
            }],
        };
        assert_eq!(plan.legit_nodes(), vec![NodeId(0), NodeId(3)]);
        assert_eq!(plan.attacker_nodes(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(plan.tunnel_span_hops(0), Some(1));
    }
}
