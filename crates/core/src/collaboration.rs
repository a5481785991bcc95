//! Global coordinated detection (paper §III.B).
//!
//! "Each node will act as an agent of IDS to detect the attack locally
//! and independently; on the other hand, it will collaborate with other
//! nodes in the network, so as to identify and notify attack behaviors."
//!
//! A [`GlobalCoordinator`] ingests the per-destination [`AttackReport`]s
//! (each destination sees a *different* slice of the traffic, so their
//! suspect links differ in confidence and occasionally in identity) and
//! fuses them: per-link confidence mass accumulates across reports, and
//! per-node suspicion aggregates over the links touching the node — a
//! wormhole endpoint collects mass from every report regardless of which
//! tied link a particular destination happened to pick.

use crate::linkmap::LinkMap;
use crate::procedure::AttackReport;
use manet_sim::{Link, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A fused verdict about one link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkVerdict {
    /// The link.
    pub link: (NodeId, NodeId),
    /// Accumulated confidence mass (Σ (1 − λ) over reports naming it).
    pub confidence: f64,
    /// How many reports named it.
    pub reports: usize,
}

/// A fused verdict about one node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeVerdict {
    /// The node.
    pub node: NodeId,
    /// Accumulated confidence mass over links touching it.
    pub confidence: f64,
    /// How many reports implicated it.
    pub reports: usize,
}

/// Fusion centre for attack reports from many local agents. Confidence
/// mass accumulates in the same compact [`LinkMap`] the tabulation hot
/// path uses; verdict extraction sorts, so the map's iteration order
/// never shows.
#[derive(Clone, Debug, Default)]
pub struct GlobalCoordinator {
    link_mass: LinkMap<(f64, usize)>,
    ingested: usize,
}

impl GlobalCoordinator {
    /// An empty coordinator.
    pub fn new() -> Self {
        GlobalCoordinator::default()
    }

    /// Ingest one local report. The report's weight is its detection
    /// confidence `1 − λ`.
    pub fn ingest(&mut self, report: &AttackReport) {
        let (a, b) = report.suspect_link;
        let weight = (1.0 - report.lambda).clamp(0.0, 1.0);
        let entry = self.link_mass.entry_or_default(Link::new(a, b));
        entry.0 += weight;
        entry.1 += 1;
        self.ingested += 1;
    }

    /// Total reports ingested.
    pub fn report_count(&self) -> usize {
        self.ingested
    }

    /// Per-link verdicts, highest confidence first.
    pub fn link_verdicts(&self) -> Vec<LinkVerdict> {
        let mut v: Vec<LinkVerdict> = self
            .link_mass
            .iter()
            .map(|(l, (confidence, reports))| LinkVerdict {
                link: l.endpoints(),
                confidence,
                reports,
            })
            .collect();
        v.sort_by(|x, y| {
            y.confidence
                .total_cmp(&x.confidence)
                .then_with(|| x.link.cmp(&y.link))
        });
        v
    }

    /// Per-node verdicts, highest confidence first. A node accumulates
    /// the mass of every reported link touching it, so the common
    /// endpoint of several differently-named suspect links (a wormhole
    /// endpoint seen from different destinations) rises to the top. The
    /// masses are summed in link order, so each node's float sum is the
    /// same whatever the table's layout.
    pub fn node_verdicts(&self) -> Vec<NodeVerdict> {
        let mut links: Vec<(Link, (f64, usize))> = self.link_mass.iter().collect();
        links.sort_unstable_by_key(|&(link, _)| link);
        let mut per_node: HashMap<NodeId, (f64, usize)> = HashMap::new();
        for (link, (confidence, reports)) in links {
            for n in [link.lo(), link.hi()] {
                let e = per_node.entry(n).or_insert((0.0, 0));
                e.0 += confidence;
                e.1 += reports;
            }
        }
        let mut v: Vec<NodeVerdict> = per_node
            .into_iter()
            .map(|(node, (confidence, reports))| NodeVerdict {
                node,
                confidence,
                reports,
            })
            .collect();
        v.sort_by(|x, y| {
            y.confidence
                .total_cmp(&x.confidence)
                .then_with(|| x.node.cmp(&y.node))
        });
        v
    }

    /// Nodes whose accumulated confidence passes `threshold` — the
    /// coordinator's isolation list.
    pub fn isolation_list(&self, threshold: f64) -> Vec<NodeId> {
        self.node_verdicts()
            .into_iter()
            .filter(|v| v.confidence >= threshold)
            .map(|v| v.node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(a: u32, b: u32, lambda: f64) -> AttackReport {
        AttackReport {
            suspect_link: (NodeId(a), NodeId(b)),
            lambda,
            p_max: 0.3,
            delta: 0.5,
            probe_ack_ratio: 0.0,
            paths_tested: 3,
            isolate: vec![NodeId(a), NodeId(b)],
        }
    }

    #[test]
    fn single_report_yields_its_link() {
        let mut c = GlobalCoordinator::new();
        c.ingest(&report(1, 2, 0.1));
        let links = c.link_verdicts();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].link, (NodeId(1), NodeId(2)));
        assert!((links[0].confidence - 0.9).abs() < 1e-12);
        assert_eq!(c.report_count(), 1);
    }

    #[test]
    fn repeated_reports_accumulate() {
        let mut c = GlobalCoordinator::new();
        c.ingest(&report(1, 2, 0.2));
        c.ingest(&report(2, 1, 0.4)); // same undirected link
        let links = c.link_verdicts();
        assert_eq!(links.len(), 1);
        assert!((links[0].confidence - 1.4).abs() < 1e-12);
        assert_eq!(links[0].reports, 2);
    }

    #[test]
    fn shared_endpoint_rises_in_node_verdicts() {
        // Three destinations name three different links, all touching
        // node 9 (the wormhole endpoint); the fourth names an unrelated
        // link with moderate confidence.
        let mut c = GlobalCoordinator::new();
        c.ingest(&report(9, 1, 0.1));
        c.ingest(&report(9, 2, 0.2));
        c.ingest(&report(3, 9, 0.15));
        c.ingest(&report(5, 6, 0.4));
        let nodes = c.node_verdicts();
        assert_eq!(nodes[0].node, NodeId(9), "{nodes:?}");
        assert!(nodes[0].confidence > 2.0);
        assert_eq!(nodes[0].reports, 3);
    }

    #[test]
    fn isolation_list_respects_threshold() {
        let mut c = GlobalCoordinator::new();
        c.ingest(&report(9, 1, 0.0));
        c.ingest(&report(9, 2, 0.0));
        c.ingest(&report(5, 6, 0.9));
        let isolate = c.isolation_list(1.5);
        assert_eq!(isolate, vec![NodeId(9)]);
        let everyone = c.isolation_list(0.05);
        assert!(everyone.contains(&NodeId(5)));
        assert!(c.isolation_list(10.0).is_empty());
    }

    #[test]
    fn node_mass_does_not_depend_on_table_layout() {
        // One report per link, so each link's mass is the same in any
        // ingest order, but the order moves links around the table. These
        // weights make a node's float sum depend on the order it is
        // summed in.
        let reports: Vec<AttackReport> = (1..=200u32)
            .map(|i| report(i % 7, 7 + i, 1.0 - f64::from(i) / 201.0))
            .collect();
        let fuse = |order: &mut dyn Iterator<Item = &AttackReport>| {
            let mut c = GlobalCoordinator::new();
            order.for_each(|r| c.ingest(r));
            let nodes = c.node_verdicts();
            let layout: Vec<Link> = c.link_mass.iter().map(|(l, _)| l).collect();
            let bits: Vec<(NodeId, u64, usize)> = nodes
                .iter()
                .map(|v| (v.node, v.confidence.to_bits(), v.reports))
                .collect();
            (bits, layout)
        };
        let (forward, forward_layout) = fuse(&mut reports.iter());
        let (reversed, reversed_layout) = fuse(&mut reports.iter().rev());
        assert_ne!(forward_layout, reversed_layout, "layouts differ");
        assert_eq!(forward, reversed);
    }

    #[test]
    fn verdict_ordering_is_deterministic_under_ties() {
        let mut c = GlobalCoordinator::new();
        c.ingest(&report(1, 2, 0.5));
        c.ingest(&report(3, 4, 0.5));
        let links = c.link_verdicts();
        assert_eq!(links[0].link, (NodeId(1), NodeId(2)));
        assert_eq!(links[1].link, (NodeId(3), NodeId(4)));
    }
}
