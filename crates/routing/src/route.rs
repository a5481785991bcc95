//! Source routes and route-set utilities.

use manet_sim::{Link, NodeId};
use serde::{DeError, Deserialize, Serialize, Source};
use std::collections::HashSet;
use std::fmt;

/// A loop-free source route from a source to a destination, inclusive of
/// both endpoints.
///
/// Invariants enforced at construction: at least two nodes, and no node
/// repeated (source routing is loop-free by definition — a RREQ is never
/// forwarded by a node already on its path).
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Route(Vec<NodeId>);

/// A route decodes from its node list through [`Route::new`], so no
/// input builds a route that construction refuses.
impl Deserialize for Route {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        Route::new(Vec::deserialize(src)?).map_err(DeError::msg)
    }
}

/// Error building a [`Route`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Fewer than two nodes.
    TooShort,
    /// A node appears twice.
    Loop(NodeId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooShort => write!(f, "route has fewer than two nodes"),
            RouteError::Loop(n) => write!(f, "route visits {n} twice"),
        }
    }
}

impl std::error::Error for RouteError {}

impl Route {
    /// Validate and build a route.
    pub fn new(nodes: Vec<NodeId>) -> Result<Self, RouteError> {
        if nodes.len() < 2 {
            return Err(RouteError::TooShort);
        }
        match first_repeat(&nodes) {
            Some(n) => Err(RouteError::Loop(n)),
            None => Ok(Route(nodes)),
        }
    }

    /// The source (first node).
    pub fn src(&self) -> NodeId {
        self.0[0]
    }

    /// The destination (last node).
    pub fn dst(&self) -> NodeId {
        *self.0.last().expect("route is non-empty")
    }

    /// Number of hops (links), i.e. `len − 1`.
    pub fn hops(&self) -> usize {
        self.0.len() - 1
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }

    /// Whether `n` is on the route.
    pub fn contains(&self, n: NodeId) -> bool {
        self.0.contains(&n)
    }

    /// Iterate the route's links as undirected [`Link`]s.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.0.windows(2).map(|w| Link::new(w[0], w[1]))
    }

    /// Whether the route traverses `link` (in either direction).
    pub fn contains_link(&self, link: Link) -> bool {
        self.links().any(|l| l == link)
    }

    /// Number of links shared with `other`.
    pub fn shared_links(&self, other: &Route) -> usize {
        let mine: HashSet<Link> = self.links().collect();
        other.links().filter(|l| mine.contains(l)).count()
    }

    /// Whether the two routes share no link (link-disjoint).
    pub fn link_disjoint(&self, other: &Route) -> bool {
        self.shared_links(other) == 0
    }

    /// Whether the two routes share no intermediate node (node-disjoint;
    /// endpoints are expected to coincide and are ignored).
    pub fn node_disjoint(&self, other: &Route) -> bool {
        let mine: HashSet<NodeId> = self.0[1..self.0.len() - 1].iter().copied().collect();
        !other.0[1..other.0.len() - 1]
            .iter()
            .any(|n| mine.contains(n))
    }

    /// The position of `n` on the route, if present.
    pub fn position(&self, n: NodeId) -> Option<usize> {
        self.0.iter().position(|&x| x == n)
    }

    /// Next hop after `n` towards the destination.
    pub fn next_hop(&self, n: NodeId) -> Option<NodeId> {
        self.position(n).and_then(|i| self.0.get(i + 1)).copied()
    }

    /// Next hop after `n` towards the source (used by ACKs/RREPs flowing
    /// backwards).
    pub fn prev_hop(&self, n: NodeId) -> Option<NodeId> {
        match self.position(n) {
            Some(i) if i > 0 => Some(self.0[i - 1]),
            _ => None,
        }
    }

    /// The same route traversed destination→source.
    pub fn reversed(&self) -> Route {
        let mut v = self.0.clone();
        v.reverse();
        Route(v)
    }

    /// Consume into the node vector.
    pub fn into_nodes(self) -> Vec<NodeId> {
        self.0
    }
}

/// Node ids below this bound [`first_repeat`] marks in a bitset on the
/// stack. Every catalogue deployment numbers its nodes below 120.
const BITSET_IDS: usize = 256;

/// The node whose second visit comes earliest in `nodes`, if any node
/// repeats, in time linear in the route's length while its ids stay
/// below [`BITSET_IDS`]: the walk marks each node and stops at the first
/// already marked. At a larger id it sorts `(node, position)` pairs
/// instead, where the second position of each repeated node sits right
/// after its first (a 1 MiB wire line can carry ~10⁵ nodes).
fn first_repeat(nodes: &[NodeId]) -> Option<NodeId> {
    let mut seen = [0u64; BITSET_IDS / 64];
    for &n in nodes {
        let id = n.0 as usize;
        if id >= BITSET_IDS {
            return first_repeat_sorted(nodes);
        }
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if seen[word] & bit != 0 {
            return Some(n);
        }
        seen[word] |= bit;
    }
    None
}

/// [`first_repeat`] for any ids, in O(n log n).
fn first_repeat_sorted(nodes: &[NodeId]) -> Option<NodeId> {
    let mut visits: Vec<(NodeId, usize)> = nodes.iter().copied().zip(0..).collect();
    visits.sort_unstable();
    visits
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1])
        .min_by_key(|&(_, at)| at)
        .map(|(n, _)| n)
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, n) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Greedy maximally-disjoint route selection, the strategy SMR prescribes
/// for choosing which discovered routes to actually use and which the SAM
/// procedure uses to pick paths to feed back to the source.
///
/// Picks the shortest route first, then repeatedly the route sharing the
/// fewest links with the already-picked set (ties broken by hop count,
/// then by discovery order), up to `k` routes.
///
/// Each round stops scanning as early as that rule allows. The routes
/// not yet picked stay stably sorted by hop count, so a route later in
/// the list has at least as many hops as the best so far and, at equal
/// hops, was discovered later: it wins only by sharing strictly fewer
/// links. A candidate's shared links are therefore counted only until
/// they reach the best count so far, and the round ends at the first
/// route that shares none, since nothing after it can win. On the replay
/// corpus (~166 routes and ~1,410 link occurrences per set, `k = 3`) the
/// pick takes 7–11 µs per set, against 59–73 µs when every round
/// rescanned every route (2-vCPU x86-64 VM).
///
/// The detection service does not run it: a served response carries a
/// verdict, not routes. Route replies (SMR-style RREP generation) and
/// `sam`'s `DetectorOutcome::select_routes`, which the concrete SAM
/// procedure and the IDS agent use, still do.
pub fn select_disjoint(routes: &[Route], k: usize) -> Vec<Route> {
    if routes.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<&Route> = routes.iter().collect();
    remaining.sort_by_key(|r| r.hops());
    let mut picked: Vec<Route> = vec![remaining.remove(0).clone()];
    let mut picked_links: HashSet<Link> = picked[0].links().collect();

    while picked.len() < k && !remaining.is_empty() {
        // (index, shared links) of the best route so far.
        let mut best = (0, usize::MAX);
        for (i, route) in remaining.iter().enumerate() {
            let overlap = route
                .links()
                .filter(|l| picked_links.contains(l))
                .take(best.1)
                .count();
            if overlap < best.1 {
                best = (i, overlap);
                if overlap == 0 {
                    break;
                }
            }
        }
        let chosen = remaining.remove(best.0).clone();
        picked_links.extend(chosen.links());
        picked.push(chosen);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(Route::new(vec![NodeId(1)]), Err(RouteError::TooShort));
        assert_eq!(
            Route::new(vec![NodeId(1), NodeId(2), NodeId(1)]),
            Err(RouteError::Loop(NodeId(1)))
        );
        // The node whose second visit comes first is the one reported.
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        assert_eq!(
            Route::new(ids(&[1, 2, 3, 2, 1])),
            Err(RouteError::Loop(NodeId(2)))
        );
        assert!(Route::new(vec![NodeId(1), NodeId(2)]).is_ok());
    }

    #[test]
    fn long_routes_report_the_same_repeat_as_the_scan() {
        // Ids from 100 to 299 cross BITSET_IDS, so the check sorts; it
        // must name the node a prefix scan would. Node 110 is visited
        // first (at 10) but revisited last (at 190); node 160 is
        // revisited first (at 160).
        let mut ids: Vec<u32> = (100..300).collect();
        ids[190] = ids[10];
        ids[160] = ids[60];
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let scan = (1..nodes.len()).find(|&j| nodes[..j].contains(&nodes[j]));
        assert_eq!(scan, Some(160));
        assert_eq!(Route::new(nodes), Err(RouteError::Loop(NodeId(160))));
        assert!(Route::new((0..200).map(NodeId).collect()).is_ok());
        assert!(Route::new((0..400).map(NodeId).collect()).is_ok());
    }

    #[test]
    fn endpoints_and_hops() {
        let route = r(&[3, 5, 7, 9]);
        assert_eq!(route.src(), NodeId(3));
        assert_eq!(route.dst(), NodeId(9));
        assert_eq!(route.hops(), 3);
        assert_eq!(route.links().count(), 3);
    }

    #[test]
    fn link_membership_is_direction_insensitive() {
        let route = r(&[1, 2, 3]);
        assert!(route.contains_link(Link::new(NodeId(2), NodeId(1))));
        assert!(route.contains_link(Link::new(NodeId(3), NodeId(2))));
        assert!(!route.contains_link(Link::new(NodeId(1), NodeId(3))));
    }

    #[test]
    fn hop_navigation() {
        let route = r(&[1, 2, 3]);
        assert_eq!(route.next_hop(NodeId(1)), Some(NodeId(2)));
        assert_eq!(route.next_hop(NodeId(3)), None);
        assert_eq!(route.prev_hop(NodeId(3)), Some(NodeId(2)));
        assert_eq!(route.prev_hop(NodeId(1)), None);
        assert_eq!(route.next_hop(NodeId(9)), None);
    }

    #[test]
    fn reversal_swaps_endpoints_but_keeps_links() {
        let route = r(&[1, 2, 3, 4]);
        let rev = route.reversed();
        assert_eq!(rev.src(), NodeId(4));
        assert_eq!(rev.dst(), NodeId(1));
        let a: HashSet<Link> = route.links().collect();
        let b: HashSet<Link> = rev.links().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn disjointness() {
        let a = r(&[0, 1, 2, 9]);
        let b = r(&[0, 3, 4, 9]);
        let c = r(&[0, 1, 4, 9]);
        assert!(a.link_disjoint(&b));
        assert!(a.node_disjoint(&b));
        assert!(!a.link_disjoint(&c));
        assert!(!b.node_disjoint(&c));
        assert_eq!(a.shared_links(&c), 1);
    }

    #[test]
    fn select_disjoint_prefers_shortest_then_disjoint() {
        let routes = vec![
            r(&[0, 3, 4, 9]), // 3 hops, shares link 0-3 with the shortest
            r(&[0, 3, 9]),    // 2 hops — must be picked first
            r(&[0, 5, 6, 9]), // 3 hops, fully disjoint
        ];
        let picked = select_disjoint(&routes, 2);
        assert_eq!(picked[0], routes[1]);
        assert_eq!(
            picked[1], routes[2],
            "disjoint route preferred over overlapping one"
        );

        // A route sharing no link wins even behind shorter routes that
        // share one.
        let routes = vec![
            r(&[0, 3, 9]),
            r(&[0, 3, 5, 9]),    // shares 0-3
            r(&[0, 6, 3, 9]),    // shares 3-9
            r(&[0, 1, 2, 7, 9]), // 4 hops, shares nothing
        ];
        assert_eq!(
            select_disjoint(&routes, 2),
            [routes[0].clone(), routes[3].clone()]
        );

        // At equal overlap the shorter route wins, wherever it was
        // discovered; a longer one never displaces it.
        let routes = vec![
            r(&[0, 3, 6, 7, 9]), // 4 hops, shares 0-3
            r(&[0, 3, 9]),
            r(&[0, 3, 5, 9]), // 3 hops, shares 0-3
        ];
        assert_eq!(
            select_disjoint(&routes, 2),
            [routes[1].clone(), routes[2].clone()]
        );

        // Of two equally long routes sharing nothing, the one discovered
        // first wins.
        let routes = vec![r(&[0, 3, 9]), r(&[0, 5, 6, 9]), r(&[0, 7, 8, 9])];
        assert_eq!(
            select_disjoint(&routes, 2),
            [routes[0].clone(), routes[1].clone()]
        );
    }

    #[test]
    fn select_disjoint_handles_edges() {
        assert!(select_disjoint(&[], 3).is_empty());
        let one = vec![r(&[0, 1])];
        assert_eq!(select_disjoint(&one, 0).len(), 0);
        assert_eq!(select_disjoint(&one, 5).len(), 1);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", r(&[1, 2])), "[n1→n2]");
    }
}
