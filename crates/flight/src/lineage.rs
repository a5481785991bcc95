//! Offline route provenance.
//!
//! A discovered route `[n0, n1, …, nk]` was built by a chain of RREQ
//! deliveries: `n0`'s flood reached `n1`, whose rebroadcast (or tunnel
//! relay) reached `n2`, and so on until the copy carrying exactly this
//! path arrived at the destination. In the causal trace each of those
//! deliveries is an entry whose `cause` is the *reception that triggered
//! it* — so the evidence for hop `i` must be a `Deliver` to `n(i+1)` from
//! `n(i)` whose cause is the hop-`(i-1)` evidence entry. A backtracking
//! search over the candidates at each hop recovers a cause-consistent
//! chain even when a node received the same flood several times.

use manet_sim::{Channel, NodeId, Trace, TraceEntry, TraceKind};

/// The reconstructed provenance of one route.
#[derive(Clone, Debug)]
pub struct RouteLineage {
    /// The route's node ids, source first.
    pub nodes: Vec<NodeId>,
    /// One evidence entry per hop (`nodes.len() - 1` of them): the
    /// delivery to `nodes[i+1]` from `nodes[i]` on the causal chain.
    pub hops: Vec<TraceEntry>,
    /// How many of those hops crossed a wormhole tunnel.
    pub tunnel_hops: usize,
    /// Full causal depth of the final hop's entry (includes the root
    /// timer that kicked off the discovery).
    pub depth: usize,
}

impl RouteLineage {
    /// Whether any hop of this route rode the attackers' tunnel.
    pub fn crossed_tunnel(&self) -> bool {
        self.tunnel_hops > 0
    }
}

/// Deliveries to `to` from `from`, candidates for one hop.
fn candidates(trace: &Trace, from: NodeId, to: NodeId) -> Vec<&TraceEntry> {
    trace
        .entries()
        .iter()
        .filter(|e| {
            e.node == to && matches!(e.kind, TraceKind::Deliver { from: f, .. } if f == from)
        })
        .collect()
}

/// Depth-first search for a cause-consistent chain covering hops
/// `hop..` given the entry chosen for the previous hop.
fn extend(
    trace: &Trace,
    nodes: &[NodeId],
    hop: usize,
    prev: &TraceEntry,
    chain: &mut Vec<TraceEntry>,
) -> bool {
    if hop + 1 >= nodes.len() {
        return true;
    }
    for cand in candidates(trace, nodes[hop], nodes[hop + 1]) {
        if cand.cause == Some(prev.id) {
            chain.push(*cand);
            if extend(trace, nodes, hop + 1, cand, chain) {
                return true;
            }
            chain.pop();
        }
    }
    false
}

/// Reconstruct the causal delivery chain that produced `route` (a node
/// sequence, source first) from `trace`. Returns `None` when no
/// cause-consistent chain exists — e.g. the trace overflowed and lost
/// the middle of the flood.
pub fn reconstruct_route(trace: &Trace, route: &[NodeId]) -> Option<RouteLineage> {
    if route.len() < 2 {
        return None;
    }
    // The first hop's delivery descends from harness scheduling (the
    // START_DISCOVERY timer), so it carries no in-chain constraint; try
    // every candidate as the anchor.
    for first in candidates(trace, route[0], route[1]) {
        let mut chain = vec![*first];
        if extend(trace, route, 1, first, &mut chain) {
            let tunnel_hops = chain
                .iter()
                .filter(|e| e.channel() == Some(Channel::Tunnel))
                .count();
            let depth = trace.lineage_depth(chain.last().expect("non-empty").id);
            return Some(RouteLineage {
                nodes: route.to_vec(),
                hops: chain,
                tunnel_hops,
                depth,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{SimTime, Trace};

    fn deliver(id: u64, cause: Option<u64>, to: u32, from: u32, ch: Channel) -> TraceEntry {
        TraceEntry {
            id,
            cause,
            at: SimTime(id),
            node: NodeId(to),
            kind: TraceKind::Deliver {
                from: NodeId(from),
                channel: ch,
            },
        }
    }

    fn ids(route: &[u32]) -> Vec<NodeId> {
        route.iter().map(|&n| NodeId(n)).collect()
    }

    #[test]
    fn reconstructs_a_simple_flood_chain() {
        let mut t = Trace::with_capacity(16);
        t.record(deliver(0, None, 1, 0, Channel::Broadcast));
        t.record(deliver(1, Some(0), 2, 1, Channel::Tunnel));
        t.record(deliver(2, Some(1), 3, 2, Channel::Broadcast));
        let lin = reconstruct_route(&t, &ids(&[0, 1, 2, 3])).expect("chain exists");
        assert_eq!(lin.hops.iter().map(|e| e.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(lin.tunnel_hops, 1);
        assert!(lin.crossed_tunnel());
        assert_eq!(lin.depth, 3);
    }

    #[test]
    fn backtracks_over_duplicate_receptions() {
        // Node 2 hears the flood twice (ids 1 and 3); only the second
        // copy's rebroadcast reached node 3, so the chain must pick it.
        let mut t = Trace::with_capacity(16);
        t.record(deliver(0, None, 1, 0, Channel::Broadcast));
        t.record(deliver(1, Some(0), 2, 1, Channel::Broadcast));
        t.record(deliver(3, Some(0), 2, 1, Channel::Broadcast));
        t.record(deliver(4, Some(3), 3, 2, Channel::Broadcast));
        let lin = reconstruct_route(&t, &ids(&[0, 1, 2, 3])).expect("chain exists");
        assert_eq!(lin.hops.iter().map(|e| e.id).collect::<Vec<_>>(), [0, 3, 4]);
        assert_eq!(lin.tunnel_hops, 0);
    }

    #[test]
    fn missing_link_yields_none() {
        let mut t = Trace::with_capacity(16);
        t.record(deliver(0, None, 1, 0, Channel::Broadcast));
        // No delivery 1 → 2 at all.
        assert!(reconstruct_route(&t, &ids(&[0, 1, 2])).is_none());
        assert!(reconstruct_route(&t, &ids(&[0])).is_none());
    }

    #[test]
    fn cause_inconsistent_candidates_are_rejected() {
        // A 1 → 2 delivery exists but descends from an unrelated event,
        // so it is not evidence for this route.
        let mut t = Trace::with_capacity(16);
        t.record(deliver(0, None, 1, 0, Channel::Broadcast));
        t.record(deliver(9, None, 5, 4, Channel::Broadcast));
        t.record(deliver(10, Some(9), 2, 1, Channel::Broadcast));
        assert!(reconstruct_route(&t, &ids(&[0, 1, 2])).is_none());
    }
}
