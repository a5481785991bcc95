//! Property-based tests for routes, links, route validation, and the
//! disjoint-route selection used by SMR-style RREP generation and SAM's
//! step-1 feedback.

use proptest::prelude::*;
use std::collections::HashSet;
use wormhole_sam::experiments::serving::replay_corpus;
use wormhole_sam::prelude::*;

fn arb_route(pool: u32, max_len: usize) -> impl Strategy<Value = Route> {
    proptest::sample::subsequence((0..pool).collect::<Vec<u32>>(), 2..=max_len.max(2))
        .prop_shuffle()
        .prop_map(|ids| Route::new(ids.into_iter().map(NodeId).collect()).expect("loop-free"))
}

/// Strategy: up to 40 routes from node 0 to node 1 through at most four
/// of eight relays, so routes share links and tie on hop count.
fn arb_shared_endpoint_set() -> impl Strategy<Value = Vec<Route>> {
    let relays = proptest::sample::subsequence((2..10).collect::<Vec<u32>>(), 0..=4).prop_shuffle();
    proptest::collection::vec(relays, 0..=40).prop_map(|drawn| {
        drawn
            .into_iter()
            .map(|relays| {
                let nodes = std::iter::once(0)
                    .chain(relays)
                    .chain(std::iter::once(1))
                    .map(NodeId)
                    .collect();
                Route::new(nodes).expect("relays exclude both ends")
            })
            .collect()
    })
}

/// The definition `select_disjoint` must match, in its quadratic form:
/// every round rescans every remaining route and takes the first minimum
/// of `(shared links, hops)`.
fn select_disjoint_oracle(routes: &[Route], k: usize) -> Vec<Route> {
    if routes.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<&Route> = routes.iter().collect();
    remaining.sort_by_key(|r| r.hops());
    let mut picked: Vec<Route> = vec![remaining.remove(0).clone()];
    let mut picked_links: HashSet<Link> = picked[0].links().collect();

    while picked.len() < k && !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let overlap = r.links().filter(|l| picked_links.contains(l)).count();
                (i, (overlap, r.hops()))
            })
            .min_by_key(|&(_, score)| score)
            .expect("remaining non-empty");
        let chosen = remaining.remove(best_idx).clone();
        picked_links.extend(chosen.links());
        picked.push(chosen);
    }
    picked
}

/// The definition `Route::new`'s loop check must match, in its quadratic
/// form: the node at the first position whose prefix already holds it.
fn first_repeat_oracle(nodes: &[NodeId]) -> Option<NodeId> {
    (1..nodes.len())
        .find(|&j| nodes[..j].contains(&nodes[j]))
        .map(|j| nodes[j])
}

/// What `Route::new` must make of `nodes`, by definition.
fn route_new_oracle(nodes: &[NodeId]) -> Result<(), RouteError> {
    if nodes.len() < 2 {
        return Err(RouteError::TooShort);
    }
    match first_repeat_oracle(nodes) {
        Some(n) => Err(RouteError::Loop(n)),
        None => Ok(()),
    }
}

/// Strategy: node lists of 0 to 200 ids from 0 to 300, so the lists run
/// past any short-route special case and their ids fall on both sides of
/// any bitset bound. Each list is a loop-free shuffle with up to three
/// earlier ids copied in at random places; `low` drops ids from 256 on
/// first, so a whole list may stay below the bound.
fn arb_node_list() -> impl Strategy<Value = Vec<NodeId>> {
    let ids =
        proptest::sample::subsequence((0..=300).collect::<Vec<u32>>(), 0..=200).prop_shuffle();
    let repeats = proptest::collection::vec((0usize..1000, 0usize..1000), 0..=3);
    (ids, repeats, any::<bool>()).prop_map(|(mut ids, repeats, low)| {
        if low {
            ids.retain(|&id| id < 256);
        }
        for (from, to) in repeats {
            if !ids.is_empty() {
                let copy = ids[from % ids.len()];
                ids.insert(to % (ids.len() + 1), copy);
            }
        }
        ids.into_iter().map(NodeId).collect()
    })
}

/// The replay corpus's route sets, in discovery order and reversed, give
/// the same picks, in the same order, as the definition for `k < 8`.
#[test]
fn select_disjoint_matches_the_definition_on_the_replay_corpus() {
    for (_, _, routes) in replay_corpus(30, None) {
        let reversed: Vec<Route> = routes.iter().rev().cloned().collect();
        for set in [&routes, &reversed] {
            for k in 0..8 {
                assert_eq!(
                    select_disjoint(set, k),
                    select_disjoint_oracle(set, k),
                    "k = {k}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn route_new_matches_the_quadratic_scan(lists in proptest::collection::vec(arb_node_list(), 1..=8)) {
        for nodes in lists {
            let expected = route_new_oracle(&nodes);
            let built = Route::new(nodes.clone());
            prop_assert_eq!(built.clone().map(|_| ()), expected, "{:?}", nodes);
            if let Ok(route) = built {
                prop_assert_eq!(route.nodes(), &nodes[..]);
            }
        }
    }

    #[test]
    fn route_construction_rejects_loops(mut ids in proptest::collection::vec(0u32..20, 3..8)) {
        // Force a duplicate.
        let dup = ids[0];
        ids.push(dup);
        let result = Route::new(ids.into_iter().map(NodeId).collect());
        prop_assert!(matches!(result, Err(RouteError::Loop(_))));
    }

    #[test]
    fn route_links_count_equals_hops(route in arb_route(30, 10)) {
        prop_assert_eq!(route.links().count(), route.hops());
        prop_assert_eq!(route.nodes().len(), route.hops() + 1);
    }

    #[test]
    fn reversal_is_involutive(route in arb_route(30, 10)) {
        prop_assert_eq!(route.reversed().reversed(), route);
    }

    #[test]
    fn next_and_prev_hop_are_inverse(route in arb_route(30, 10)) {
        for w in route.nodes().windows(2) {
            prop_assert_eq!(route.next_hop(w[0]), Some(w[1]));
            prop_assert_eq!(route.prev_hop(w[1]), Some(w[0]));
        }
        prop_assert_eq!(route.next_hop(route.dst()), None);
        prop_assert_eq!(route.prev_hop(route.src()), None);
    }

    #[test]
    fn contains_link_matches_links_iter(route in arb_route(30, 10)) {
        for link in route.links() {
            prop_assert!(route.contains_link(link));
        }
        // A link between non-adjacent route nodes is not contained.
        if route.hops() >= 2 {
            let skip = Link::new(route.nodes()[0], route.nodes()[2]);
            prop_assert!(!route.contains_link(skip) || route.nodes().windows(2).any(|w| Link::new(w[0], w[1]) == skip));
        }
    }

    #[test]
    fn shared_links_is_symmetric(a in arb_route(16, 8), b in arb_route(16, 8)) {
        prop_assert_eq!(a.shared_links(&b), b.shared_links(&a));
        prop_assert_eq!(a.link_disjoint(&b), b.link_disjoint(&a));
        prop_assert_eq!(a.node_disjoint(&b), b.node_disjoint(&a));
    }

    #[test]
    fn node_disjoint_implies_link_disjoint(a in arb_route(16, 8), b in arb_route(16, 8)) {
        if a.node_disjoint(&b) && a.src() != b.src() && a.dst() != b.dst()
            && !a.contains(b.src()) && !a.contains(b.dst())
            && !b.contains(a.src()) && !b.contains(a.dst()) {
            prop_assert!(a.link_disjoint(&b));
        }
    }

    #[test]
    fn select_disjoint_subset_properties(
        routes in proptest::collection::vec(arb_route(20, 8), 0..12),
        k in 0usize..6,
    ) {
        let picked = select_disjoint(&routes, k);
        // Size bound.
        prop_assert!(picked.len() <= k.min(routes.len()));
        // Every pick is from the input.
        for p in &picked {
            prop_assert!(routes.contains(p));
        }
        // The first pick (if any) is a shortest route.
        if let Some(first) = picked.first() {
            let min_hops = routes.iter().map(Route::hops).min().expect("non-empty");
            prop_assert_eq!(first.hops(), min_hops);
        }
        // No duplicates among picks.
        for i in 0..picked.len() {
            for j in (i + 1)..picked.len() {
                prop_assert!(picked[i] != picked[j] || routes.iter().filter(|r| *r == &picked[i]).count() > 1);
            }
        }
    }

    #[test]
    fn select_disjoint_exhausts_when_k_large(routes in proptest::collection::vec(arb_route(20, 8), 1..8)) {
        let picked = select_disjoint(&routes, routes.len() + 5);
        prop_assert_eq!(picked.len(), routes.len());
    }

    #[test]
    fn select_disjoint_matches_the_definition(routes in arb_shared_endpoint_set(), k in 0usize..1000) {
        let k = k % (routes.len() + 3); // 0..=len + 2
        prop_assert_eq!(select_disjoint(&routes, k), select_disjoint_oracle(&routes, k));
        // Every route, so every round's pick, in order.
        let all = routes.len() + 2;
        prop_assert_eq!(select_disjoint(&routes, all), select_disjoint_oracle(&routes, all));
    }
}
