//! Link-frequency statistics over a route set — the paper's equations
//! (1)–(7).
//!
//! For the route set `R` of one discovery with links `L = {l_i}`:
//!
//! * `n_i` — times link `l_i` appears across `R` (eq. 2's summands),
//! * `N = Σ n_i` — total non-distinct links (eq. 2),
//! * `p_i = n_i / N` — relative frequency (eq. 1),
//! * `p_max = max_i p_i` (eq. 3),
//! * `n_max, n_2nd` (eq. 4–6), and
//! * `Δ = (n_max − n_2nd) / n_max` (eq. 7).
//!
//! Under a wormhole the tunneled link rides on almost every route, so both
//! `p_max` and `Δ` jump; the attackers are the endpoints of the
//! most-frequent link.

use crate::linkmap::LinkMap;
use manet_routing::Route;
use manet_sim::{Link, NodeId};
use serde::{Deserialize, Serialize};

/// The endpoints every route of a discovery shares: `(src, dst)` when all
/// routes agree, `None` per side otherwise (or for an empty set). This is
/// what SAM excludes when localizing the attack link.
pub fn common_endpoints(routes: &[Route]) -> (Option<NodeId>, Option<NodeId>) {
    let Some(first) = routes.first() else {
        return (None, None);
    };
    let src = first.src();
    let dst = first.dst();
    (
        routes.iter().all(|r| r.src() == src).then_some(src),
        routes.iter().all(|r| r.dst() == dst).then_some(dst),
    )
}

/// [`common_endpoints`] as an exclusion list without an allocation: the
/// common source and then the common destination, whichever exist, are
/// `ends[..n]` of the returned `(ends, n)`.
pub(crate) fn common_endpoint_array(routes: &[Route]) -> ([NodeId; 2], usize) {
    match common_endpoints(routes) {
        (Some(src), Some(dst)) => ([src, dst], 2),
        (Some(end), None) | (None, Some(end)) => ([end, end], 1),
        (None, None) => ([NodeId(0); 2], 0),
    }
}

#[cfg(test)]
thread_local! {
    /// Tabulations run on this thread, for tests that count them.
    pub(crate) static TABULATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Link-frequency table of one route set.
///
/// Tabulation runs on the compact [`LinkMap`] (packed `u32` endpoint
/// ids, open addressing) rather than `HashMap<Link, u32>`. The
/// pre-overhaul `HashMap` tally survives only as a test oracle, here and
/// in `tests/differential_hotpath.rs`, which check that both give the
/// same table and the same `top_two`, `p_max`, `Δ` and suspect link.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    counts: LinkMap<u32>,
    total: u64,
    routes: usize,
}

impl LinkStats {
    /// Tally all links of `routes`.
    pub fn from_routes(routes: &[Route]) -> Self {
        let mut stats = LinkStats::default();
        stats.tabulate(routes.iter().map(Route::nodes));
        stats
    }

    /// Replace the table with the tally of `paths`, one route's node
    /// sequence each, keeping the table's allocation.
    pub(crate) fn tabulate<'a>(&mut self, paths: impl Iterator<Item = &'a [NodeId]>) {
        #[cfg(test)]
        TABULATIONS.with(|n| n.set(n.get() + 1));
        self.counts.clear();
        self.total = 0;
        self.routes = 0;
        for path in paths {
            self.counts.count_path(path);
            self.total += path.len() as u64 - 1;
            self.routes += 1;
        }
    }

    /// Number of routes tallied (`|R|`).
    pub fn route_count(&self) -> usize {
        self.routes
    }

    /// Number of distinct links (`|L|`).
    pub fn distinct_links(&self) -> usize {
        self.counts.len()
    }

    /// Total non-distinct link count (`N`, eq. 2).
    pub fn total_links(&self) -> u64 {
        self.total
    }

    /// Occurrence count of one link (`n_i`).
    pub fn count(&self, link: Link) -> u32 {
        self.counts.get(link).unwrap_or(0)
    }

    /// All `(link, n_i)` pairs, unordered.
    pub fn counts(&self) -> impl Iterator<Item = (Link, u32)> + '_ {
        self.counts.iter()
    }

    /// All relative frequencies `n_i / N`, unordered — the samples whose
    /// PMF the paper plots in Fig. 5.
    pub fn relative_frequencies(&self) -> Vec<f64> {
        self.frequencies().collect()
    }

    /// [`LinkStats::relative_frequencies`] without collecting them.
    pub(crate) fn frequencies(&self) -> impl Iterator<Item = f64> + '_ {
        let n = self.total as f64;
        self.counts.values().map(move |c| f64::from(c) / n)
    }

    /// `(Σ n_i, Σ n_i²)` over the distinct links, exact whatever order
    /// the table iterates in.
    pub(crate) fn count_moments(&self) -> (u64, u128) {
        let squares = self.counts.values().map(|c| u128::from(c) * u128::from(c));
        (self.total, squares.sum())
    }

    /// The two largest counts `(n_max, n_2nd)`; zero-filled when there are
    /// fewer than two distinct links.
    pub fn top_two(&self) -> (u32, u32) {
        top_two_of(self.counts.values())
    }

    /// `p_max` (eq. 3). Zero for an empty route set.
    pub fn p_max(&self) -> f64 {
        p_max_of(self.top_two().0, self.total)
    }

    /// `Δ = (n_max − n_2nd)/n_max` (eq. 7). Zero when the top two counts
    /// tie — the paper's special case "when the attackers locate at the
    /// same row or column of the source node or destination node" — and
    /// zero for an empty set.
    pub fn delta(&self) -> f64 {
        let (nmax, n2nd) = self.top_two();
        delta_of(nmax, n2nd)
    }

    /// `(p_max, Δ)` from one [`LinkStats::top_two`] pass, the same bits
    /// as [`LinkStats::p_max`] and [`LinkStats::delta`] give.
    pub(crate) fn p_max_delta(&self) -> (f64, f64) {
        let (nmax, n2nd) = self.top_two();
        (p_max_of(nmax, self.total), delta_of(nmax, n2nd))
    }

    /// The feature vector and the suspect link SAM localizes, in one pass
    /// over the table: what [`LinkStats::top_two`],
    /// [`LinkStats::suspect_link`] and, for the second value,
    /// [`LinkStats::suspect_link_excluding`] of `exclude` each walk it
    /// for. Ties go to the lowest link, as there.
    pub(crate) fn summary_excluding(&self, exclude: &[NodeId]) -> (RouteSetFeatures, Option<Link>) {
        // Whether `(count, link)` outranks `best`: more occurrences,
        // then the lower link.
        let beats = |count: u32, link: Link, best: Option<(u32, Link)>| {
            best.is_none_or(|(c, l)| count > c || (count == c && link < l))
        };
        let (mut n_max, mut n_2nd) = (0u32, 0u32);
        let mut top: Option<(u32, Link)> = None;
        let mut interior: Option<(u32, Link)> = None;
        for (link, count) in self.counts.iter() {
            if count > n_max {
                n_2nd = n_max;
                n_max = count;
            } else if count > n_2nd {
                n_2nd = count;
            }
            if beats(count, link, top) {
                top = Some((count, link));
            }
            if beats(count, link, interior) && !exclude.iter().any(|&n| link.touches(n)) {
                interior = Some((count, link));
            }
        }
        let suspect_link = top.map(|(_, l)| l);
        let features = RouteSetFeatures {
            routes: self.routes,
            distinct_links: self.distinct_links(),
            total_links: self.total,
            p_max: p_max_of(n_max, self.total),
            delta: delta_of(n_max, n_2nd),
            mean_hops: self.mean_hops(),
            suspect_link: suspect_link.map(|l| (l.lo().0, l.hi().0)),
        };
        (features, interior.map(|(_, l)| l).or(suspect_link))
    }

    /// The leave-one-out statistics: a function giving, for any tabulated
    /// route, `(p_max, Δ)` of the set with that route left out (eq. 3 and
    /// eq. 7 over `R \ {route}`), in O(hops) and without touching the
    /// table. This call ranks the table's counts once, largest first. A
    /// route is loop-free, so leaving it out lowers each of its links'
    /// counts by one and no other count. The new `n_max` and `n_2nd` are
    /// therefore the top two of those lowered counts and the two largest
    /// counts off the route, which the ranking yields after skipping at
    /// most `hops` entries. Each pair equals `LinkStats::from_routes` of
    /// the other routes to the bit: the same integers reach the same two
    /// formulas, and a count lowered to 0 changes nothing, because the top
    /// two start from 0 and only take larger counts.
    ///
    /// The returned function panics if its route has a link the table
    /// holds no occurrence of, that is, it is not one of the tabulated
    /// routes.
    pub(crate) fn leave_one_out(&self) -> impl Fn(&Route) -> (f64, f64) + '_ {
        let mut ranked: Vec<(u32, Link)> = self.counts.iter().map(|(l, c)| (c, l)).collect();
        ranked.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
        move |route| {
            let lowered = route.links().map(|link| {
                let count = self.count(link);
                assert!(
                    count > 0,
                    "leave_one_out: {route:?} is not a tabulated route"
                );
                count - 1
            });
            let off_route = ranked
                .iter()
                .filter(|&&(_, link)| !route.contains_link(link))
                .take(2)
                .map(|&(count, _)| count);
            let (nmax, n2nd) = top_two_of(lowered.chain(off_route));
            let total = self.total - route.hops() as u64;
            // The same divisions and zero cases as `p_max` and `delta`,
            // written out: routing those two through shared helpers made
            // traced zscore, geometric and ensemble detection 2–7% slower.
            let p_max = if total == 0 {
                0.0
            } else {
                f64::from(nmax) / total as f64
            };
            let delta = if nmax == 0 {
                0.0
            } else {
                f64::from(nmax - n2nd) / f64::from(nmax)
            };
            (p_max, delta)
        }
    }

    /// The most frequent link — SAM's attacker localization ("the
    /// malicious nodes can be identified by the attack link which has the
    /// highest relative frequency"). Ties broken by normalized link order
    /// for determinism.
    pub fn suspect_link(&self) -> Option<Link> {
        self.counts
            .iter()
            .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then_with(|| lb.cmp(la)))
            .map(|(l, _)| l)
    }

    /// Like [`LinkStats::suspect_link`], but prefer links **not incident
    /// to `exclude`** (typically the discovery's source and destination):
    /// every route starts and ends there, so endpoint-adjacent links are
    /// trivially frequent and can tie with the attack link when an
    /// attacker happens to sit within radio range of an endpoint. The
    /// destination runs SAM and knows both endpoints, so the exclusion
    /// costs nothing. Falls back to the global mode when exclusion leaves
    /// no candidate.
    pub fn suspect_link_excluding(&self, exclude: &[NodeId]) -> Option<Link> {
        self.counts
            .iter()
            .filter(|(l, _)| !exclude.iter().any(|&n| l.touches(n)))
            .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then_with(|| lb.cmp(la)))
            .map(|(l, _)| l)
            .or_else(|| self.suspect_link())
    }

    /// All links tied for the (exclusion-filtered) maximum count, sorted
    /// for determinism. When the captured routes share a prefix through
    /// the attackers (the source sits next to a wormhole endpoint), the
    /// whole shared chain ties at `n_max`; statistics alone cannot split
    /// the tie, so localization reports the tied set and step 2's probes
    /// narrow it down.
    pub fn top_links_excluding(&self, exclude: &[NodeId]) -> Vec<Link> {
        let candidates: Vec<(Link, u32)> = self
            .counts
            .iter()
            .filter(|(l, _)| !exclude.iter().any(|&n| l.touches(n)))
            .collect();
        let max = candidates.iter().map(|&(_, c)| c).max().unwrap_or(0);
        if max == 0 {
            return self.suspect_link().into_iter().collect();
        }
        let mut v: Vec<Link> = candidates
            .into_iter()
            .filter(|&(_, c)| c == max)
            .map(|(l, _)| l)
            .collect();
        v.sort();
        v
    }

    /// Mean route length in hops. Since every hop contributes one link,
    /// this is simply `N / |R|`. Not one of the paper's two features, but
    /// the paper invites extensions ("the statistical analysis method …
    /// may be applied to any routing attacks as long as certain statistics
    /// of the obtained routes change significantly") — and a wormhole
    /// shortens routes dramatically, which catches the hidden-replay
    /// variant whose link signature is diluted across neighbour pairs.
    pub fn mean_hops(&self) -> f64 {
        if self.routes == 0 {
            return 0.0;
        }
        self.total as f64 / self.routes as f64
    }

    /// Summarize into the serializable feature vector, in one pass over
    /// the table.
    pub fn summary(&self) -> RouteSetFeatures {
        self.summary_excluding(&[]).0
    }
}

/// `p_max` (eq. 3) from `n_max` and `N`; zero for an empty set.
fn p_max_of(n_max: u32, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    f64::from(n_max) / total as f64
}

/// `Δ` (eq. 7) from the top two counts; zero for an empty set.
fn delta_of(n_max: u32, n_2nd: u32) -> f64 {
    if n_max == 0 {
        return 0.0;
    }
    f64::from(n_max - n_2nd) / f64::from(n_max)
}

/// The two largest of `counts`, duplicates included; zero-filled.
fn top_two_of(counts: impl Iterator<Item = u32>) -> (u32, u32) {
    let mut best = 0u32;
    let mut second = 0u32;
    for c in counts {
        if c > best {
            second = best;
            best = c;
        } else if c > second {
            second = c;
        }
    }
    (best, second)
}

/// The feature vector SAM extracts from one route discovery — what the SAM
/// module "transfers … to the local detection module".
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteSetFeatures {
    /// `|R|`.
    pub routes: usize,
    /// `|L|`.
    pub distinct_links: usize,
    /// `N`.
    pub total_links: u64,
    /// Eq. 3.
    pub p_max: f64,
    /// Eq. 7.
    pub delta: f64,
    /// Mean route length (`N / |R|`) — the extension feature.
    pub mean_hops: f64,
    /// Endpoints of the most frequent link.
    pub suspect_link: Option<(u32, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::NodeId;
    use std::collections::HashMap;

    /// Oracle for [`LinkStats`]: the pre-overhaul `HashMap<Link, u32>`
    /// tally, with each feature derived from it the way the pre-overhaul
    /// table did.
    struct HashedTally {
        counts: HashMap<Link, u32>,
        total: u64,
    }

    impl HashedTally {
        fn from_routes(routes: &[Route]) -> Self {
            let mut counts: HashMap<Link, u32> = HashMap::new();
            let mut total = 0u64;
            for route in routes {
                for link in route.links() {
                    *counts.entry(link).or_insert(0) += 1;
                    total += 1;
                }
            }
            HashedTally { counts, total }
        }

        fn top_two(&self) -> (u32, u32) {
            let mut best = 0u32;
            let mut second = 0u32;
            for &c in self.counts.values() {
                if c > best {
                    second = best;
                    best = c;
                } else if c > second {
                    second = c;
                }
            }
            (best, second)
        }

        fn p_max(&self) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            f64::from(self.top_two().0) / self.total as f64
        }

        fn delta(&self) -> f64 {
            let (nmax, n2nd) = self.top_two();
            if nmax == 0 {
                return 0.0;
            }
            f64::from(nmax - n2nd) / f64::from(nmax)
        }

        fn suspect_link(&self) -> Option<Link> {
            self.counts
                .iter()
                .max_by(|(la, ca), (lb, cb)| ca.cmp(cb).then_with(|| lb.cmp(la)))
                .map(|(&l, _)| l)
        }
    }

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    #[test]
    fn empty_set_is_all_zero() {
        let s = LinkStats::from_routes(&[]);
        assert_eq!(s.total_links(), 0);
        assert_eq!(s.p_max(), 0.0);
        assert_eq!(s.delta(), 0.0);
        assert_eq!(s.suspect_link(), None);
        assert!(s.relative_frequencies().is_empty());
    }

    #[test]
    fn counts_match_hand_computation() {
        // Routes: 0-1-2-5 and 0-1-3-5. Link 0-1 appears twice; the other
        // four links once each. N = 6.
        let routes = vec![r(&[0, 1, 2, 5]), r(&[0, 1, 3, 5])];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(s.route_count(), 2);
        assert_eq!(s.distinct_links(), 5);
        assert_eq!(s.total_links(), 6);
        assert_eq!(s.count(Link::new(NodeId(0), NodeId(1))), 2);
        assert_eq!(s.count(Link::new(NodeId(1), NodeId(2))), 1);
        assert_eq!(s.count(Link::new(NodeId(9), NodeId(8))), 0);
        assert!((s.p_max() - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.delta() - 0.5).abs() < 1e-12);
        assert_eq!(s.suspect_link(), Some(Link::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn relative_frequencies_sum_to_one() {
        let routes = vec![r(&[0, 1, 2]), r(&[0, 3, 2]), r(&[0, 1, 4, 2])];
        let s = LinkStats::from_routes(&routes);
        let sum: f64 = s.relative_frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_is_zero_on_tie() {
        // Two disjoint 2-hop routes: all counts are 1 → n_max = n_2nd.
        let routes = vec![r(&[0, 1, 5]), r(&[0, 2, 5])];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(s.delta(), 0.0);
    }

    #[test]
    fn delta_is_one_for_single_distinct_link() {
        let routes = vec![r(&[0, 1]), r(&[0, 1])];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(s.delta(), 1.0);
        assert_eq!(s.p_max(), 1.0);
    }

    #[test]
    fn wormhole_like_set_has_high_features() {
        // Simulated capture: the link 7-8 rides on every route.
        let routes = vec![
            r(&[0, 7, 8, 5]),
            r(&[0, 1, 7, 8, 5]),
            r(&[0, 2, 7, 8, 5]),
            r(&[0, 3, 7, 8, 4, 5]),
        ];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(s.suspect_link(), Some(Link::new(NodeId(7), NodeId(8))));
        assert!(s.p_max() > 0.2);
        // The link 8-5 near the destination is also frequent (n=3 vs the
        // tunnel's 4), so Δ = 1/4 — still clearly positive.
        assert!(s.delta() >= 0.2);
    }

    #[test]
    fn leave_one_out_matches_a_fresh_tabulation_of_the_rest() {
        let sets = [
            // 7-8 (×4) and 8-5 (×3) lead; the first route holds both, so
            // its top two come from lowered counts and the ranking's
            // third place on. Links unique to one route drop to zero, and
            // 7-8 ties with 8-5 once another tunneled route is out.
            vec![
                r(&[0, 7, 8, 5]),
                r(&[0, 1, 7, 8, 5]),
                r(&[0, 2, 7, 8, 5]),
                r(&[0, 3, 7, 8, 4, 5]),
                r(&[0, 5]),
            ],
            // The top counts tie: 7-8 and 11-12, both ×2.
            vec![
                r(&[0, 7, 8, 9]),
                r(&[0, 1, 7, 8, 2, 9]),
                r(&[0, 11, 12, 9]),
                r(&[0, 3, 11, 12, 4, 9]),
            ],
            // One route: the rest is the empty set.
            vec![r(&[0, 7, 8, 9])],
        ];
        let bits = |(p_max, delta): (f64, f64)| (p_max.to_bits(), delta.to_bits());
        for routes in &sets {
            let stats = LinkStats::from_routes(routes);
            let leave_one_out = stats.leave_one_out();
            for (i, route) in routes.iter().enumerate() {
                let mut rest = routes.clone();
                rest.remove(i);
                let rest = LinkStats::from_routes(&rest);
                assert_eq!(
                    bits(leave_one_out(route)),
                    bits((rest.p_max(), rest.delta())),
                    "leaving out {route:?} of {routes:?}"
                );
            }
        }
        // A route that was never tabulated is refused, though its first
        // two links are in the table.
        let stats = LinkStats::from_routes(&sets[0]);
        let leave_one_out = stats.leave_one_out();
        let foreign = r(&[0, 7, 8, 9]);
        let refused = std::panic::catch_unwind(|| leave_one_out(&foreign));
        assert!(refused.is_err());
    }

    #[test]
    fn suspect_tie_break_is_deterministic() {
        let routes = vec![r(&[0, 1, 2])]; // links 0-1 and 1-2, both ×1
        let s = LinkStats::from_routes(&routes);
        assert_eq!(s.suspect_link(), Some(Link::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn common_endpoints_detects_shared_and_mixed() {
        let a = r(&[0, 1, 9]);
        let b = r(&[0, 2, 9]);
        let c = r(&[3, 2, 9]);
        assert_eq!(
            common_endpoints(&[a.clone(), b.clone()]),
            (Some(NodeId(0)), Some(NodeId(9)))
        );
        assert_eq!(common_endpoints(&[a, c]), (None, Some(NodeId(9))));
        assert_eq!(common_endpoints(&[]), (None, None));
    }

    #[test]
    fn suspect_excluding_skips_endpoint_links() {
        // 0-1 is the global mode (×2) but touches the source; interior
        // link 1-2 (×2) should win under exclusion.
        let routes = vec![r(&[0, 1, 2, 9]), r(&[0, 1, 2, 5, 9]), r(&[0, 3, 4, 9])];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(
            s.suspect_link_excluding(&[NodeId(0), NodeId(9)]),
            Some(Link::new(NodeId(1), NodeId(2)))
        );
        // With nothing excluded, ties go to the smallest link.
        assert_eq!(s.suspect_link(), Some(Link::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn suspect_excluding_falls_back_when_everything_is_excluded() {
        let routes = vec![r(&[0, 9])];
        let s = LinkStats::from_routes(&routes);
        assert_eq!(
            s.suspect_link_excluding(&[NodeId(0), NodeId(9)]),
            Some(Link::new(NodeId(0), NodeId(9))),
            "fallback to global mode"
        );
    }

    #[test]
    fn dense_and_reference_tables_agree() {
        // Pseudo-random route sets: the LinkMap-backed table and the
        // HashMap oracle must agree on every feature and on the full
        // (link, count) table.
        let mut state = 0xA5A5A5A5DEADBEEFu64;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        for _ in 0..50 {
            let n_routes = 1 + next(12) as usize;
            let mut routes = Vec::new();
            for _ in 0..n_routes {
                // Loop-free path over a small id space.
                let mut path: Vec<NodeId> = Vec::new();
                let len = 2 + next(6);
                for _ in 0..len {
                    let id = NodeId(next(30));
                    if !path.contains(&id) {
                        path.push(id);
                    }
                }
                if path.len() >= 2 {
                    routes.push(Route::new(path).unwrap());
                }
            }
            let dense = LinkStats::from_routes(&routes);
            let reference = HashedTally::from_routes(&routes);
            assert_eq!(dense.route_count(), routes.len());
            assert_eq!(dense.distinct_links(), reference.counts.len());
            assert_eq!(dense.total_links(), reference.total);
            assert_eq!(dense.top_two(), reference.top_two());
            assert_eq!(dense.p_max(), reference.p_max());
            assert_eq!(dense.delta(), reference.delta());
            assert_eq!(dense.suspect_link(), reference.suspect_link());
            let mut a: Vec<(Link, u32)> = dense.counts().collect();
            let mut b: Vec<(Link, u32)> = reference.counts.into_iter().collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn summary_round_trips_fields() {
        let routes = vec![r(&[0, 1, 2, 5]), r(&[0, 1, 3, 5])];
        let s = LinkStats::from_routes(&routes);
        let f = s.summary();
        assert_eq!(f.routes, 2);
        assert_eq!(f.distinct_links, 5);
        assert_eq!(f.total_links, 6);
        assert_eq!(f.suspect_link, Some((0, 1)));
    }
}
