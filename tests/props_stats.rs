//! Property-based tests for SAM's statistical core: link statistics,
//! PMFs, and profile math. These are the invariants the detector's
//! correctness rests on, exercised over arbitrary route sets.

use proptest::prelude::*;
use wormhole_sam::prelude::*;

/// Strategy: a loop-free route over node ids `0..pool` with 2..=len nodes.
fn arb_route(pool: u32, max_len: usize) -> impl Strategy<Value = Route> {
    proptest::sample::subsequence((0..pool).collect::<Vec<u32>>(), 2..=max_len.max(2))
        .prop_shuffle()
        .prop_map(|ids| {
            Route::new(ids.into_iter().map(NodeId).collect()).expect("subsequence is loop-free")
        })
}

/// Strategy: a route set of 1..=n routes.
fn arb_route_set(routes: usize) -> impl Strategy<Value = Vec<Route>> {
    proptest::collection::vec(arb_route(24, 8), 1..=routes)
}

/// The two ends of a planted tunnel: node ids outside `arb_route`'s pool.
const TUNNEL: [u32; 2] = [900, 901];

/// Strategy: 1..=n routes with a tunnel planted the way a wormhole
/// plants one. The `TUNNEL` link is spliced in at a random hop of every
/// route but an honest share of 0%, 25% or 50% (one share per set), so
/// the tunnel is usually the top link, ties appear once a crossing route
/// is left out, and whole sets cross it.
fn arb_tunneled_set(routes: usize) -> impl Strategy<Value = Vec<Route>> {
    let route = (arb_route(24, 8), 0u32..100, 0usize..16);
    (proptest::collection::vec(route, 1..=routes), 0u32..3).prop_map(|(drawn, share)| {
        let honest_pct = [0, 25, 50][share as usize];
        drawn
            .into_iter()
            .map(|(route, roll, at)| {
                if roll < honest_pct {
                    return route;
                }
                let mut nodes = route.into_nodes();
                let at = at % (nodes.len() + 1);
                nodes.splice(at..at, TUNNEL.map(NodeId));
                Route::new(nodes).expect("tunnel ends are outside the pool")
            })
            .collect()
    })
}

/// SAM's verdict over `routes`. The profile is untrained: the explainer
/// reads only the verdict's `p_max`, `Δ` and suspect link, which SAM
/// computes either way.
fn sam_verdict(routes: &[Route]) -> DetectorVerdict {
    let profile = NormalProfile::train(&[], 20);
    SamDetector::default().detect(&DetectorInput::new(routes, &profile))
}

/// The explainer's leave-one-out contributions against their definition:
/// rebuild the table without route `i` and subtract. Every route crossing
/// the suspect link is listed, in input order, and both of its
/// contributions equal the definition's to the bit.
fn assert_contributions_match_the_definition(routes: &[Route]) {
    let verdict = sam_verdict(routes);
    let explanation = Explanation::from_verdict(routes, &verdict);
    let suspect = verdict.suspect_link.expect("a non-empty set has a suspect");
    let crossing: Vec<usize> = (0..routes.len())
        .filter(|&i| routes[i].contains_link(suspect))
        .collect();
    let listed: Vec<&[u32]> = explanation.routes.iter().map(|r| &r.nodes[..]).collect();
    let expected: Vec<Vec<u32>> = crossing
        .iter()
        .map(|&i| routes[i].nodes().iter().map(|n| n.0).collect())
        .collect();
    assert_eq!(
        listed, expected,
        "listed routes are the suspect-crossing ones"
    );
    for (&i, explained) in crossing.iter().zip(&explanation.routes) {
        let mut rest = routes.to_vec();
        rest.remove(i);
        let rest = LinkStats::from_routes(&rest);
        let p_max = verdict.p_max - rest.p_max();
        let delta = verdict.delta - rest.delta();
        assert_eq!(
            explained.p_max_contribution.to_bits(),
            p_max.to_bits(),
            "route {i}: p_max contribution {} != {p_max}",
            explained.p_max_contribution
        );
        assert_eq!(
            explained.delta_contribution.to_bits(),
            delta.to_bits(),
            "route {i}: Δ contribution {} != {delta}",
            explained.delta_contribution
        );
    }
}

/// Strategy: route sets where link counts tie often. Up to 30 routes
/// run from node 0 to node 1 through at most three of five relays (none
/// gives the one-hop route), so links repeat and tie at the top, and a set
/// whose every link touches an endpoint leaves localization nothing but
/// its fallback. With `mixed`, every other route starts at node 2
/// instead, so the routes share no source.
fn arb_tied_set() -> impl Strategy<Value = Vec<Route>> {
    let relays = proptest::sample::subsequence((3..8).collect::<Vec<u32>>(), 0..=3).prop_shuffle();
    let set = proptest::collection::vec(relays, 1..=30);
    (set, any::<bool>()).prop_map(|(drawn, mixed)| {
        drawn
            .into_iter()
            .enumerate()
            .map(|(i, relays)| {
                let src = if mixed && i % 2 == 1 { 2 } else { 0 };
                let nodes = std::iter::once(src)
                    .chain(relays)
                    .chain(std::iter::once(1))
                    .map(NodeId)
                    .collect();
                Route::new(nodes).expect("relays exclude both ends")
            })
            .collect()
    })
}

/// The one-pass table scan against the separate walks it replaces:
/// `summary()` against `top_two` (through `p_max` and `delta`) and
/// `suspect_link`, and the suspect SAM and the z-score detector localize
/// against `suspect_link_excluding` of the set's common endpoints.
/// Answers whether the set's top two counts tie.
fn assert_one_pass_matches_the_walks(routes: &[Route]) -> bool {
    let stats = LinkStats::from_routes(routes);
    let features = stats.summary();
    assert_eq!(features.p_max.to_bits(), stats.p_max().to_bits());
    assert_eq!(features.delta.to_bits(), stats.delta().to_bits());
    assert_eq!(
        features.suspect_link,
        stats.suspect_link().map(|l| (l.lo().0, l.hi().0))
    );
    let (src, dst) = common_endpoints(routes);
    let exclude: Vec<NodeId> = src.into_iter().chain(dst).collect();
    let localized = stats.suspect_link_excluding(&exclude);
    let profile = NormalProfile::train(&[], 20);
    let analysis = SamDetector::default().analyze(routes, &profile);
    assert_eq!(analysis.suspect_link, localized, "{routes:?}");
    assert_eq!(analysis.features, features);
    let zscore = ZScoreNeighborDetector.detect(&DetectorInput::new(routes, &profile));
    if !zscore.abstained() {
        assert_eq!(zscore.suspect_link, localized, "{routes:?}");
    }
    assert_eq!(zscore.p_max.to_bits(), features.p_max.to_bits());
    assert_eq!(zscore.delta.to_bits(), features.delta.to_bits());
    let (n_max, n_2nd) = stats.top_two();
    n_max == n_2nd
}

#[test]
fn one_pass_scan_matches_the_walks_on_tied_sets() {
    // The strategy's own seeds, counted: the property must meet ties.
    let mut ties = 0;
    for case in 0..256 {
        let mut rng = proptest::strategy::fresh_rng(case);
        let routes = arb_tied_set().generate(&mut rng);
        ties += usize::from(assert_one_pass_matches_the_walks(&routes));
    }
    assert!(ties >= 64, "only {ties} of 256 sets tie at the top");
}

#[test]
fn leave_one_out_contributions_match_the_definition_on_tunnel_corner_cases() {
    // A one-route set, a set whose every route crosses the tunnel, and a
    // set whose top two counts tie once a crossing route is left out
    // (the tunnel's 3 falls to the 2 of link 3-4).
    let route = |ids: &[u32]| Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap();
    let [a, b] = TUNNEL;
    for routes in [
        vec![route(&[0, a, b, 5])],
        vec![
            route(&[0, a, b, 5]),
            route(&[1, a, b, 6]),
            route(&[2, 3, a, b]),
        ],
        vec![
            route(&[0, a, b, 5]),
            route(&[1, a, b, 6]),
            route(&[2, a, b, 7]),
            route(&[3, 4, 8]),
            route(&[3, 4, 9]),
        ],
    ] {
        assert_contributions_match_the_definition(&routes);
    }
}

/// Strategy: topology observations for `arb_route`'s node pool and the
/// planted tunnel's ends: every position on a 10 × 10 field and a radio
/// range of 2..15, so honest and tunnel links alike may be in range or
/// not.
fn arb_observations() -> impl Strategy<Value = TopologyObservations> {
    let field = (0.0f64..10.0, 0.0f64..10.0);
    let positions = proptest::collection::vec(field, 26);
    (positions, 2.0f64..15.0).prop_map(|(drawn, range)| {
        let mut positions = vec![(0.0, 0.0); TUNNEL[1] as usize + 1];
        positions[..24].copy_from_slice(&drawn[..24]);
        positions[TUNNEL[0] as usize] = drawn[24];
        positions[TUNNEL[1] as usize] = drawn[25];
        TopologyObservations::new(positions, range)
    })
}

/// The registry ensemble's verdict on `input` against the any-vote of its
/// three members' verdicts: anomalous iff a voter is, the largest voter
/// score (0 with no voter), the smallest voter λ (1 with no voter), and
/// one vote per member in registry order, weighing 1 for a voter and 0
/// for an abstainer. Answers whether the ensemble fired and whether the
/// geometric member abstained.
fn assert_ensemble_is_the_any_vote(reg: &DetectorRegistry, input: &DetectorInput) -> (bool, bool) {
    let members: Vec<DetectorVerdict> = ["sam", "zscore", "geometric"]
        .iter()
        .map(|name| reg.get(name).expect("registered").detect(input))
        .collect();
    let ensemble = reg.get("ensemble").expect("registered").detect(input);
    let voters: Vec<&DetectorVerdict> = members.iter().filter(|v| !v.abstained()).collect();
    assert_eq!(ensemble.anomalous, voters.iter().any(|v| v.anomalous));
    let score = voters.iter().map(|v| v.score).fold(0.0, f64::max);
    assert_eq!(ensemble.score.to_bits(), score.to_bits());
    let lambda = voters.iter().map(|v| v.lambda).fold(1.0, f64::min);
    assert_eq!(ensemble.lambda.to_bits(), lambda.to_bits());
    let DetectorEvidence::Ensemble { votes } = &ensemble.evidence else {
        panic!("ensemble evidence: {:?}", ensemble.evidence);
    };
    assert_eq!(votes.len(), members.len());
    for (vote, member) in votes.iter().zip(&members) {
        assert_eq!(vote.detector, member.detector);
        assert_eq!(vote.anomalous, member.anomalous);
        assert_eq!(vote.score.to_bits(), member.score.to_bits());
        assert_eq!(vote.weight, if member.abstained() { 0.0 } else { 1.0 });
    }
    (ensemble.anomalous, members[2].abstained())
}

#[test]
fn registry_ensemble_is_the_any_vote_of_its_members() {
    // Random and tunnel-built sets, against a profile trained on 0 to 4
    // random sets (0 leaves SAM untrained), each judged without and with
    // observations. The strategy's own seeds, counted: the property must
    // meet the vote firing and not, and the geometric member voting.
    let (mut fired, mut quiet, mut geometric_votes) = (0, 0, 0);
    let reg = DetectorRegistry::calibrated();
    for case in 0..128 {
        let mut rng = proptest::strategy::fresh_rng(case);
        let random = arb_route_set(20).generate(&mut rng);
        let tunneled = arb_tunneled_set(40).generate(&mut rng);
        let training = proptest::collection::vec(arb_route_set(10), 0..=4).generate(&mut rng);
        let obs = arb_observations().generate(&mut rng);
        let profile = NormalProfile::train(&training, 20);
        for routes in [&random, &tunneled] {
            let bare = DetectorInput::new(routes, &profile);
            for input in [bare.clone(), bare.with_topology(&obs)] {
                let (anomalous, geometric_abstained) =
                    assert_ensemble_is_the_any_vote(&reg, &input);
                if anomalous {
                    fired += 1;
                } else {
                    quiet += 1;
                }
                geometric_votes += usize::from(!geometric_abstained);
            }
        }
    }
    assert!(
        fired >= 64 && quiet >= 32 && geometric_votes >= 128,
        "{fired} fired, {quiet} quiet, {geometric_votes} geometric votes of 512"
    );
}

proptest! {
    #[test]
    fn pmf_total_variation_never_exceeds_one(
        a in proptest::collection::vec(-0.5f64..1.5, 0..100),
        b in proptest::collection::vec(-0.5f64..1.5, 0..100),
        bins in 2usize..64,
        shift in 0.0f64..2.0,
    ) {
        // Shifting `b` pushes its mass into the top bin, towards support
        // disjoint from `a`'s, where the distance reaches 1. The bound is
        // why `PmfProfile::check` lets total variation decide nothing: a
        // threshold above 1 could never fire. 1e-12 absorbs rounding in
        // the masses.
        let shifted: Vec<f64> = b.iter().map(|x| x + shift).collect();
        let pa = Pmf::from_samples(bins, &a);
        let pb = Pmf::from_samples(bins, &shifted);
        let tv = pa.total_variation(&pb);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&tv), "tv = {tv}");
    }

    #[test]
    fn relative_frequencies_form_a_distribution(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let freqs = stats.relative_frequencies();
        prop_assert_eq!(freqs.len(), stats.distinct_links());
        let sum: f64 = freqs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        for f in freqs {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn total_links_equals_sum_of_hops(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let hops: usize = routes.iter().map(Route::hops).sum();
        prop_assert_eq!(stats.total_links(), hops as u64);
        prop_assert_eq!(stats.route_count(), routes.len());
    }

    #[test]
    fn p_max_and_delta_are_bounded(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        prop_assert!(stats.p_max() > 0.0 && stats.p_max() <= 1.0);
        prop_assert!((0.0..=1.0).contains(&stats.delta()));
    }

    #[test]
    fn suspect_link_has_the_max_count(routes in arb_route_set(20)) {
        let stats = LinkStats::from_routes(&routes);
        let suspect = stats.suspect_link().expect("non-empty set has a mode");
        let (n_max, _) = stats.top_two();
        prop_assert_eq!(stats.count(suspect), n_max);
    }

    #[test]
    fn stats_are_route_order_invariant(mut routes in arb_route_set(12), seed in any::<u64>()) {
        let before = LinkStats::from_routes(&routes);
        // Deterministic shuffle from the seed.
        let n = routes.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i).wrapping_add(i) % (i + 1);
            routes.swap(i, j);
        }
        let after = LinkStats::from_routes(&routes);
        prop_assert_eq!(before.p_max(), after.p_max());
        prop_assert_eq!(before.delta(), after.delta());
        prop_assert_eq!(before.total_links(), after.total_links());
    }

    #[test]
    fn stats_are_route_direction_invariant(routes in arb_route_set(12)) {
        let forward = LinkStats::from_routes(&routes);
        let reversed: Vec<Route> = routes.iter().map(Route::reversed).collect();
        let backward = LinkStats::from_routes(&reversed);
        prop_assert_eq!(forward.p_max(), backward.p_max());
        prop_assert_eq!(forward.delta(), backward.delta());
        prop_assert_eq!(forward.suspect_link(), backward.suspect_link());
    }

    #[test]
    fn duplicating_the_set_preserves_relative_stats(routes in arb_route_set(10)) {
        let single = LinkStats::from_routes(&routes);
        let mut doubled = routes.clone();
        doubled.extend(routes.iter().cloned());
        let double = LinkStats::from_routes(&doubled);
        prop_assert!((single.p_max() - double.p_max()).abs() < 1e-12);
        prop_assert!((single.delta() - double.delta()).abs() < 1e-12);
        prop_assert_eq!(double.total_links(), 2 * single.total_links());
    }

    #[test]
    fn one_pass_scan_matches_the_walks(routes in arb_route_set(20)) {
        assert_one_pass_matches_the_walks(&routes);
    }

    #[test]
    fn one_pass_scan_matches_the_walks_under_a_tunnel(routes in arb_tunneled_set(40)) {
        assert_one_pass_matches_the_walks(&routes);
    }

    #[test]
    fn leave_one_out_contributions_match_the_definition(routes in arb_route_set(40)) {
        assert_contributions_match_the_definition(&routes);
    }

    #[test]
    fn leave_one_out_contributions_match_the_definition_under_a_tunnel(
        routes in arb_tunneled_set(40),
    ) {
        assert_contributions_match_the_definition(&routes);
    }

    #[test]
    fn top_links_excluding_never_contains_excluded(routes in arb_route_set(15)) {
        let stats = LinkStats::from_routes(&routes);
        let exclude = [routes[0].src()];
        let top = stats.top_links_excluding(&exclude);
        // Either the fallback fired (all links touch the excluded node) or
        // no returned link touches it.
        let all_touch = stats.counts().all(|(l, _)| l.touches(exclude[0]));
        if !all_touch {
            for l in top {
                prop_assert!(!l.touches(exclude[0]), "{l} touches excluded");
            }
        }
    }

    #[test]
    fn pmf_masses_sum_to_one(samples in proptest::collection::vec(0.0f64..1.0, 1..200), bins in 2usize..40) {
        let pmf = Pmf::from_samples(bins, &samples);
        let sum: f64 = pmf.masses().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(pmf.sample_count(), samples.len() as u64);
    }

    #[test]
    fn pmf_total_variation_is_a_metric_ish(
        a in proptest::collection::vec(0.0f64..1.0, 1..100),
        b in proptest::collection::vec(0.0f64..1.0, 1..100),
    ) {
        let pa = Pmf::from_samples(16, &a);
        let pb = Pmf::from_samples(16, &b);
        let d_ab = pa.total_variation(&pb);
        let d_ba = pb.total_variation(&pa);
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_ab), "bounded");
        prop_assert!(pa.total_variation(&pa) < 1e-12, "identity");
    }

    #[test]
    fn pmf_support_max_bounds_all_samples(samples in proptest::collection::vec(0.0f64..1.0, 1..100)) {
        let pmf = Pmf::from_samples(20, &samples);
        let support = pmf.support_max();
        for &s in &samples {
            prop_assert!(s <= support + 1e-12, "sample {s} beyond support {support}");
        }
    }

    #[test]
    fn forgetting_update_is_a_convex_combination(
        old in -10.0f64..10.0,
        new in -10.0f64..10.0,
        lambda in 0.0f64..1.0,
        beta in 0.0f64..1.0,
    ) {
        let v = forgetting_update(old, new, lambda, beta);
        let lo = old.min(new) - 1e-12;
        let hi = old.max(new) + 1e-12;
        prop_assert!((lo..=hi).contains(&v), "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn feature_stat_mean_between_min_and_max(samples in proptest::collection::vec(0.0f64..1.0, 1..50)) {
        let s = FeatureStat::from_samples(&samples);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(s.mean >= min - 1e-12 && s.mean <= max + 1e-12);
        prop_assert!(s.std >= 0.0);
        prop_assert_eq!(s.max, max);
        prop_assert_eq!(s.n, samples.len());
    }

    #[test]
    fn lambda_is_bounded_and_monotone(z1 in -20.0f64..20.0, z2 in -20.0f64..20.0) {
        let d = SamDetector::default();
        let l1 = d.lambda_of_z(z1);
        let l2 = d.lambda_of_z(z2);
        prop_assert!((0.0..=1.0).contains(&l1));
        if z1 < z2 {
            prop_assert!(l1 >= l2, "λ must be non-increasing in z");
        }
    }
}
