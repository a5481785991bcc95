//! Differential harness for the hot-path overhaul: every optimized data
//! structure must be *observably identical* to the implementation it
//! replaced.
//!
//! Three rewrites ride on the same determinism contract (a run is a pure
//! function of `(topology, behaviours, seed)`):
//!
//! * the struct-of-arrays event queue vs the pre-overhaul
//!   `BinaryHeap<Event>` (`Network::use_reference_queue`),
//! * the scratch-region RREQ policy stores vs the `HashMap`/`HashSet`
//!   originals (`RouterConfig::with_reference_stores`), and
//! * the `LinkMap` tabulation vs `HashMap<Link, u32>`
//!   (`RefLinkStats`).
//!
//! The harness runs the paper scenarios — two-cluster (Fig. 1), 6×6 grid
//! (Fig. 2), random disc (Fig. 9) — through the *reference* composition
//! (reference queue + reference stores + reference tabulation) and the
//! *optimized* composition, seeded, with and without a composed fault
//! plan, under two attacker variants, and asserts byte-identical traces,
//! route multisets, link-frequency tables, and `p_max`/`Δ`/suspect-link
//! verdicts. Run under `--release`: the reference path exists for
//! equivalence, not speed.

use manet_attacks::{attack_session, AttackWiring, WormholeConfig};
use manet_routing::{ProtocolKind, RouterConfig, DEFAULT_MAX_WAIT};
use manet_sim::{LatencyModel, TraceEntry};
use sam::{LinkStats, RefLinkStats};
use sam_experiments::prelude::*;
use sam_faults::{ChurnKind, FaultPlan, JitterSpec, LossBurst};

/// Everything one run exposes that the overhaul could have perturbed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Full structural event trace (ids, causes, times, kinds).
    trace: Vec<TraceEntry>,
    /// Engine events dispatched.
    events: u64,
    /// Route multiset (sorted node sequences).
    routes: Vec<Vec<u32>>,
    /// Sorted `(link, n_i)` table.
    table: Vec<((u32, u32), u32)>,
    /// Eq. 3.
    p_max: f64,
    /// Eq. 7.
    delta: f64,
    /// Localization verdict (deterministic tie-break).
    suspect: Option<(u32, u32)>,
    /// Discovery overhead (tx + rx).
    overhead: u64,
}

/// The composed fault plan for the faulted runs: a mid-discovery loss
/// burst, one crash, and duplication/reordering jitter — every fault
/// class the engine models, all stressing event ordering at once.
fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .named("differential")
        .with_burst(LossBurst::window(2_000, 9_000, 0.15))
        .with_churn(6_000, 3, ChurnKind::Crash)
        .with_jitter(JitterSpec {
            dup_prob: 0.05,
            dup_delay_us: 250,
            reorder_prob: 0.05,
            reorder_delay_us: 400,
        })
}

/// One attacked discovery through either composition. `reference`
/// selects the pre-overhaul implementations end to end.
fn run_path(
    topology: TopologyKind,
    worm_cfg: WormholeConfig,
    faults: Option<&FaultPlan>,
    run: u64,
    reference: bool,
) -> Observed {
    let spec = ScenarioSpec::attacked(topology, ProtocolKind::Mr);
    let run_seed = derive_seed(spec.base_seed, run);
    let plan = build_plan(&spec, run);
    let (src, dst) = draw_endpoints(&plan, run_seed);

    let mut router_cfg = RouterConfig::new(spec.protocol);
    if reference {
        router_cfg = router_cfg.with_reference_stores();
    }
    let wiring = AttackWiring::from_plan(&plan, &[0], worm_cfg);
    let mut session = attack_session(
        &plan,
        router_cfg,
        &wiring,
        LatencyModel::default(),
        run_seed,
    );
    if reference {
        // Must precede any scheduling (fault directives included):
        // backends share sequence numbering only from a cold start.
        session.network_mut().use_reference_queue();
        assert!(session.network_mut().uses_reference_queue());
    }
    if let Some(fp) = faults {
        sam_faults::apply(fp, session.network_mut()).expect("valid fault plan");
    }
    session.enable_trace(1_000_000);
    let outcome = session.discover(src, dst, DEFAULT_MAX_WAIT);
    assert!(!outcome.truncated, "event cap hit");
    let trace = session.take_trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "trace capacity too small");

    let mut routes: Vec<Vec<u32>> = outcome
        .routes
        .iter()
        .map(|r| r.nodes().iter().map(|n| n.0).collect())
        .collect();
    routes.sort();

    // Each composition tabulates with its own implementation.
    let (mut table, p_max, delta, suspect) = if reference {
        let s = RefLinkStats::from_routes(&outcome.routes);
        let t: Vec<((u32, u32), u32)> =
            s.counts().map(|(l, c)| ((l.lo().0, l.hi().0), c)).collect();
        (
            t,
            s.p_max(),
            s.delta(),
            s.suspect_link().map(|l| (l.lo().0, l.hi().0)),
        )
    } else {
        let s = LinkStats::from_routes(&outcome.routes);
        let t: Vec<((u32, u32), u32)> =
            s.counts().map(|(l, c)| ((l.lo().0, l.hi().0), c)).collect();
        (
            t,
            s.p_max(),
            s.delta(),
            s.suspect_link().map(|l| (l.lo().0, l.hi().0)),
        )
    };
    table.sort();

    Observed {
        trace: trace.entries().to_vec(),
        events: outcome.events,
        routes,
        table,
        p_max,
        delta,
        suspect,
        overhead: outcome.overhead,
    }
}

/// Assert reference and optimized compositions agree on everything, with
/// a readable field-by-field failure before the full-struct comparison.
fn assert_equivalent(label: &str, topology: TopologyKind, cfg: WormholeConfig, faulted: bool) {
    let plan = fault_plan();
    let faults = faulted.then_some(&plan);
    for run in [0u64, 1] {
        let reference = run_path(topology, cfg, faults, run, true);
        let optimized = run_path(topology, cfg, faults, run, false);
        let ctx = format!("{label} run {run} faulted={faulted}");
        assert_eq!(reference.events, optimized.events, "{ctx}: event count");
        assert_eq!(
            reference.trace.len(),
            optimized.trace.len(),
            "{ctx}: trace length"
        );
        if let Some(i) =
            (0..reference.trace.len()).find(|&i| reference.trace[i] != optimized.trace[i])
        {
            panic!(
                "{ctx}: trace diverges at entry {i}:\n  reference: {:?}\n  optimized: {:?}",
                reference.trace[i], optimized.trace[i]
            );
        }
        assert_eq!(reference.routes, optimized.routes, "{ctx}: route multiset");
        assert_eq!(reference.table, optimized.table, "{ctx}: link table");
        assert_eq!(reference.p_max, optimized.p_max, "{ctx}: p_max");
        assert_eq!(reference.delta, optimized.delta, "{ctx}: delta");
        assert_eq!(reference.suspect, optimized.suspect, "{ctx}: suspect link");
        assert_eq!(reference, optimized, "{ctx}");
        // The run must have produced something worth pinning.
        assert!(
            !reference.routes.is_empty(),
            "{ctx}: discovery found no routes — the comparison is vacuous"
        );
    }
}

#[test]
fn cluster1_relay_wormhole_matches() {
    assert_equivalent(
        "cluster1/relay",
        TopologyKind::cluster1(),
        WormholeConfig::default(),
        false,
    );
}

#[test]
fn cluster1_blackholing_wormhole_matches_under_faults() {
    assert_equivalent(
        "cluster1/blackholing",
        TopologyKind::cluster1(),
        WormholeConfig::blackholing(),
        true,
    );
}

#[test]
fn grid6x6_relay_wormhole_matches_under_faults() {
    assert_equivalent(
        "grid6x6/relay",
        TopologyKind::uniform6x6(),
        WormholeConfig::default(),
        true,
    );
}

#[test]
fn grid6x6_blackholing_wormhole_matches() {
    assert_equivalent(
        "grid6x6/blackholing",
        TopologyKind::uniform6x6(),
        WormholeConfig::blackholing(),
        false,
    );
}

#[test]
fn random_disc_relay_wormhole_matches() {
    assert_equivalent(
        "random/relay",
        TopologyKind::Random,
        WormholeConfig::default(),
        false,
    );
}

#[test]
fn random_disc_selective_wormhole_matches_under_faults() {
    assert_equivalent(
        "random/selective",
        TopologyKind::Random,
        WormholeConfig::selective(0.5),
        true,
    );
}

/// `Procedure::execute` is SAM's analysis followed by the steps 2–3
/// `run_procedure` runs for every detector; this pins its SAM-typed view
/// on the exact routes the seed cluster-1 scenarios produce. Against
/// `run_procedure` driving a [`SamDetector`] as a `&dyn Detector`: the
/// same outcome class, selected routes and confirmed report, and on the
/// anomalous variants the analysis the verdict was built from.
#[test]
fn trait_object_sam_path_matches_concrete_procedure() {
    use sam::prelude::*;

    let topology = TopologyKind::cluster1();
    let protocol = ProtocolKind::Mr;
    let normal = ScenarioSpec::normal(topology, protocol);
    let attacked = normal.with_wormholes(1);

    // Train exactly as the experiments do: clean normal runs, offset
    // from the evaluation indices.
    let training: Vec<Vec<manet_routing::Route>> = (0..8)
        .map(|i| run_once_with_routes(&normal, 1000 + i).1)
        .collect();
    let sam_cfg = SamConfig::calibrated();
    let profile = NormalProfile::train(&training, sam_cfg.pmf_bins);

    let detector = SamDetector::new(sam_cfg);
    let procedure = Procedure::new(SamDetector::new(sam_cfg), ProcedureConfig::default());
    let proc_cfg = ProcedureConfig::default();

    let mut confirmed = 0usize;
    let mut normal_runs = 0usize;
    // Attacked runs probe through a transport that blackholes the
    // suspect link (the tunnel swallows probes), normal runs through an
    // all-ack transport — both compositions see identical probe
    // behaviour either way, so the mix exercises every outcome class.
    for (spec, blackhole) in [(&attacked, true), (&normal, false)] {
        for run in 0..4u64 {
            let (_, routes) = run_once_with_routes(spec, run);
            assert!(!routes.is_empty(), "run {run}: vacuous comparison");

            let suspect = detector
                .analyze(&routes, &profile)
                .suspect_link
                .filter(|_| blackhole);
            let (concrete, trait_path) = match suspect {
                Some(link) => {
                    let mut t1 = blackhole_transport(link);
                    let concrete = procedure.execute(&routes, &profile, &mut t1);
                    let mut t2 = blackhole_transport(link);
                    let input = DetectorInput::new(&routes, &profile);
                    (
                        concrete,
                        run_procedure(&detector, &input, &proc_cfg, &mut t2),
                    )
                }
                None => {
                    let mut t1 = all_ack_transport();
                    let concrete = procedure.execute(&routes, &profile, &mut t1);
                    let mut t2 = all_ack_transport();
                    let input = DetectorInput::new(&routes, &profile);
                    (
                        concrete,
                        run_procedure(&detector, &input, &proc_cfg, &mut t2),
                    )
                }
            };

            let ctx = format!("{:?} run {run}", spec.topology);
            match (&concrete, &trait_path) {
                (
                    DetectionOutcome::Normal { selected_routes: a },
                    DetectorOutcome::Normal {
                        verdict,
                        selected_routes: b,
                    },
                ) => {
                    normal_runs += 1;
                    assert!(!verdict.anomalous, "{ctx}: verdict class");
                    assert_eq!(a, b, "{ctx}: selected routes");
                }
                (
                    DetectionOutcome::SuspiciousUnconfirmed {
                        analysis,
                        selected_routes: a,
                    },
                    DetectorOutcome::SuspiciousUnconfirmed {
                        verdict,
                        selected_routes: b,
                    },
                ) => {
                    assert_eq!(
                        verdict_from_sam(&sam_cfg, analysis),
                        *verdict,
                        "{ctx}: analysis"
                    );
                    assert_eq!(a, b, "{ctx}: selected routes");
                }
                (
                    DetectionOutcome::Confirmed {
                        report: ra,
                        analysis,
                    },
                    DetectorOutcome::Confirmed {
                        verdict,
                        report: rb,
                    },
                ) => {
                    confirmed += 1;
                    assert_eq!(
                        verdict_from_sam(&sam_cfg, analysis),
                        *verdict,
                        "{ctx}: analysis"
                    );
                    assert_eq!(ra, rb, "{ctx}: confirmed report");
                }
                (a, b) => {
                    panic!("{ctx}: outcome classes diverge:\n  concrete: {a:?}\n  trait: {b:?}")
                }
            }
        }
    }
    // The mix must exercise both ends or the equivalence is vacuous.
    assert!(confirmed > 0, "no confirmed verdicts in the seed scenarios");
    assert!(normal_runs > 0, "no normal verdicts in the seed scenarios");
}

/// The dense tabulation and the reference tabulation must agree *on the
/// same captured route set* too (the end-to-end checks above compare
/// them across separately-executed runs).
#[test]
fn tabulations_agree_on_one_capture() {
    let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
    let (_, routes) = run_once_with_routes(&spec, 0);
    assert!(!routes.is_empty());
    let dense = LinkStats::from_routes(&routes);
    let reference = RefLinkStats::from_routes(&routes);
    assert_eq!(dense.total_links(), reference.total_links());
    assert_eq!(dense.distinct_links(), reference.distinct_links());
    assert_eq!(dense.p_max(), reference.p_max());
    assert_eq!(dense.delta(), reference.delta());
    assert_eq!(dense.suspect_link(), reference.suspect_link());
    let mut a: Vec<_> = dense.counts().collect();
    let mut b: Vec<_> = reference.counts().collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}
