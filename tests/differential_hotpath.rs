//! Differential harness for the hot-path overhaul: every optimized data
//! structure must be *observably identical* to the implementation it
//! replaced:
//!
//! * the struct-of-arrays event queue replaced a `BinaryHeap<Event>`,
//! * the scratch-region RREQ policy stores replaced `HashMap`/`HashSet`
//!   stores, and
//! * the `LinkMap` tabulation replaced a `HashMap<Link, u32>` tally.
//!
//! The harness runs the paper scenarios — two-cluster (Fig. 1), 6×6 grid
//! (Fig. 2), random disc (Fig. 9) — seeded, with and without a composed
//! fault plan, under two attacker variants, and checks each run against
//! `tests/golden/differential/<case>.json`: event count, overhead, route
//! multiset, link table, `p_max`/`Δ`/suspect link, trace length, and an
//! FNV-1a digest per block of 1,000 trace entries. Those files hold the
//! replaced composition's output, recorded while both compositions still
//! ran and agreed byte for byte, so the check needs no second
//! implementation. Each run's link table is also checked, as it runs,
//! against the `HashMap<Link, u32>` tally, kept here as a test oracle.
//!
//! When a change moves the output *intentionally*, regenerate the files
//! and review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test differential_hotpath
//! git diff tests/golden/differential/
//! ```

use manet_attacks::{attack_session, AttackWiring, WormholeConfig};
use manet_routing::{ProtocolKind, Route, RouterConfig, DEFAULT_MAX_WAIT};
use manet_sim::{LatencyModel, Link, TraceEntry};
use sam::LinkStats;
use sam_experiments::prelude::*;
use sam_faults::{ChurnKind, FaultPlan, JitterSpec, LossBurst};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;

/// Oracle for [`LinkStats`]: the pre-overhaul `HashMap<Link, u32>` tally,
/// with each feature derived from it the way the pre-overhaul table did.
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

/// Assert `stats` tabulates `routes` exactly as [`HashedTally`] does.
fn assert_matches_tally(ctx: &str, stats: &LinkStats, routes: &[Route]) {
    let tally = HashedTally::from_routes(routes);
    assert_eq!(stats.total_links(), tally.total, "{ctx}: N");
    assert_eq!(stats.distinct_links(), tally.counts.len(), "{ctx}: |L|");
    assert_eq!(stats.top_two(), tally.top_two(), "{ctx}: top two");
    assert_eq!(stats.p_max(), tally.p_max(), "{ctx}: p_max");
    assert_eq!(stats.delta(), tally.delta(), "{ctx}: delta");
    assert_eq!(stats.suspect_link(), tally.suspect_link(), "{ctx}: suspect");
    let mut a: Vec<(Link, u32)> = stats.counts().collect();
    let mut b: Vec<(Link, u32)> = tally.counts.into_iter().collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "{ctx}: link table");
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

/// Trace entries per digest block.
const TRACE_BLOCK: usize = 1_000;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// One FNV-1a digest per block of [`TRACE_BLOCK`] entries, over each
/// entry's compact JSON line (newline included), as 16 hex digits.
fn trace_digests(trace: &[TraceEntry]) -> Vec<String> {
    trace
        .chunks(TRACE_BLOCK)
        .map(|block| {
            let hash = block.iter().fold(0xcbf2_9ce4_8422_2325, |h, entry| {
                let line = serde_json::to_string(entry).expect("trace entry serializes");
                fnv1a(fnv1a(h, line.as_bytes()), b"\n")
            });
            format!("{hash:016x}")
        })
        .collect()
}

/// Everything one run exposes that the overhaul could have perturbed, as
/// a golden file keeps it: the trace is cut down to its length and block
/// digests (the full traces of all twelve runs are megabytes of JSON).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FrozenRun {
    run: u64,
    /// Engine events dispatched.
    events: u64,
    /// Discovery overhead (tx + rx).
    overhead: u64,
    /// Sorted route multiset, each route's node ids joined by `-`.
    routes: Vec<String>,
    /// Sorted link table, one `"lo-hi: n_i"` per link.
    table: Vec<String>,
    /// Eq. 3.
    p_max: f64,
    /// Eq. 7.
    delta: f64,
    /// Localization verdict (deterministic tie-break).
    suspect: Option<(u32, u32)>,
    trace_len: usize,
    /// [`trace_digests`] of the full structural event trace (ids, causes,
    /// times, kinds).
    trace_blocks: Vec<String>,
}

/// One attacked discovery, seeded by `run`, with its link table checked
/// against the [`HashedTally`] oracle.
fn run_path(
    topology: TopologyKind,
    worm_cfg: WormholeConfig,
    faults: Option<&FaultPlan>,
    run: u64,
    ctx: &str,
) -> FrozenRun {
    let spec = ScenarioSpec::attacked(topology, ProtocolKind::Mr);
    let run_seed = derive_seed(spec.base_seed, run);
    let plan = build_plan(&spec, run);
    let (src, dst) = draw_endpoints(&plan, run_seed);

    let wiring = AttackWiring::from_plan(&plan, &[0], worm_cfg);
    let mut session = attack_session(
        &plan,
        RouterConfig::new(spec.protocol),
        &wiring,
        LatencyModel::default(),
        run_seed,
    );
    if let Some(fp) = faults {
        sam_faults::apply(fp, session.network_mut()).expect("valid fault plan");
    }
    session.enable_trace(1_000_000);
    let outcome = session.discover(src, dst, DEFAULT_MAX_WAIT);
    assert!(!outcome.truncated, "{ctx}: event cap hit");
    let trace = session.take_trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "{ctx}: trace capacity too small");
    // The run must have produced something worth pinning.
    assert!(
        !outcome.routes.is_empty(),
        "{ctx}: discovery found no routes — the comparison is vacuous"
    );

    let stats = LinkStats::from_routes(&outcome.routes);
    assert_matches_tally(ctx, &stats, &outcome.routes);

    let mut routes: Vec<Vec<u32>> = outcome
        .routes
        .iter()
        .map(|r| r.nodes().iter().map(|n| n.0).collect())
        .collect();
    routes.sort();
    let mut table: Vec<(Link, u32)> = stats.counts().collect();
    table.sort();
    let join = |ids: &[u32]| ids.iter().map(u32::to_string).collect::<Vec<_>>().join("-");

    FrozenRun {
        run,
        events: outcome.events,
        overhead: outcome.overhead,
        routes: routes.iter().map(|r| join(r)).collect(),
        table: table
            .iter()
            .map(|(l, n)| format!("{}-{}: {n}", l.lo().0, l.hi().0))
            .collect(),
        p_max: stats.p_max(),
        delta: stats.delta(),
        suspect: stats.suspect_link().map(|l| (l.lo().0, l.hi().0)),
        trace_len: trace.entries().len(),
        trace_blocks: trace_digests(trace.entries()),
    }
}

/// `tests/golden/differential/<case>.json`.
fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/differential")
        .join(format!("{case}.json"))
}

/// Compare `runs` against the frozen output of `case` or, with
/// `UPDATE_GOLDEN=1`, rewrite it. Fields are checked one by one so a
/// failure names what moved; `p_max` and `Δ` are compared exactly, since
/// the JSON writer emits the shortest text that parses back to the same
/// `f64`.
fn check_golden(case: &str, runs: &[FrozenRun]) {
    let path = golden_path(case);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string_pretty(runs).unwrap();
        std::fs::write(&path, json).unwrap();
        eprintln!("golden: rewrote {}", path.display());
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing frozen output {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let expected: Vec<FrozenRun> =
        serde_json::from_str(&stored).unwrap_or_else(|e| panic!("corrupt {}: {e}", path.display()));
    assert_eq!(expected.len(), runs.len(), "{case}: run count");
    for (want, got) in expected.iter().zip(runs) {
        let ctx = format!("{case} run {}", got.run);
        assert_eq!(want.run, got.run, "{ctx}: run index");
        assert_eq!(want.events, got.events, "{ctx}: event count");
        assert_eq!(want.overhead, got.overhead, "{ctx}: overhead");
        assert_eq!(want.trace_len, got.trace_len, "{ctx}: trace length");
        if let Some(block) = (0..want.trace_blocks.len().min(got.trace_blocks.len()))
            .find(|&b| want.trace_blocks[b] != got.trace_blocks[b])
        {
            panic!(
                "{ctx}: trace block {block} (entries {}..{}) moved",
                block * TRACE_BLOCK,
                (block + 1) * TRACE_BLOCK
            );
        }
        assert_eq!(want.routes, got.routes, "{ctx}: route multiset");
        assert_eq!(want.table, got.table, "{ctx}: link table");
        assert_eq!(want.p_max, got.p_max, "{ctx}: p_max");
        assert_eq!(want.delta, got.delta, "{ctx}: delta");
        assert_eq!(want.suspect, got.suspect, "{ctx}: suspect link");
        assert_eq!(want, got, "{ctx}");
    }
}

/// Run both seeds of one scenario and check them against its frozen
/// output, `tests/golden/differential/<label>[_faulted].json`.
fn assert_matches_frozen(label: &str, topology: TopologyKind, cfg: WormholeConfig, faulted: bool) {
    let plan = fault_plan();
    let faults = faulted.then_some(&plan);
    let runs: Vec<FrozenRun> = [0u64, 1]
        .into_iter()
        .map(|run| {
            let ctx = format!("{label} run {run} faulted={faulted}");
            run_path(topology, cfg, faults, run, &ctx)
        })
        .collect();
    let case = label.replace('/', "_") + if faulted { "_faulted" } else { "" };
    check_golden(&case, &runs);
}

#[test]
fn cluster1_relay_wormhole_matches() {
    assert_matches_frozen(
        "cluster1/relay",
        TopologyKind::cluster1(),
        WormholeConfig::default(),
        false,
    );
}

#[test]
fn cluster1_blackholing_wormhole_matches_under_faults() {
    assert_matches_frozen(
        "cluster1/blackholing",
        TopologyKind::cluster1(),
        WormholeConfig::blackholing(),
        true,
    );
}

#[test]
fn grid6x6_relay_wormhole_matches_under_faults() {
    assert_matches_frozen(
        "grid6x6/relay",
        TopologyKind::uniform6x6(),
        WormholeConfig::default(),
        true,
    );
}

#[test]
fn grid6x6_blackholing_wormhole_matches() {
    assert_matches_frozen(
        "grid6x6/blackholing",
        TopologyKind::uniform6x6(),
        WormholeConfig::blackholing(),
        false,
    );
}

#[test]
fn random_disc_relay_wormhole_matches() {
    assert_matches_frozen(
        "random/relay",
        TopologyKind::Random,
        WormholeConfig::default(),
        false,
    );
}

#[test]
fn random_disc_selective_wormhole_matches_under_faults() {
    assert_matches_frozen(
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
/// same outcome class and confirmed report, the routes
/// `DetectorOutcome::select_routes` picks for its outcome equal to
/// `Procedure::execute`'s selection, and on the anomalous variants the
/// analysis the verdict was built from.
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
            let selected = trait_path.select_routes(&routes, &proc_cfg);
            match (&concrete, &trait_path) {
                (
                    DetectionOutcome::Normal { selected_routes },
                    DetectorOutcome::Normal { verdict },
                ) => {
                    normal_runs += 1;
                    assert!(!verdict.anomalous, "{ctx}: verdict class");
                    assert_eq!(*selected_routes, selected, "{ctx}: selected routes");
                }
                (
                    DetectionOutcome::SuspiciousUnconfirmed {
                        analysis,
                        selected_routes,
                    },
                    DetectorOutcome::SuspiciousUnconfirmed { verdict },
                ) => {
                    assert_eq!(
                        verdict_from_sam(&sam_cfg, analysis),
                        *verdict,
                        "{ctx}: analysis"
                    );
                    assert_eq!(*selected_routes, selected, "{ctx}: selected routes");
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
                    assert!(selected.is_empty(), "{ctx}: confirmed selects nothing");
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

/// The dense tabulation and the `HashMap` oracle must agree on one
/// captured route set of the experiments' own pipeline too.
#[test]
fn tabulations_agree_on_one_capture() {
    let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
    let (_, routes) = run_once_with_routes(&spec, 0);
    assert!(!routes.is_empty());
    assert_matches_tally(
        "cluster1 capture",
        &LinkStats::from_routes(&routes),
        &routes,
    );
}
