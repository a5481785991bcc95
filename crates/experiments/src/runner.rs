//! Run executor: one simulated discovery per run, paired normal/attacked,
//! parallel across runs.

use crate::scenario::{derive_seed, draw_endpoints, ScenarioSpec};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use manet_sim::prelude::*;
use parking_lot::Mutex;
use sam::LinkStats;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::LazyLock;

/// Everything measured in one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// Run index (the paper's "Run 1..10").
    pub run: u64,
    /// Drawn source.
    pub src: NodeId,
    /// Drawn destination.
    pub dst: NodeId,
    /// Routes collected at the destination.
    pub n_routes: usize,
    /// SAM feature `p_max` of the route set.
    pub p_max: f64,
    /// SAM feature `Δ` of the route set.
    pub delta: f64,
    /// Fraction of routes containing any active tunnel link (Table I).
    pub affected: f64,
    /// Total tx+rx at all nodes for this discovery (Table II).
    pub overhead: u64,
    /// Whether SAM's suspect link is exactly an active tunnel link
    /// (`None` for normal runs, where there is nothing to localize).
    pub suspect_is_tunnel: Option<bool>,
}

/// Build the plan for a spec/run, growing extra wormhole pairs if the
/// scenario asks for more than the generator placed.
///
/// Extra pairs mirror the first pair across the deployment's horizontal
/// midline (or sit at ¾ height when the first pair already lies on the
/// midline), preserving the "long tunnel, ordinary local connectivity"
/// property.
pub fn build_plan(spec: &ScenarioSpec, run: u64) -> NetworkPlan {
    let run_seed = derive_seed(spec.base_seed, run);
    let mut plan = spec.topology.build(run_seed);
    while plan.attacker_pairs.len() < spec.active_wormholes {
        let first = plan.attacker_pairs[0];
        let pa = plan.topology.position(first.a);
        let pb = plan.topology.position(first.b);
        let (min_y, max_y) = plan
            .topology
            .positions()
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), p| {
                (lo.min(p.y), hi.max(p.y))
            });
        let mirror = |y: f64| {
            let m = max_y + min_y - y;
            if (m - y).abs() < 1.0 {
                min_y + 0.75 * (max_y - min_y)
            } else {
                m
            }
        };
        plan =
            plan.with_additional_pair(Pos::new(pa.x, mirror(pa.y)), Pos::new(pb.x, mirror(pb.y)));
        debug_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
    }
    plan
}

/// Execute one run; returns the record and the collected route set (the
/// latter feeds Fig. 5's PMFs and profile training).
pub fn run_once_with_routes(spec: &ScenarioSpec, run: u64) -> (RunRecord, Vec<Route>) {
    run_once_configured(
        spec,
        run,
        &RouterConfig::new(spec.protocol),
        WormholeConfig::default(),
    )
}

/// Execute one run with explicit router and wormhole configurations (the
/// ablation benches sweep these).
pub fn run_once_configured(
    spec: &ScenarioSpec,
    run: u64,
    router_cfg: &RouterConfig,
    worm_cfg: WormholeConfig,
) -> (RunRecord, Vec<Route>) {
    run_once_faulted(spec, run, router_cfg, worm_cfg, None)
}

/// Cap on memoized runs. The reproduce suite needs a few hundred; the
/// cap only bounds memory for long-running embedders that sweep an
/// unbounded variety of configurations.
const RUN_CACHE_CAP: usize = 4096;

/// One memoized outcome: the run record plus its discovered route set.
type CachedRun = (RunRecord, Vec<Route>);

/// Memoized [`run_once_faulted`] results. A run is a pure function of
/// its inputs (the simulator's determinism contract), and the
/// experiment suite replays the same (spec, run, configuration)
/// combination dozens of times across tables, figures, and ablations —
/// the cluster-1 attacked baseline alone recurs ~60× per `reproduce`
/// invocation. Sharing outcomes here outweighs any micro-optimization
/// in the loop underneath. The key is the `Debug` rendering of every
/// semantic input, so adding a config field can never silently alias
/// two distinct runs.
static RUN_CACHE: LazyLock<Mutex<HashMap<String, CachedRun>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Execute one run with an optional [`FaultPlan`](sam_faults::FaultPlan)
/// composed onto the scenario (the robustness sweeps feed loss bursts,
/// churn and jitter through here). `None` is byte-identical to
/// [`run_once_configured`]. Results are memoized in the process-wide
/// run cache.
pub fn run_once_faulted(
    spec: &ScenarioSpec,
    run: u64,
    router_cfg: &RouterConfig,
    worm_cfg: WormholeConfig,
    faults: Option<&sam_faults::FaultPlan>,
) -> (RunRecord, Vec<Route>) {
    let cache_key = format!("{spec:?}|{run}|{router_cfg:?}|{worm_cfg:?}|{faults:?}");
    if let Some(hit) = RUN_CACHE.lock().get(&cache_key) {
        let hit = hit.clone();
        if let Some(tel) = sam_telemetry::global() {
            tel.registry().counter("discovery.cache_hits").inc();
        }
        return hit;
    }
    let run_seed = derive_seed(spec.base_seed, run);
    let mut span = sam_telemetry::span("experiment.run");
    span.field("scenario", spec.topology.label());
    span.field("protocol", spec.protocol.label());
    span.field("run", run);
    span.field("seed", run_seed);
    let plan = build_plan(spec, run);
    let (src, dst) = draw_endpoints(&plan, run_seed);

    let active: Vec<usize> = (0..spec.active_wormholes).collect();
    let wiring = if active.is_empty() {
        AttackWiring::none()
    } else {
        AttackWiring::from_plan(&plan, &active, worm_cfg)
    };
    let mut session = attack_session(
        &plan,
        router_cfg.clone(),
        &wiring,
        LatencyModel::default(),
        run_seed,
    );
    if let Some(fault_plan) = faults {
        sam_faults::apply(fault_plan, session.network_mut()).expect("valid fault plan");
    }
    let outcome = session.discover(src, dst, DEFAULT_MAX_WAIT);
    assert!(
        !outcome.truncated,
        "engine event cap hit for {spec:?} run {run}"
    );

    let stats = LinkStats::from_routes(&outcome.routes);
    let active_pairs: Vec<AttackerPair> = plan.attacker_pairs[..spec.active_wormholes].to_vec();
    let affected = affected_fraction_any(&outcome.routes, &active_pairs);
    let suspect_is_tunnel = if active_pairs.is_empty() {
        None
    } else {
        // Localize the way the detector does: ignore endpoint-adjacent
        // links and count success if the tunnel is among the links tied
        // for the maximum (a shared capture prefix ties the whole chain).
        let top = stats.top_links_excluding(&[src, dst]);
        Some(active_pairs.iter().any(|&p| top.contains(&tunnel_link(p))))
    };

    span.field("routes", outcome.routes.len());
    span.field("overhead", outcome.overhead);
    let record = RunRecord {
        run,
        src,
        dst,
        n_routes: outcome.routes.len(),
        p_max: stats.p_max(),
        delta: stats.delta(),
        affected,
        overhead: outcome.overhead,
        suspect_is_tunnel,
    };
    let mut cache = RUN_CACHE.lock();
    if cache.len() < RUN_CACHE_CAP {
        cache.insert(cache_key, (record.clone(), outcome.routes.clone()));
    }
    drop(cache);
    (record, outcome.routes)
}

/// Execute one run, discarding the route set.
pub fn run_once(spec: &ScenarioSpec, run: u64) -> RunRecord {
    run_once_with_routes(spec, run).0
}

/// [`run_once_with_routes`] under an optional fault plan, with default
/// router/wormhole configurations (what `loadgen --faults` replays).
pub fn run_once_with_routes_faulted(
    spec: &ScenarioSpec,
    run: u64,
    faults: Option<&sam_faults::FaultPlan>,
) -> (RunRecord, Vec<Route>) {
    run_once_faulted(
        spec,
        run,
        &RouterConfig::new(spec.protocol),
        WormholeConfig::default(),
        faults,
    )
}

/// Process-wide override for [`run_series`]'s worker count; 0 = auto
/// (available parallelism). Set from the `reproduce` binary's `--jobs`.
static GLOBAL_JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Set the worker-thread count every subsequent [`run_series`] call uses
/// (`0` restores the default of one thread per available core).
pub fn set_global_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, std::sync::atomic::Ordering::Relaxed);
}

/// Execute runs `0..n` in parallel (one independent simulation each) and
/// return the records in run order. Thread count comes from
/// [`set_global_jobs`], defaulting to one per available core.
pub fn run_series(spec: &ScenarioSpec, n: u64) -> Vec<RunRecord> {
    let jobs = match GLOBAL_JOBS.load(std::sync::atomic::Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    };
    run_series_jobs(spec, n, jobs)
}

/// The default worker count for [`run_series_jobs`]: available
/// parallelism, or 4 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Execute runs `0..n` on exactly `jobs` worker threads (clamped to
/// `1..=n`) and return the records in run order.
///
/// Each run is an independent simulation with its own derived seed, so the
/// records are identical whatever `jobs` is — only wall-clock changes.
pub fn run_series_jobs(spec: &ScenarioSpec, n: u64, jobs: usize) -> Vec<RunRecord> {
    let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; n as usize]);
    let threads = jobs.min(n as usize).max(1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let results = &results;
            s.spawn(move || {
                let mut run = t as u64;
                while run < n {
                    let rec = run_once(spec, run);
                    results.lock()[run as usize] = Some(rec);
                    run += threads as u64;
                }
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("all runs executed"))
        .collect()
}

/// Mean of a field over a series.
pub fn mean_of(records: &[RunRecord], f: impl Fn(&RunRecord) -> f64) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().map(f).sum::<f64>() / records.len() as f64
}

/// The paper's standard series length.
pub const PAPER_RUNS: u64 = 10;

/// Offset separating profile-training run indices from evaluation (and
/// serving) indices, so a profile never sees its own evaluation data.
pub const TRAIN_OFFSET: u64 = 1000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologyKind;
    use manet_routing::ProtocolKind;

    #[test]
    fn paired_runs_share_endpoints() {
        let normal = ScenarioSpec::normal(TopologyKind::uniform6x6(), ProtocolKind::Mr);
        let attacked = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
        let (rn, _) = run_once_with_routes(&normal, 3);
        let (ra, _) = run_once_with_routes(&attacked, 3);
        assert_eq!((rn.src, rn.dst), (ra.src, ra.dst));
        assert_eq!(rn.affected, 0.0);
        assert!(rn.suspect_is_tunnel.is_none());
        assert!(ra.suspect_is_tunnel.is_some());
    }

    #[test]
    fn attacked_cluster_run_is_captured_and_localized() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let rec = run_once(&spec, 0);
        assert!(rec.n_routes > 0);
        assert!(rec.affected > 0.9, "affected = {}", rec.affected);
        assert_eq!(rec.suspect_is_tunnel, Some(true));
    }

    #[test]
    fn series_is_deterministic_and_ordered() {
        let spec = ScenarioSpec::normal(TopologyKind::uniform6x6(), ProtocolKind::Dsr);
        let a = run_series(&spec, 4);
        let b = run_series(&spec, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.run, y.run);
            assert_eq!(x.p_max, y.p_max);
            assert_eq!(x.overhead, y.overhead);
        }
        assert_eq!(a[2].run, 2);
    }

    #[test]
    fn series_records_are_invariant_in_job_count() {
        let spec = ScenarioSpec::attacked(TopologyKind::uniform6x6(), ProtocolKind::Mr);
        let one = run_series_jobs(&spec, 5, 1);
        for jobs in [2, 8] {
            let many = run_series_jobs(&spec, 5, jobs);
            for (x, y) in one.iter().zip(&many) {
                assert_eq!(x.run, y.run);
                assert_eq!(x.p_max, y.p_max);
                assert_eq!(x.delta, y.delta);
                assert_eq!(x.overhead, y.overhead);
            }
        }
    }

    #[test]
    fn two_wormhole_plan_grows_a_mirrored_pair() {
        let spec =
            ScenarioSpec::attacked(TopologyKind::uniform10x6(), ProtocolKind::Mr).with_wormholes(2);
        let plan = build_plan(&spec, 0);
        assert_eq!(plan.attacker_pairs.len(), 2);
        plan.validate().unwrap();
        let span = plan.tunnel_span_hops(1).unwrap();
        assert!(span >= 4, "second tunnel span {span}");
        let rec = run_once(&spec, 0);
        assert!(rec.n_routes > 0);
    }

    #[test]
    fn faultless_run_matches_configured_run_exactly() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let cfg = RouterConfig::new(spec.protocol);
        let (plain, routes_plain) = run_once_configured(&spec, 1, &cfg, WormholeConfig::default());
        let (inert, routes_inert) = run_once_faulted(
            &spec,
            1,
            &cfg,
            WormholeConfig::default(),
            Some(&sam_faults::FaultPlan::none()),
        );
        assert_eq!(routes_plain, routes_inert);
        assert_eq!(plain.p_max, inert.p_max);
        assert_eq!(plain.overhead, inert.overhead);
    }

    #[test]
    fn total_loss_plan_silences_discovery() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let cfg = RouterConfig::new(spec.protocol);
        let plan = sam_faults::FaultPlan::constant_loss(1.0);
        let (rec, routes) =
            run_once_faulted(&spec, 0, &cfg, WormholeConfig::default(), Some(&plan));
        assert_eq!(routes.len(), 0, "no radio delivery can survive p=1 loss");
        assert_eq!(rec.n_routes, 0);
    }

    #[test]
    fn mean_of_handles_empty() {
        assert_eq!(mean_of(&[], |r| r.p_max), 0.0);
    }
}
