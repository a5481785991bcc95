//! Run executor: one simulated discovery per run, paired normal/attacked,
//! parallel across runs.
//!
//! Every run of a [`ScenarioSpec`] starts from [`Trial::new`], which
//! builds the run's plan, endpoints and attacked session once.

use crate::scenario::{derive_seed, draw_endpoints, ScenarioSpec};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use manet_sim::prelude::*;
use sam::{LinkStats, NormalProfile, SamConfig};
use sam_faults::FaultPlan;
use sam_telemetry::{SpanGuard, SpanParent};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// One run of a spec, built and ready to discover: its plan, its drawn
/// endpoints and the live session, with the spec's active wormhole pairs
/// wired and the fault plan applied. Set the session up further (trace,
/// telemetry) before [`discover`](Trial::discover); probe through it
/// after. The run's `experiment.run` span lives as long as the trial.
pub struct Trial {
    /// The run's plan (see [`build_plan`]).
    pub plan: NetworkPlan,
    /// Drawn source.
    pub src: NodeId,
    /// Drawn destination.
    pub dst: NodeId,
    /// The run's seed: `derive_seed(spec.base_seed, run)`.
    pub seed: u64,
    /// The session over the plan's nodes.
    pub session: Session<AttackNode>,
    span: SpanGuard,
}

impl Trial {
    /// Build run `run` of `spec`, with `worm_cfg` on each of the spec's
    /// active wormhole pairs and `faults`, if any, composed onto the
    /// network. A run is a pure function of these inputs.
    pub fn new(
        spec: &ScenarioSpec,
        run: u64,
        router_cfg: &RouterConfig,
        worm_cfg: WormholeConfig,
        faults: Option<&FaultPlan>,
    ) -> Trial {
        let seed = derive_seed(spec.base_seed, run);
        let mut span = sam_telemetry::span("experiment.run");
        span.field("scenario", spec.topology.label());
        span.field("protocol", spec.protocol.label());
        span.field("run", run);
        span.field("seed", seed);
        let plan = build_plan(spec, run);
        let (src, dst) = draw_endpoints(&plan, seed);
        let active: Vec<usize> = (0..spec.active_wormholes).collect();
        let wiring = AttackWiring::from_plan(&plan, &active, worm_cfg);
        let mut session = attack_session(
            &plan,
            router_cfg.clone(),
            &wiring,
            LatencyModel::default(),
            seed,
        );
        if let Some(fault_plan) = faults {
            sam_faults::apply(fault_plan, session.network_mut()).expect("valid fault plan");
        }
        Trial {
            plan,
            src,
            dst,
            seed,
            session,
            span,
        }
    }

    /// The run's route discovery from `src` to `dst`. Panics if the
    /// engine hits its event cap, which paper-scale runs never do.
    pub fn discover(&mut self) -> DiscoveryOutcome {
        let outcome = self.session.discover(self.src, self.dst, DEFAULT_MAX_WAIT);
        assert!(
            !outcome.truncated,
            "engine event cap hit: {} seed {}",
            self.plan.name, self.seed
        );
        self.span.field("routes", outcome.routes.len());
        self.span.field("overhead", outcome.overhead);
        outcome
    }
}

/// Execute one run; returns the record and the collected route set (the
/// latter feeds Fig. 5's PMFs and profile training).
pub fn run_once_with_routes(spec: &ScenarioSpec, run: u64) -> (RunRecord, Vec<Route>) {
    run_once_faulted(
        spec,
        run,
        &RouterConfig::new(spec.protocol),
        WormholeConfig::default(),
        None,
    )
}

/// Execute one [`Trial`] with explicit router and wormhole configurations
/// (the ablations sweep these) and an optional [`FaultPlan`] (the
/// robustness sweeps and `loadgen --faults` replay through here). Every
/// call simulates the run afresh.
pub fn run_once_faulted(
    spec: &ScenarioSpec,
    run: u64,
    router_cfg: &RouterConfig,
    worm_cfg: WormholeConfig,
    faults: Option<&FaultPlan>,
) -> (RunRecord, Vec<Route>) {
    let mut trial = Trial::new(spec, run, router_cfg, worm_cfg, faults);
    let outcome = trial.discover();
    let stats = LinkStats::from_routes(&outcome.routes);
    let active = &trial.plan.attacker_pairs[..spec.active_wormholes];
    let record = RunRecord {
        run,
        src: trial.src,
        dst: trial.dst,
        n_routes: outcome.routes.len(),
        p_max: stats.p_max(),
        delta: stats.delta(),
        affected: affected_fraction_any(&outcome.routes, active),
        overhead: outcome.overhead,
    };
    (record, outcome.routes)
}

/// Execute one run, discarding the route set.
pub fn run_once(spec: &ScenarioSpec, run: u64) -> RunRecord {
    run_once_with_routes(spec, run).0
}

/// Process-wide worker count for [`map_runs`]; 0 = auto (available
/// parallelism). Set from the `reproduce` binary's `--jobs`.
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker-thread count every subsequent [`map_runs`] call uses
/// (`0` restores the default of one thread per available core).
pub fn set_global_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, Ordering::Relaxed);
}

/// Execute runs `0..n` in parallel (one independent simulation each) and
/// return the records in run order.
pub fn run_series(spec: &ScenarioSpec, n: u64) -> Vec<RunRecord> {
    map_runs(0..n, |run| run_once(spec, run))
}

/// Apply `f` to every run index in `runs` on the worker count set by
/// [`set_global_jobs`] (one per available core by default, or 4 when the
/// core count is unknown) and return the results in run order. See
/// [`map_runs_jobs`].
pub fn map_runs<T: Send>(runs: Range<u64>, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let jobs = match GLOBAL_JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(4, |p| p.get()),
        n => n,
    };
    map_runs_jobs(runs, jobs, f)
}

/// Apply `f` to every run index in `runs` on exactly `jobs` worker
/// threads (at most one per run, at least one) and return the results in
/// run order.
///
/// Each worker claims the next unclaimed run until none is left, so one
/// slow run holds up no other. When `f` is a pure function of the run
/// index, as every run of a [`ScenarioSpec`] is, the results are
/// identical whatever `jobs` is — only wall-clock changes — and a caller
/// that folds them in order gets the bits a sequential loop gets. Spans
/// `f` opens are children of the span open where this is called; a
/// panic in `f` resumes on the calling thread.
pub fn map_runs_jobs<T: Send>(
    runs: Range<u64>,
    jobs: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    let n = runs.clone().count();
    let threads = jobs.min(n).max(1);
    let parent = SpanParent::current();
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let (f, claim) = (&f, &claim);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    parent.enter(|| {
                        std::iter::from_fn(claim)
                            .map(|i| (i, f(runs.start + i as u64)))
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for w in workers {
            for (i, r) in w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every run executed"))
            .collect()
    })
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

/// Train the normal-condition profile of `normal` on the route sets of
/// its runs `TRAIN_OFFSET..TRAIN_OFFSET + runs`, with default router and
/// wormhole configurations and no faults.
pub fn train_normal_profile(normal: &ScenarioSpec, runs: u64) -> NormalProfile {
    let sets = map_runs(TRAIN_OFFSET..TRAIN_OFFSET + runs, |run| {
        run_once_with_routes(normal, run).1
    });
    NormalProfile::train(&sets, SamConfig::default().pmf_bins)
}

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
    }

    #[test]
    fn attacked_cluster_run_is_captured() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let rec = run_once(&spec, 0);
        assert!(rec.n_routes > 0);
        assert!(rec.affected > 0.9, "affected = {}", rec.affected);
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
        let series = |jobs| map_runs_jobs(0..5, jobs, |run| run_once(&spec, run));
        let one = series(1);
        for jobs in [2, 8] {
            let many = series(jobs);
            for (x, y) in one.iter().zip(&many) {
                assert_eq!(x.run, y.run);
                assert_eq!(x.p_max, y.p_max);
                assert_eq!(x.delta, y.delta);
                assert_eq!(x.overhead, y.overhead);
            }
        }
    }

    #[test]
    #[should_panic(expected = "run 1002 failed")]
    fn a_panicking_run_resumes_its_panic_on_the_caller() {
        map_runs_jobs(TRAIN_OFFSET..TRAIN_OFFSET + 4, 2, |run| {
            assert_ne!(run, TRAIN_OFFSET + 2, "run {run} failed");
        });
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
    fn inert_fault_plan_matches_no_plan_exactly() {
        let spec = ScenarioSpec::attacked(TopologyKind::cluster1(), ProtocolKind::Mr);
        let cfg = RouterConfig::new(spec.protocol);
        let (plain, routes_plain) =
            run_once_faulted(&spec, 1, &cfg, WormholeConfig::default(), None);
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
