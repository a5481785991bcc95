//! `sweep`: fresh detection trials over the paper's scenario grid.
//!
//! Each trial does what `sam_experiments::detection` does for one
//! held-out run, calling the layers directly with an unseen run index so
//! the process-global run memo never hits: plan + endpoints, attacked
//! session, discovery, link tabulation, then the three-step procedure
//! with live probes. The simulation layers do almost all the work; the
//! serving layers do none.

use crate::report::Outcome;
use crate::stats::{self, mix, SplitMix};
use crate::trace::{self, SpanLog};
use manet_attacks::prelude::*;
use manet_routing::prelude::*;
use manet_sim::prelude::*;
use sam::prelude::*;
use sam_experiments::prelude::*;
use sam_experiments::serving::{TRAIN_OFFSET, TRAIN_RUNS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const TOPOLOGIES: [(&str, TopologyKind); 5] = [
    ("cluster1", TopologyKind::Cluster { tier: 1 }),
    ("cluster2", TopologyKind::Cluster { tier: 2 }),
    (
        "uniform6x6",
        TopologyKind::Uniform {
            cols: 6,
            rows: 6,
            tier: 1,
        },
    ),
    (
        "uniform10x6",
        TopologyKind::Uniform {
            cols: 10,
            rows: 6,
            tier: 1,
        },
    ),
    ("random", TopologyKind::Random),
];
const PROTOCOLS: [(&str, ProtocolKind); 2] = [("mr", ProtocolKind::Mr), ("dsr", ProtocolKind::Dsr)];

/// Grid cells: topology × protocol × {normal, attacked}.
pub const CELLS: usize = TOPOLOGIES.len() * PROTOCOLS.len() * 2;

/// Run indices at or above this are never used by training (1000..) or
/// the serving corpus (< 500), so trials are always fresh simulations.
const FRESH_RUN_BASE: u64 = 1 << 32;

/// One trial of the seeded list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Grid cell index (`topology * 4 + protocol * 2 + attacked`).
    pub cell: usize,
    /// Run index handed to the scenario (fresh per trial).
    pub run: u64,
}

impl Trial {
    fn topology(&self) -> usize {
        self.cell / 4
    }
    fn protocol(&self) -> usize {
        (self.cell / 2) % 2
    }
    fn attacked(&self) -> bool {
        self.cell % 2 == 1
    }
}

/// Name of a grid cell, e.g. `cluster1.mr.attacked`.
pub fn cell_name(cell: usize) -> String {
    let t = Trial { cell, run: 0 };
    format!(
        "{}.{}.{}",
        TOPOLOGIES[t.topology()].0,
        PROTOCOLS[t.protocol()].0,
        if t.attacked() { "attacked" } else { "normal" }
    )
}

/// Trial `index` of the list seeded by `seed`: every block of [`CELLS`]
/// consecutive trials visits each cell once, in a seeded order, so cell
/// counts stay equal whatever prefix a phase completes.
pub fn trial(seed: u64, index: usize) -> Trial {
    let block = (index / CELLS) as u64;
    let mut order: Vec<usize> = (0..CELLS).collect();
    SplitMix::new(mix(seed, block)).shuffle(&mut order);
    Trial {
        cell: order[index % CELLS],
        run: FRESH_RUN_BASE + (mix(seed ^ 0x5EED, index as u64) >> 24),
    }
}

/// What a trial produced: the verdict fields that must repeat exactly,
/// plus the exact work counts.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialResult {
    /// Step-3 confirmation.
    pub confirmed: bool,
    /// Localized link, when the analysis singled one out.
    pub suspect: Option<(u32, u32)>,
    /// `p_max` of the tabulated route set (bit pattern, so equality is
    /// exact).
    pub p_max_bits: u64,
    /// `Δ` of the tabulated route set (bit pattern).
    pub delta_bits: u64,
    /// Engine events of the discovery.
    pub events: u64,
    /// Table II overhead: tx+rx at all nodes.
    pub overhead: u64,
    /// Routes collected at the destination.
    pub routes: usize,
    /// Whether the engine hit its event cap.
    pub truncated: bool,
}

/// Trained profiles and the procedure shared (read-only) by all workers.
pub struct Setup {
    profiles: Vec<NormalProfile>,
    procedure: Procedure,
    /// Wall time of each `NormalProfile::train` call, µs.
    pub train_us: Vec<f64>,
}

/// Train one profile per (topology, protocol) the way the detection
/// experiment does: clean route sets at run indices far from trials.
pub fn setup() -> Setup {
    let detector = SamDetector::new(SamConfig::calibrated());
    let mut train_us = Vec::new();
    let mut profiles = Vec::new();
    for (_, topo) in TOPOLOGIES {
        for (_, proto) in PROTOCOLS {
            let normal = ScenarioSpec::normal(topo, proto);
            let sets: Vec<Vec<Route>> = (0..TRAIN_RUNS)
                .map(|r| run_once_with_routes(&normal, TRAIN_OFFSET + r).1)
                .collect();
            let t = Instant::now();
            profiles.push(NormalProfile::train(&sets, detector.config().pmf_bins));
            train_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Setup {
        profiles,
        procedure: Procedure::new(detector, ProcedureConfig::default()),
        train_us,
    }
}

/// Probe transport over the live attacked session, spanning each probe.
struct SpannedTransport<'a> {
    session: &'a mut Session<AttackNode>,
    log: &'a mut SpanLog,
    op: u64,
}

impl ProbeTransport for SpannedTransport<'_> {
    fn probe(&mut self, route: &Route, count: u32) -> ProbeOutcome {
        let session = &mut *self.session;
        self.log.scope("manet-routing.probe", self.op, |_| {
            session.probe(
                route,
                count,
                SimDuration::from_millis(10),
                SimDuration::from_millis(500),
            )
        })
    }
}

/// Run one trial, spanning each layer call when `log` is enabled.
pub fn run_trial(setup: &Setup, t: Trial, op: u64, log: &mut SpanLog) -> TrialResult {
    let (_, topo) = TOPOLOGIES[t.topology()];
    let (_, proto) = PROTOCOLS[t.protocol()];
    let spec = ScenarioSpec::normal(topo, proto).with_wormholes(usize::from(t.attacked()));
    let profile = &setup.profiles[t.topology() * PROTOCOLS.len() + t.protocol()];
    log.scope("bench.trial", op, |log| {
        let run_seed = derive_seed(spec.base_seed, t.run);
        let (plan, (src, dst)) = log.scope("sam-experiments.build_plan", op, |_| {
            let plan = build_plan(&spec, t.run);
            let ends = draw_endpoints(&plan, run_seed);
            (plan, ends)
        });
        let mut session = log.scope("manet-attacks.session_build", op, |_| {
            let wiring = if t.attacked() {
                // Blackholing once routes are captured: the configuration
                // the probe test exists to expose.
                AttackWiring::from_plan(&plan, &[0], WormholeConfig::blackholing())
            } else {
                AttackWiring::none()
            };
            attack_session(
                &plan,
                RouterConfig::new(proto),
                &wiring,
                LatencyModel::default(),
                run_seed,
            )
        });
        let discovery = log.scope("manet-routing.discover", op, |_| {
            session.discover(src, dst, DEFAULT_MAX_WAIT)
        });
        let link_stats = log.scope("sam.tabulate", op, |_| {
            LinkStats::from_routes(&discovery.routes)
        });
        let outcome = log.scope("sam.procedure", op, |log| {
            let mut transport = SpannedTransport {
                session: &mut session,
                log,
                op,
            };
            setup
                .procedure
                .execute(&discovery.routes, profile, &mut transport)
        });
        let suspect = match &outcome {
            DetectionOutcome::Normal { .. } => None,
            DetectionOutcome::SuspiciousUnconfirmed { analysis, .. }
            | DetectionOutcome::Confirmed { analysis, .. } => analysis
                .suspect_link
                .map(|l| (l.endpoints().0 .0, l.endpoints().1 .0)),
        };
        TrialResult {
            confirmed: outcome.is_confirmed(),
            suspect,
            p_max_bits: link_stats.p_max().to_bits(),
            delta_bits: link_stats.delta().to_bits(),
            events: discovery.events,
            overhead: discovery.overhead,
            routes: discovery.routes.len(),
            truncated: discovery.truncated,
        }
    })
}

/// One completed trial: list index, result, wall latency (ms).
type Done = (usize, TrialResult, f64);

/// Everything one phase completed.
pub struct Phase {
    /// Completed trials in completion order per thread, concatenated.
    pub done: Vec<Done>,
    /// Phase wall time, s (until the last in-flight trial finished).
    pub wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
    /// One span log per worker.
    pub logs: Vec<SpanLog>,
    /// CPU seconds the workers ran.
    pub cpu_s: f64,
}

impl Phase {
    /// Concatenate two phases run with the same settings over the same
    /// list (A-B-B-A interleaving halves). Indices repeat across the two,
    /// so compare trials only between phases that each ran once.
    fn merge(mut self, other: Phase) -> Phase {
        self.done.extend(other.done);
        self.wall_s += other.wall_s;
        self.logs.extend(other.logs);
        self.cpu_s += other.cpu_s;
        self
    }

    /// Completed trials per second of wall time.
    pub fn trials_per_s(&self) -> f64 {
        self.done.len() as f64 / self.wall_s
    }

    /// Per-trial wall latencies, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.2).collect()
    }
}

/// Run trials from list index 0 on `threads` workers pulling from one
/// shared counter until `budget` has elapsed.
pub fn run_phase(
    setup: &Setup,
    seed: u64,
    threads: usize,
    budget: Duration,
    traced: bool,
    origin: Instant,
) -> Phase {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + budget;
    let per_thread: Vec<(Vec<Done>, SpanLog, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let cpu0 = crate::sys::thread_cpu_ns();
                    let mut log = SpanLog::new(origin, traced);
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let r = run_trial(setup, trial(seed, i), i as u64, &mut log);
                        done.push((i, r, t0.elapsed().as_secs_f64() * 1e3));
                    }
                    (done, log, crate::sys::thread_cpu_ns() - cpu0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut done = Vec::new();
    let mut logs = Vec::new();
    let mut cpu_ns = 0;
    for (d, l, c) in per_thread {
        done.extend(d);
        logs.push(l);
        cpu_ns += c;
    }
    Phase {
        done,
        wall_s,
        threads,
        logs,
        cpu_s: cpu_ns as f64 / 1e9,
    }
}

/// Trials whose results differ between two phases over the same list
/// (compared on the indices both completed), and how many were compared.
pub fn mismatches(a: &Phase, b: &Phase) -> (usize, usize) {
    let index = |p: &Phase| {
        let mut m = std::collections::HashMap::new();
        for (i, r, _) in &p.done {
            m.insert(*i, r.clone());
        }
        m
    };
    let (ma, mb) = (index(a), index(b));
    let mut compared = 0;
    let mut differ = 0;
    for (i, ra) in &ma {
        if let Some(rb) = mb.get(i) {
            compared += 1;
            if ra != rb {
                differ += 1;
            }
        }
    }
    (differ, compared)
}

/// Append the per-cell paper-unit diagnostics and detection quality.
fn cell_report(out: &mut Outcome, seed: u64, phase: &Phase) {
    let mut sums = vec![(0u64, 0u64, 0u64, 0u64); CELLS]; // n, events, overhead, confirmed
    for (i, r, _) in &phase.done {
        let cell = &mut sums[trial(seed, *i).cell];
        cell.0 += 1;
        cell.1 += r.events;
        cell.2 += r.overhead;
        cell.3 += u64::from(r.confirmed);
    }
    out.note("per cell: discoveries, events/discovery, tx+rx overhead/discovery (Table II unit), confirmed");
    for (c, (n, ev, oh, conf)) in sums.iter().enumerate() {
        if *n > 0 {
            out.note(format!(
                "  {:<26} n={:<5} events={:<10.1} overhead={:<10.1} confirmed={}/{}",
                cell_name(c),
                n,
                *ev as f64 / *n as f64,
                *oh as f64 / *n as f64,
                conf,
                n
            ));
        }
    }
}

/// Confirmed share over the attacked and over the normal trials.
fn confirmed_rates(seed: u64, phase: &Phase) -> (f64, f64) {
    let (mut att, mut att_n, mut norm, mut norm_n) = (0u64, 0u64, 0u64, 0u64);
    for (i, r, _) in &phase.done {
        if trial(seed, *i).attacked() {
            att_n += 1;
            att += u64::from(r.confirmed);
        } else {
            norm_n += 1;
            norm += u64::from(r.confirmed);
        }
    }
    (
        att as f64 / att_n.max(1) as f64,
        norm as f64 / norm_n.max(1) as f64,
    )
}

/// Failed operations of a phase: truncated discoveries.
fn truncated(phase: &Phase) -> u64 {
    phase.done.iter().filter(|d| d.1.truncated).count() as u64
}

/// The untraced run: a one-thread phase ("low") then an `nproc`-thread
/// phase ("high") over the same list prefix. Their common trials must
/// agree exactly, which checks thread-count invariance.
pub fn run_timed(seed: u64, seconds: f64, threads: usize, out: &mut Outcome) {
    let origin = Instant::now();
    let setup = setup();
    out.setup_done();
    let steal0 = crate::sys::steal();
    let low = run_phase(
        &setup,
        seed,
        1,
        Duration::from_secs_f64(seconds * 0.3),
        false,
        origin,
    );
    let high = run_phase(
        &setup,
        seed,
        threads,
        Duration::from_secs_f64(seconds * 0.7),
        false,
        origin,
    );
    out.measured_done();
    let steal = steal0.share_until(&crate::sys::steal());
    let cpu_s = low.cpu_s + high.cpu_s;
    let trials = (low.done.len() + high.done.len()) as f64;

    let (differ, compared) = mismatches(&low, &high);
    out.check(
        differ == 0,
        format!("thread-count invariance: {differ} of {compared} common trials differ between 1 and {threads} threads"),
    );
    out.attempted += (low.done.len() + high.done.len()) as u64;
    out.failed += truncated(&low) + truncated(&high) + differ as u64;
    out.check(
        truncated(&low) + truncated(&high) == 0,
        "zero truncated discoveries".to_string(),
    );

    let lat_low = low.latencies_ms();
    let lat_high = high.latencies_ms();
    out.note(stats::describe(
        "p50_ms.low (trial latency, 1 thread)",
        stats::percentile(&lat_low, 0.5),
        "ms",
    ));
    out.note(stats::describe(
        "p99_ms.low (trial latency, 1 thread)",
        stats::percentile(&lat_low, 0.99),
        "ms",
    ));
    out.note(stats::describe(
        &format!("p50_ms.high (trial latency, {threads} threads)"),
        stats::percentile(&lat_high, 0.5),
        "ms",
    ));
    out.note(stats::describe(
        &format!("p99_ms.high (trial latency, {threads} threads)"),
        stats::percentile(&lat_high, 0.99),
        "ms",
    ));
    out.note(format!(
        "trials_per_s = {:.1} 1/s ({} trials in {:.3} s on {threads} threads)",
        high.trials_per_s(),
        high.done.len(),
        high.wall_s
    ));
    cell_report(out, seed, &high);

    out.note(format!(
        "worker CPU {cpu_s:.3} s over {trials} trials, host steal {:.1}%",
        100.0 * steal
    ));
    out.metric("cpu_ms_per_op", 1e3 * cpu_s / trials.max(1.0), "ms");
}

/// The traced run: an untraced phase, then a traced phase over the same
/// list prefix. Outcomes must agree exactly between the two; the
/// difference in CPU per trial is the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, threads: usize, out: &mut Outcome) {
    let origin = Instant::now();
    let setup = setup();
    out.setup_done();
    // Untraced and traced phases over the same list prefix, interleaved
    // A-B-B-A so a drift in the host's speed cancels out of the overhead.
    let quarter = Duration::from_secs_f64(seconds * 0.25);
    let steal0 = crate::sys::steal();
    let mut phases: Vec<Phase> = [false, true, true, false]
        .into_iter()
        .map(|traced| run_phase(&setup, seed, threads, quarter, traced, origin))
        .collect();
    out.measured_done();
    let (p2, t2, t1, p1) = (
        phases.pop().expect("four phases"),
        phases.pop().expect("four phases"),
        phases.pop().expect("four phases"),
        phases.pop().expect("four phases"),
    );
    let (d1, c1) = mismatches(&p1, &t1);
    let (d2, c2) = mismatches(&t2, &p2);
    let (differ, compared) = (d1 + d2, c1 + c2);
    let (plain, traced) = (p1.merge(p2), t1.merge(t2));
    let steal = steal0.share_until(&crate::sys::steal());
    out.metric("bench.host_steal_share", steal, "ratio");

    out.check(
        differ == 0,
        format!("timed vs traced: {differ} of {compared} common trials differ"),
    );
    out.attempted += (plain.done.len() + traced.done.len()) as u64;
    out.failed += truncated(&plain) + truncated(&traced) + differ as u64;
    out.check(
        truncated(&plain) + truncated(&traced) == 0,
        "zero truncated discoveries".to_string(),
    );

    let logs = &traced.logs;
    let discover_us = trace::self_us(logs, "manet-routing.discover");
    let discover_ns: f64 = discover_us.iter().sum::<f64>() * 1e3;
    let n = traced.done.len().max(1) as f64;
    let events: u64 = traced.done.iter().map(|d| d.1.events).sum();
    let overhead: u64 = traced.done.iter().map(|d| d.1.overhead).sum();
    let routes: usize = traced.done.iter().map(|d| d.1.routes).sum();
    out.metric(
        "manet-routing.discover_us.p50",
        stats::pct_or_zero(&discover_us, 0.5),
        "us",
    );
    out.metric(
        "manet-routing.discover_us.p99",
        stats::pct_or_zero(&discover_us, 0.99),
        "us",
    );
    out.metric(
        "manet-sim.ns_per_event",
        discover_ns / events.max(1) as f64,
        "ns",
    );
    out.metric(
        "manet-routing.events_per_discovery",
        events as f64 / n,
        "count",
    );
    out.metric(
        "manet-routing.overhead_per_discovery",
        overhead as f64 / n,
        "count",
    );
    out.metric(
        "manet-routing.routes_per_discovery",
        routes as f64 / n,
        "count",
    );
    for (metric, span) in [
        (
            "sam-experiments.build_plan_us",
            "sam-experiments.build_plan",
        ),
        (
            "manet-attacks.session_build_us",
            "manet-attacks.session_build",
        ),
        ("manet-routing.probe_us", "manet-routing.probe"),
        ("sam.tabulate_us", "sam.tabulate"),
        ("sam.procedure_us", "sam.procedure"),
    ] {
        out.metric(metric, stats::mean(&trace::self_us(logs, span)), "us");
    }
    out.metric("sam.train_us", stats::mean(&setup.train_us), "us");
    let lat = traced.latencies_ms();
    out.metric("latency_ms.p50.high", stats::pct_or_zero(&lat, 0.5), "ms");
    out.metric("latency_ms.p99.high", stats::pct_or_zero(&lat, 0.99), "ms");
    let (att, norm) = confirmed_rates(seed, &traced);
    out.metric("sam.confirmed_rate.attacked", att, "ratio");
    out.metric("sam.confirmed_rate.normal", norm, "ratio");

    // Layer reconciliation: summed self time (the trial root's self time
    // is the benchmark's own glue) against threads × wall.
    let busy = trace::total_self_s(logs);
    let share = busy / (traced.threads as f64 * traced.wall_s);
    out.metric("bench.self_time_share", share, "ratio");
    // CPU per trial, not wall throughput: the host's speed drifts more
    // between the two phases than tracing costs.
    let cpu_per_trial = |p: &Phase| p.cpu_s / p.done.len().max(1) as f64;
    out.metric(
        "bench.trace_overhead",
        cpu_per_trial(&traced) / cpu_per_trial(&plain) - 1.0,
        "ratio",
    );
    out.note(format!(
        "reconciliation: summed self time {busy:.3} s vs {} threads x {:.3} s wall = {:.1}%",
        traced.threads,
        traced.wall_s,
        100.0 * share
    ));
    out.layer_shares(
        logs,
        &[
            "bench.trial",
            "sam-experiments.build_plan",
            "manet-attacks.session_build",
            "manet-routing.discover",
            "sam.tabulate",
            "sam.procedure",
            "manet-routing.probe",
        ],
        "manet-routing.discover",
    );
    cell_report(out, seed, &traced);
    out.write_spans("sweep", logs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_trial_list_and_blocks_balance_cells() {
        let a: Vec<Trial> = (0..200).map(|i| trial(9, i)).collect();
        let b: Vec<Trial> = (0..200).map(|i| trial(9, i)).collect();
        let c: Vec<Trial> = (0..200).map(|i| trial(10, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for block in a.chunks(CELLS) {
            let mut cells: Vec<usize> = block.iter().map(|t| t.cell).collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..CELLS).collect::<Vec<_>>());
        }
        let mut runs: Vec<u64> = a.iter().map(|t| t.run).collect();
        runs.sort_unstable();
        runs.dedup();
        assert_eq!(runs.len(), a.len(), "every trial is a fresh run");
        assert!(runs[0] >= FRESH_RUN_BASE);
    }
}
