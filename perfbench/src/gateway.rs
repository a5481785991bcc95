//! The three open-loop workloads against an in-process `sam-gateway` on
//! loopback: `gateway_warm`, `gateway_evidence` and `gateway_churn`.
//!
//! Requests are the serving replay corpus (`replay_corpus(30, None)`:
//! 48 route sets over the three catalogue deployments) in a seeded
//! random order, encoded during set-up. Every `ok` verdict and score is
//! checked against what the same procedure returns in-process for the
//! same request and catalogue profile.

use crate::client::{self, Load, Status};
use crate::report::{Outcome, OUT_DIR};
use crate::stats::{self, mix, SplitMix};
use crate::trace::{self, SpanLog};
use manet_routing::{ProbeOutcome, Route};
use sam::prelude::*;
use sam_experiments::serving::{catalogue, find, replay_corpus, train_profile, Deployment};
use sam_gateway::prelude::*;
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ladder rates grow by this factor per step: a 5% resolution for
/// `max_rps_slo`.
const LADDER_RATIO: f64 = 1.05;

/// Ladder steps: rates `ladder_min * LADDER_RATIO^k` for `k < LADDER_STEPS`
/// (about a tenfold range), searched in six probes.
const LADDER_STEPS: usize = 48;

/// A phase whose generator lateness p99 exceeds this is invalid.
pub const LATENESS_BOUND_MS: f64 = 50.0;

/// Connections (and load threads): the machine's core count.
fn load_conns() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// One gateway workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Explanations, tracing and the audit log on; requests cycle
    /// through every detector name.
    pub evidence: bool,
    /// Profile cache capacity per shard (`None`: the gateway default).
    pub cache: Option<usize>,
    /// The two fixed open-loop rates, requests/s: roughly a quarter and
    /// a half of the capacity (`max_rps_slo`) measured on a 2-vCPU x86-64
    /// virtual machine (warm: 900-2000 rps as host steal varied;
    /// evidence: about 200 rps).
    pub low_rps: f64,
    /// See `low_rps`.
    pub high_rps: f64,
    /// Latency limit on p99 for `max_rps_slo`, ms.
    pub slo_ms: f64,
    /// Lowest ladder rate, requests/s.
    pub ladder_min: f64,
    /// The layer(s) predicted to dominate the workload's busy time.
    pub dominant: &'static [&'static str],
}

/// The gateway workloads.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "gateway_warm",
        evidence: false,
        cache: None,
        low_rps: 300.0,
        high_rps: 600.0,
        slo_ms: 50.0,
        ladder_min: 300.0,
        dominant: &["sam-serve.request_decode", "sam.detect.sam"],
    },
    Spec {
        name: "gateway_evidence",
        evidence: true,
        cache: None,
        low_rps: 50.0,
        high_rps: 100.0,
        slo_ms: 150.0,
        ladder_min: 40.0,
        dominant: &["sam.explain"],
    },
    Spec {
        name: "gateway_churn",
        evidence: false,
        cache: Some(2),
        low_rps: 300.0,
        high_rps: 600.0,
        slo_ms: 50.0,
        ladder_min: 300.0,
        dominant: &["sam-experiments.train_profile"],
    },
];

/// What a response must carry for one request line.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Line id echoed in the response.
    pub id: u64,
    /// The in-process verdict.
    pub verdict: Verdict,
    /// The in-process score.
    pub score: f64,
}

/// Check one response against its line's expectation.
pub fn validate(expected: &Expected, evidence: bool, resp: &WireResponse) -> Status {
    if resp.id != expected.id {
        return Status::Error(format!("id {} answers line {}", resp.id, expected.id));
    }
    match resp.status.as_str() {
        "ok" => {}
        "shed" => return Status::Shed,
        other => {
            return Status::Error(format!(
                "status {other}: {}",
                resp.error.as_deref().unwrap_or("-")
            ))
        }
    }
    if resp.verdict.as_ref() != Some(&expected.verdict) || resp.score != Some(expected.score) {
        return Status::Mismatch(format!(
            "line {}: got {:?} score {:?}, expected {:?} score {}",
            expected.id, resp.verdict, resp.score, expected.verdict, expected.score
        ));
    }
    if evidence && (resp.explanation.is_none() || resp.trace.is_none()) {
        return Status::Error(format!("line {}: no explanation or trace id", expected.id));
    }
    Status::Ok
}

/// Replay a requester's observed probe ACK ratio, as the service does.
fn replay_transport(ratio: Option<f64>) -> impl FnMut(&Route, u32) -> ProbeOutcome {
    let ratio = ratio.unwrap_or(1.0).clamp(0.0, 1.0);
    move |_route: &Route, count: u32| ProbeOutcome {
        sent: count,
        acked: ((count as f64) * ratio).round() as u32,
    }
}

/// The in-process judgement of one request, exactly as a shard worker
/// computes it: the concrete procedure for the default (`sam`) path, the
/// trait-path procedure for any other detector.
pub struct Judge {
    procedure: Procedure,
    procedure_cfg: ProcedureConfig,
    registry: DetectorRegistry,
}

impl Judge {
    /// The judge for the gateway's detector configuration.
    pub fn new() -> Self {
        let cfg = SamConfig::calibrated();
        Judge {
            procedure: Procedure::new(SamDetector::new(cfg), ProcedureConfig::default()),
            procedure_cfg: ProcedureConfig::default(),
            registry: DetectorRegistry::with_sam(cfg),
        }
    }

    /// Verdict, score, and (for explanations) the detector verdict.
    pub fn judge(
        &self,
        detector: Option<&str>,
        routes: &[Route],
        profile: &NormalProfile,
        ratio: Option<f64>,
    ) -> (Verdict, f64, DetectorOutcomeKind) {
        let mut transport = replay_transport(ratio);
        match detector.unwrap_or("sam") {
            "sam" => {
                let outcome = self.procedure.execute(routes, profile, &mut transport);
                let score = match &outcome {
                    DetectionOutcome::Normal { .. } => 0.0,
                    DetectionOutcome::SuspiciousUnconfirmed { analysis, .. }
                    | DetectionOutcome::Confirmed { analysis, .. } => {
                        verdict_from_sam(self.procedure.detector().config(), analysis).score
                    }
                };
                (
                    Verdict::from_outcome(&outcome),
                    score,
                    DetectorOutcomeKind::Sam,
                )
            }
            name => {
                let d = self.registry.get(name).expect("a registered detector name");
                let input = DetectorInput::new(routes, profile);
                let outcome =
                    run_procedure(d.as_ref(), &input, &self.procedure_cfg, &mut transport);
                let score = outcome.verdict().score;
                let verdict = Verdict::from_detector_outcome(&outcome);
                (
                    verdict,
                    score,
                    DetectorOutcomeKind::Other(outcome.verdict().clone()),
                )
            }
        }
    }

    /// The explanation a worker attaches: SAM re-analyzes, other
    /// detectors explain the verdict already computed.
    pub fn explain(
        &self,
        routes: &[Route],
        profile: &NormalProfile,
        kind: &DetectorOutcomeKind,
    ) -> Explanation {
        match kind {
            DetectorOutcomeKind::Sam => {
                let d = self.procedure.detector();
                let analysis = d.analyze(routes, profile);
                Explanation::from_verdict(routes, &verdict_from_sam(d.config(), &analysis))
            }
            DetectorOutcomeKind::Other(v) => Explanation::from_verdict(routes, v),
        }
    }
}

impl Default for Judge {
    fn default() -> Self {
        Self::new()
    }
}

/// Which path judged a request (what its explanation is built from).
pub enum DetectorOutcomeKind {
    /// The concrete SAM procedure.
    Sam,
    /// A registry detector's verdict.
    Other(DetectorVerdict),
}

/// Every training the gateway's profile source ran.
#[derive(Default)]
pub struct Trainings {
    in_flight: Mutex<HashMap<String, usize>>,
    /// Duration of each training, µs.
    pub done: Mutex<Vec<f64>>,
    /// Trainings that started while the same key was already training.
    pub duplicates: AtomicU64,
}

/// The catalogue profile source, wrapped to time each training and count
/// concurrent trainings of one key.
fn profile_source(trainings: Arc<Trainings>) -> ProfileSource {
    Arc::new(move |key: &ProfileKey| {
        let name = key.to_string();
        {
            let mut m = trainings
                .in_flight
                .lock()
                .expect("training ledger poisoned");
            let n = m.entry(name.clone()).or_insert(0);
            if *n > 0 {
                trainings.duplicates.fetch_add(1, Ordering::Relaxed);
            }
            *n += 1;
        }
        let t0 = Instant::now();
        let deployment = find(&key.topology, &key.protocol).expect("known keys only");
        let profile = train_profile(&deployment);
        trainings
            .done
            .lock()
            .expect("training ledger poisoned")
            .push(t0.elapsed().as_secs_f64() * 1e6);
        *trainings
            .in_flight
            .lock()
            .expect("training ledger poisoned")
            .get_mut(&name)
            .expect("entered above") -= 1;
        profile
    })
}

/// The `GatewayConfig` the `sam-gateway` binary builds with no flags,
/// plus the workload's cache capacity and evidence switches.
fn gateway_config(spec: &Spec, audit: Option<PathBuf>) -> GatewayConfig {
    let service = ServiceConfig::default();
    GatewayConfig {
        shards: 2,
        replicas: DEFAULT_REPLICAS,
        service: ServiceConfig {
            workers: service.workers,
            queue_capacity: service.queue_capacity,
            max_batch: 32,
            cache_capacity: spec.cache.unwrap_or(service.cache_capacity),
            detector: SamConfig::calibrated(),
            explain: spec.evidence,
            ..ServiceConfig::default()
        },
        max_conns: 64,
        backlog: 128,
        known_keys: Some(catalogue().iter().map(Deployment::key_string).collect()),
        stats_interval: Duration::from_millis(1000),
        trace: spec.evidence,
        audit_log: audit,
        ..GatewayConfig::default()
    }
}

/// Everything a gateway workload prepares before its first timed request.
pub struct Setup {
    /// The running gateway.
    pub gateway: Gateway,
    /// Its address.
    pub addr: SocketAddr,
    /// Request lines, newline-terminated.
    pub lines: Vec<Vec<u8>>,
    /// The same lines asking for the server's stage clock.
    pub timed_lines: Vec<Vec<u8>>,
    /// Per line: the expectation.
    pub expected: Vec<Expected>,
    /// Catalogue profiles by key.
    pub profiles: HashMap<String, NormalProfile>,
    /// The gateway's trainings.
    pub trainings: Arc<Trainings>,
    /// The evidence workload's audit log.
    pub audit: Option<PathBuf>,
    /// Requests in the warm-up pass, and those that failed.
    pub warmup: (u64, u64),
    /// The load connections, kept open across phases (as a real client
    /// would) so the same gateway connection handlers serve every phase.
    conns: RefCell<Vec<TcpStream>>,
}

impl Setup {
    /// Simulate the corpus, train the catalogue profiles, compute every
    /// expectation, encode the lines, bind the gateway, and run one
    /// warm-up pass over every line.
    pub fn build(spec: &Spec) -> std::io::Result<Setup> {
        let corpus = replay_corpus(30, None);
        let profiles: HashMap<String, NormalProfile> = catalogue()
            .iter()
            .map(|d| (d.key_string(), train_profile(d)))
            .collect();
        let judge = Judge::new();
        let detectors: Vec<Option<&'static str>> = if spec.evidence {
            DETECTOR_NAMES.iter().map(|d| Some(*d)).collect()
        } else {
            vec![None]
        };
        let mut lines = Vec::new();
        let mut timed_lines = Vec::new();
        let mut expected = Vec::new();
        for (deployment, attacked, routes) in &corpus {
            for detector in &detectors {
                let id = lines.len() as u64;
                let key = deployment.key_string();
                let ratio = attacked.then_some(0.1);
                let (verdict, score, _) = judge.judge(*detector, routes, &profiles[&key], ratio);
                let mut req = WireRequest {
                    id,
                    topology: deployment.topology.clone(),
                    protocol: deployment.protocol.clone(),
                    routes: routes
                        .iter()
                        .map(|r| r.nodes().iter().map(|n| n.0).collect())
                        .collect(),
                    probe_ack_ratio: ratio,
                    detector: detector.map(str::to_string),
                    timings: false,
                    trace: None,
                };
                lines.push(format!("{}\n", req.encode()).into_bytes());
                req.timings = true;
                timed_lines.push(format!("{}\n", req.encode()).into_bytes());
                expected.push(Expected { id, verdict, score });
            }
        }
        let entries = corpus.len();
        let audit = spec.evidence.then(|| {
            PathBuf::from(OUT_DIR).join(format!("audit-{}-{}.jsonl", spec.name, std::process::id()))
        });
        if audit.is_some() {
            std::fs::create_dir_all(OUT_DIR)?;
        }
        let trainings = Arc::new(Trainings::default());
        let gateway = Gateway::bind(
            "127.0.0.1:0",
            gateway_config(spec, audit.clone()),
            profile_source(trainings.clone()),
        )?;
        let addr = gateway.local_addr();
        let mut setup = Setup {
            gateway,
            addr,
            lines,
            timed_lines,
            expected,
            profiles,
            trainings,
            audit,
            warmup: (0, 0),
            conns: RefCell::new(Vec::new()),
        };
        // Warm-up: every corpus entry once (cycling through the line's
        // detectors), at the high rate, so each shard's cache holds its
        // keys (as far as its capacity allows) before timing.
        let per_entry = detectors.len();
        let order: Vec<usize> = (0..entries)
            .map(|k| k * per_entry + k % per_entry)
            .collect();
        let load = setup.load(spec, &setup.lines, &order, spec.high_rps, false, None)?;
        setup.warmup = (load.records.len() as u64, load.failed());
        Ok(setup)
    }

    /// One open-loop phase over `schedule` at `rate`.
    fn load(
        &self,
        spec: &Spec,
        lines: &[Vec<u8>],
        schedule: &[usize],
        rate: f64,
        traced: bool,
        abort: Option<Duration>,
    ) -> std::io::Result<Load> {
        let (evidence, expected) = (spec.evidence, &self.expected);
        let check = |line: usize, resp: &WireResponse| validate(&expected[line], evidence, resp);
        // Generous: a phase ends as soon as every response is in, and on
        // a virtual machine with a busy host a stalled virtual CPU can
        // hold one back for tens of milliseconds.
        let drain = Duration::from_secs(5);
        let mut conns = self.conns.borrow_mut();
        if conns.is_empty() {
            *conns = client::connect(self.addr, load_conns())?;
        }
        let load = client::run(&conns, lines, schedule, rate, drain, abort, &check, traced)?;
        // A request left unanswered leaves its response in flight: start
        // the next phase on fresh connections.
        if load
            .records
            .iter()
            .any(|r| matches!(r.status, Status::Unanswered | Status::Transport))
        {
            conns.clear();
        }
        Ok(load)
    }

    /// Drain the gateway and remove the audit log (after counting it).
    pub fn finish(self, out: &mut Outcome) {
        drop(self.conns);
        let snapshot = self.gateway.drain();
        if let Some(path) = &self.audit {
            let lines = std::fs::read_to_string(path).map_or(0, |t| t.lines().count()) as u64;
            let records = snapshot.counter("gateway.audit_records");
            out.check(
                lines == records && records == snapshot.counter("gateway.requests"),
                format!(
                    "audit log: {lines} lines, {records} audit records, {} requests served",
                    snapshot.counter("gateway.requests")
                ),
            );
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A seeded request order for phase `phase`: back-to-back shuffles of
/// every line.
pub fn schedule(seed: u64, phase: u64, lines: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        let mut order: Vec<usize> = (0..lines).collect();
        SplitMix::new(mix(mix(seed, phase), round)).shuffle(&mut order);
        out.extend(order);
        round += 1;
    }
    out.truncate(n);
    out
}

/// Latencies with every failed request as +∞ (a failed request misses
/// any latency limit).
fn latencies_with_misses(load: &Load) -> Vec<f64> {
    load.records
        .iter()
        .map(|r| match (&r.status, r.latency_ms()) {
            (Status::Ok, Some(l)) => l,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Account a reported phase: failures, generator validity, sample counts.
fn account(out: &mut Outcome, label: &str, load: &Load) {
    out.attempted += load.records.len() as u64;
    let failed = load.failed();
    out.failed += failed;
    let mut kinds: HashMap<String, u64> = HashMap::new();
    for r in &load.records {
        if r.status != Status::Ok {
            let k = match &r.status {
                Status::Mismatch(m) => format!("mismatch ({m})"),
                Status::Error(e) => format!("error ({e})"),
                other => format!("{other:?}"),
            };
            *kinds.entry(k).or_insert(0) += 1;
        }
    }
    for (k, n) in kinds.iter().take(5) {
        out.note(format!("  {label}: {n} x {k}"));
    }
    let late = load.lateness_ms();
    out.note(format!(
        "{label}: {} requests at {} rps over {:.2} s (gateway CPU {:.3} s, load generator CPU {:.3} s, host steal {:.1}%), {failed} failed; {}; {}",
        load.records.len(),
        load.rate,
        load.window_s,
        load.server_cpu_s,
        load.client_cpu_s,
        100.0 * load.steal_share,
        stats::describe("lateness p50", stats::percentile(&late, 0.5), "ms"),
        stats::describe("p99", stats::percentile(&late, 0.99), "ms"),
    ));
    if generator_valid(load) {
        let lat = latencies_with_misses(load);
        out.note(format!(
            "  {}; {}",
            stats::describe("latency p50", stats::percentile(&lat, 0.5), "ms"),
            stats::describe("p99", stats::percentile(&lat, 0.99), "ms")
        ));
    } else {
        out.note(format!(
            "  INVALID phase: generator lateness p99 above {LATENESS_BOUND_MS} ms, so its latency figures are withheld"
        ));
    }
}

/// Whether the generator kept to its schedule well enough for the
/// phase's latencies to count as a measurement: lateness p99 within
/// [`LATENESS_BOUND_MS`]. An invalid phase's latencies are withheld (its
/// responses are still checked and its CPU still counted).
fn generator_valid(load: &Load) -> bool {
    stats::pct_or_zero(&load.lateness_ms(), 0.99) <= LATENESS_BOUND_MS
}

/// The phase's latency `q`-quantile, ms (failures as misses), or 0 when
/// the phase is invalid or empty.
fn latency_pct(load: &Load, q: f64) -> f64 {
    if generator_valid(load) {
        stats::pct_or_zero(&latencies_with_misses(load), q)
    } else {
        0.0
    }
}

/// Whether a ladder step met the limit: every scheduled request offered,
/// no failures, p99 (failures as misses, timed from the due time, so
/// generator lateness counts) within the limit, and no growing backlog.
fn step_passes(spec: &Spec, load: &Load, scheduled: usize) -> bool {
    if load.records.len() < scheduled || load.failed() > 0 {
        return false;
    }
    let lat = latencies_with_misses(load);
    let p99 = stats::pct_or_zero(&lat, 0.99);
    let q = lat.len() / 4;
    let first = stats::pct_or_zero(&lat[..q.max(1)], 0.5);
    let last = stats::pct_or_zero(&lat[lat.len() - q.max(1)..], 0.5);
    p99 <= spec.slo_ms && last <= first + spec.slo_ms / 2.0
}

/// Binary search over the fixed ladder for the highest rate that passes,
/// within `budget` of measured time: `max_rps_slo`, or 0 if no step
/// passed.
fn ladder(
    setup: &Setup,
    spec: &Spec,
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
) -> std::io::Result<f64> {
    let rate = |k: usize| spec.ladder_min * LADDER_RATIO.powi(k as i32);
    let steps = LADDER_STEPS;
    let probes = (usize::BITS - steps.leading_zeros()) as f64;
    let step_s = budget.as_secs_f64() / probes;
    let (mut lo, mut hi): (isize, isize) = (-1, steps as isize);
    let mut best = 0.0;
    let mut phase = 100;
    while hi - lo > 1 {
        let mid = ((lo + hi) / 2) as usize;
        let r = rate(mid);
        let n = (r * step_s).round() as usize;
        let order = schedule(seed, phase, setup.lines.len(), n);
        phase += 1;
        let abort = Some(Duration::from_secs_f64(spec.slo_ms * 3.0 / 1e3));
        let load = setup.load(spec, &setup.lines, &order, r, false, abort)?;
        out.attempted += load.records.len() as u64;
        out.failed += load.failed();
        let pass = step_passes(spec, &load, n);
        let lat = latencies_with_misses(&load);
        out.note(format!(
            "  ladder {r:.1} rps: {} of {n} offered, gateway CPU {:.3} s, steal {:.1}%, p99 {:.3} ms, lateness p99 {:.3} ms -> {}",
            load.records.len(),
            load.server_cpu_s,
            100.0 * load.steal_share,
            stats::pct_or_zero(&lat, 0.99),
            stats::pct_or_zero(&load.lateness_ms(), 0.99),
            if pass { "pass" } else { "fail" }
        ));
        if pass {
            lo = mid as isize;
            best = r;
        } else {
            hi = mid as isize;
        }
        settle(setup);
    }
    Ok(best)
}

/// Wait until the gateway's shard queues are empty (a failed step may
/// leave work behind), at most one second.
fn settle(setup: &Setup) {
    let until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < until {
        let stats = setup.gateway.stats(Some(1));
        if stats.shards.iter().all(|s| s.queue_depth == 0) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Share of routed requests the busiest shard received.
fn shard_max_share(setup: &Setup) -> (f64, Vec<u64>) {
    let shards: Vec<u64> = setup
        .gateway
        .stats(Some(1))
        .shards
        .iter()
        .map(|s| s.requests)
        .collect();
    let total: u64 = shards.iter().sum();
    let max = shards.iter().copied().max().unwrap_or(0);
    (max as f64 / total.max(1) as f64, shards)
}

fn number_of(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round().max(1.0) as usize
}

/// The untraced run: the `low` and `high` phases, then the ladder.
pub fn run_timed(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) -> std::io::Result<()> {
    let setup = Setup::build(spec)?;
    out.attempted += setup.warmup.0;
    out.failed += setup.warmup.1;
    out.check(
        setup.warmup.1 == 0,
        format!("warm-up: {} of {} failed", setup.warmup.1, setup.warmup.0),
    );
    out.setup_done();

    let phase_s = seconds * 0.35;
    let low_order = schedule(seed, 1, setup.lines.len(), number_of(spec.low_rps, phase_s));
    let low = setup.load(spec, &setup.lines, &low_order, spec.low_rps, false, None)?;
    settle(&setup);
    let high_order = schedule(
        seed,
        2,
        setup.lines.len(),
        number_of(spec.high_rps, phase_s),
    );
    let high = setup.load(spec, &setup.lines, &high_order, spec.high_rps, false, None)?;
    settle(&setup);
    let capacity = ladder(
        &setup,
        spec,
        seed,
        Duration::from_secs_f64(seconds * 0.3),
        out,
    )?;
    out.measured_done();

    account(out, "low", &low);
    account(out, "high", &high);
    for (label, load) in [("low", &low), ("high", &high)] {
        if generator_valid(load) {
            let lat = latencies_with_misses(load);
            for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
                let p = stats::percentile(&lat, q);
                out.note(stats::describe(&format!("{name}_ms.{label}"), p, "ms"));
            }
        } else {
            out.note(format!(
                "p50_ms.{label}, p99_ms.{label}: withheld (invalid phase)"
            ));
        }
    }
    let (share, shards) = shard_max_share(&setup);
    out.note(format!(
        "shard requests {shards:?}: busiest shard {:.1}%",
        100.0 * share
    ));
    out.note(format!(
        "max_rps_slo = {capacity} 1/s (p99 <= {} ms, 5% ladder)",
        spec.slo_ms
    ));
    let served = (low.records.len() + high.records.len()) as f64;
    out.metric(
        "cpu_ms_per_op",
        1e3 * (low.server_cpu_s + high.server_cpu_s) / served.max(1.0),
        "ms",
    );
    setup.finish(out);
    Ok(())
}

/// Serial in-process replay of every line through the calls a request
/// crosses, timed per call.
struct Replay {
    log: SpanLog,
    request_bytes: Vec<f64>,
    decode_p50_by_line: Vec<f64>,
}

fn replay(setup: &Setup, spec: &Spec, budget: Duration) -> Replay {
    let judge = Judge::new();
    let ring = HashRing::new(2, DEFAULT_REPLICAS);
    let mut log = SpanLog::new(Instant::now(), true);
    let mut decode_us: Vec<Vec<f64>> = vec![Vec::new(); setup.lines.len()];
    let request_bytes: Vec<f64> = setup.lines.iter().map(|l| l.len() as f64 - 1.0).collect();
    let until = Instant::now() + budget;
    let mut pass = 0;
    while pass < 3 || (Instant::now() < until && pass < 50) {
        for (i, line) in setup.lines.iter().enumerate() {
            let op = i as u64;
            let t0 = Instant::now();
            let request = log.scope("sam-serve.request_decode", op, |_| {
                match decode_line(&line[..line.len() - 1]).expect("encoded in set-up") {
                    WireLine::Request(r) => r.into_request().expect("valid request"),
                    WireLine::Command(_) => unreachable!("set-up encodes requests only"),
                }
            });
            decode_us[i].push(t0.elapsed().as_secs_f64() * 1e6);
            let key = request.key.to_string();
            let shard = log.scope("sam-gateway.ring_route", op, |_| ring.route(&key));
            std::hint::black_box(shard);
            let profile = &setup.profiles[&key];
            let name = request.detector.as_deref().unwrap_or("sam");
            let span = match name {
                "sam" => "sam.detect.sam",
                "zscore" => "sam.detect.zscore",
                "geometric" => "sam.detect.geometric",
                _ => "sam.detect.ensemble",
            };
            let (verdict, score, kind) = log.scope(span, op, |_| {
                judge.judge(
                    request.detector.as_deref(),
                    &request.routes,
                    profile,
                    request.probe_ack_ratio,
                )
            });
            let explanation = spec.evidence.then(|| {
                log.scope("sam.explain", op, |_| {
                    judge.explain(&request.routes, profile, &kind)
                })
            });
            let encoded = log.scope("sam-serve.response_encode", op, |_| {
                let mut resp = WireResponse::ok(DetectionResponse {
                    id: request.id,
                    detector: name.to_string(),
                    score,
                    verdict,
                    profile_cache_hit: true,
                    timing: StageTiming::default(),
                    explanation,
                });
                if spec.evidence {
                    resp = resp.with_trace("0".repeat(32));
                }
                resp.encode()
            });
            std::hint::black_box(encoded);
        }
        pass += 1;
    }
    Replay {
        log,
        request_bytes,
        decode_p50_by_line: decode_us.iter().map(|v| stats::median(v)).collect(),
    }
}

/// The traced run: untraced and traced `low` phases over the same
/// schedule (their CPU per request gives the tracing overhead), a traced
/// `high` phase, then the serial replay.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) -> std::io::Result<()> {
    let setup = Setup::build(spec)?;
    out.attempted += setup.warmup.0;
    out.failed += setup.warmup.1;
    out.setup_done();
    let trained_in_setup = setup.trainings.done.lock().expect("ledger").len();
    let snap0 = setup.gateway.registry().snapshot();

    // The low rate untraced and traced over one schedule, interleaved
    // A-B-B-A so a drift in the host's speed cancels out of the overhead.
    let phase_s = seconds * 0.25;
    let low_order = schedule(
        seed,
        1,
        setup.lines.len(),
        number_of(spec.low_rps, phase_s / 2.0),
    );
    let mut halves = Vec::new();
    for traced in [false, true, true, false] {
        let lines = if traced {
            &setup.timed_lines
        } else {
            &setup.lines
        };
        halves.push(setup.load(spec, lines, &low_order, spec.low_rps, traced, None)?);
        settle(&setup);
    }
    let (p2, t2, t1, p1) = (
        halves.pop().expect("four halves"),
        halves.pop().expect("four halves"),
        halves.pop().expect("four halves"),
        halves.pop().expect("four halves"),
    );
    let (plain, low) = (p1.merge(p2), t1.merge(t2));
    let high_order = schedule(
        seed,
        2,
        setup.lines.len(),
        number_of(spec.high_rps, phase_s),
    );
    let high = setup.load(
        spec,
        &setup.timed_lines,
        &high_order,
        spec.high_rps,
        true,
        None,
    )?;
    settle(&setup);
    let snap1 = setup.gateway.registry().snapshot();
    let rep = replay(&setup, spec, Duration::from_secs_f64(seconds * 0.2));
    out.measured_done();

    for (label, load) in [("low (untraced)", &plain), ("low", &low), ("high", &high)] {
        account(out, label, load);
    }
    let replay_logs = std::slice::from_ref(&rep.log);
    let mean_of = |name: &str| stats::mean(&trace::self_us(replay_logs, name));

    // Request and response codec, detection, explanation, ring.
    out.metric(
        "sam-serve.request_decode_us",
        mean_of("sam-serve.request_decode"),
        "us",
    );
    out.metric(
        "wire.request_bytes",
        stats::mean(&rep.request_bytes),
        "bytes",
    );
    for d in DETECTOR_NAMES {
        let span = format!("sam.detect.{d}");
        let v = stats::mean(&trace::self_us(replay_logs, &span));
        out.metric(&format!("sam.detect_us.{d}"), v, "us");
    }
    out.metric("sam.explain_us", mean_of("sam.explain"), "us");
    out.metric(
        "sam-gateway.ring_route_ns",
        mean_of("sam-gateway.ring_route") * 1e3,
        "ns",
    );
    out.metric(
        "sam-serve.response_encode_us",
        mean_of("sam-serve.response_encode"),
        "us",
    );
    let traced_loads = [&low, &high];
    let decode: Vec<f64> = traced_loads
        .iter()
        .flat_map(|l| {
            l.records
                .iter()
                .filter(|r| r.done_ms.is_some())
                .map(|r| r.decode_us)
        })
        .collect();
    out.metric("sam-serve.response_decode_us", stats::mean(&decode), "us");
    let resp_bytes: Vec<f64> = traced_loads
        .iter()
        .flat_map(|l| {
            l.records
                .iter()
                .filter(|r| r.done_ms.is_some())
                .map(|r| r.response_bytes as f64)
        })
        .collect();
    out.metric("wire.response_bytes", stats::mean(&resp_bytes), "bytes");

    // The server's stage clock under the high rate.
    let stage = |f: fn(&StageTiming) -> u64| -> Vec<f64> {
        high.records
            .iter()
            .filter_map(|r| r.timing.as_ref().map(|t| f(t) as f64))
            .collect()
    };
    let qw = stage(|t| t.queue_wait_us);
    out.metric(
        "sam-serve.queue_wait_us.p50",
        stats::pct_or_zero(&qw, 0.5),
        "us",
    );
    out.metric(
        "sam-serve.queue_wait_us.p99",
        stats::pct_or_zero(&qw, 0.99),
        "us",
    );
    out.metric(
        "sam-serve.compute_us.p50",
        stats::pct_or_zero(&stage(|t| t.compute_us), 0.5),
        "us",
    );
    out.metric(
        "sam-gateway.serialize_us.p50",
        stats::pct_or_zero(&stage(|t| t.serialize_us), 0.5),
        "us",
    );
    let delta = |name: &str| snap1.counter(name).saturating_sub(snap0.counter(name)) as f64;
    out.metric(
        "sam-serve.batch_size_mean",
        delta("serve.completed") / delta("serve.batches").max(1.0),
        "count",
    );
    let (share, shards) = shard_max_share(&setup);
    out.metric("sam-gateway.shard_max_share", share, "ratio");
    out.note(format!(
        "shard requests {shards:?} (ring sends every catalogue key to one shard)"
    ));

    // Profile cache and training.
    let done = setup.trainings.done.lock().expect("ledger").clone();
    out.metric("sam-experiments.train_profile_us", stats::mean(&done), "us");
    out.metric(
        "sam-experiments.trainings",
        (done.len() - trained_in_setup) as f64,
        "count",
    );
    let hits = delta("serve.cache_hits");
    let misses = delta("serve.cache_misses");
    out.metric(
        "sam-serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.metric(
        "sam-serve.duplicate_trainings",
        setup.trainings.duplicates.load(Ordering::Relaxed) as f64,
        "count",
    );
    let split = |hit: bool| -> Vec<f64> {
        traced_loads
            .iter()
            .flat_map(|l| l.records.iter())
            .filter(|r| r.cache_hit == Some(hit))
            .filter_map(|r| r.latency_ms())
            .collect()
    };
    out.metric(
        "latency_ms.cache_hit.p50",
        stats::pct_or_zero(&split(true), 0.5),
        "ms",
    );
    out.metric(
        "latency_ms.cache_miss.p50",
        stats::pct_or_zero(&split(false), 0.5),
        "ms",
    );
    out.note(stats::describe(
        "latency, cache hits",
        stats::percentile(&split(true), 0.5),
        "ms",
    ));
    out.note(stats::describe(
        "latency, cache misses",
        stats::percentile(&split(false), 0.5),
        "ms",
    ));

    // Reconciliation at the low rate: client latency against lateness +
    // server stages + request decode (replayed) + response decode, with
    // the rest unattributed (loopback, thread hand-offs, the re-encode
    // that attaches the timings).
    let parts: Vec<[f64; 7]> = low
        .records
        .iter()
        .filter_map(|r| {
            let t = r.timing.as_ref()?;
            let lat = r.latency_ms()? * 1e3;
            let known = [
                r.lateness_ms() * 1e3,
                t.queue_wait_us as f64,
                t.compute_us as f64,
                t.serialize_us as f64,
                rep.decode_p50_by_line[r.line],
                r.decode_us,
            ];
            let un = lat - known.iter().sum::<f64>();
            Some([
                lat,
                known[0],
                known[1],
                known[2],
                known[3],
                known[4] + known[5],
                un,
            ])
        })
        .collect();
    let col = |i: usize| -> f64 { stats::median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>()) };
    let lat_p50 = col(0);
    let names = [
        "lateness",
        "queue_wait",
        "compute",
        "serialize",
        "request+response decode",
        "unattributed",
    ];
    let meds: Vec<f64> = (1..7).map(col).collect();
    let sum: f64 = meds.iter().sum();
    out.metric("unattributed_us", col(6), "us");
    out.metric(
        "bench.reconcile_remainder_share",
        (lat_p50 - sum) / lat_p50.max(1e-9),
        "ratio",
    );
    out.note(format!(
        "reconciliation at {} rps (p50 over {} requests, us):",
        spec.low_rps,
        parts.len()
    ));
    for (n, m) in names.iter().zip(&meds) {
        out.note(format!("  {n:<26} {m:>10.1}"));
    }
    out.note(format!(
        "  sum of medians {sum:.1} vs latency p50 {lat_p50:.1}: remainder {:.1}%",
        100.0 * (lat_p50 - sum) / lat_p50.max(1e-9)
    ));

    for (label, load) in [("low", &low), ("high", &high)] {
        out.metric(
            &format!("latency_ms.p50.{label}"),
            latency_pct(load, 0.5),
            "ms",
        );
        out.metric(
            &format!("latency_ms.p99.{label}"),
            latency_pct(load, 0.99),
            "ms",
        );
    }
    let late: Vec<f64> = traced_loads.iter().flat_map(|l| l.lateness_ms()).collect();
    out.metric(
        "bench.gen_late_p50_ms",
        stats::pct_or_zero(&late, 0.5),
        "ms",
    );
    out.metric(
        "bench.gen_late_p99_ms",
        stats::pct_or_zero(&late, 0.99),
        "ms",
    );
    out.metric(
        "bench.host_steal_share",
        stats::mean(&[plain.steal_share, low.steal_share, high.steal_share]),
        "ratio",
    );
    // CPU per request (gateway + load generator) of the same schedule
    // with and without timings and client spans.
    let cpu_per_request =
        |l: &Load| (l.server_cpu_s + l.client_cpu_s) / l.records.len().max(1) as f64;
    out.metric(
        "bench.trace_overhead",
        cpu_per_request(&low) / cpu_per_request(&plain) - 1.0,
        "ratio",
    );

    // Dominant layer: busy time by layer over every phase's requests (for
    // churn, over the cache misses, where training happens), from the
    // replay's per-call means weighted by how many requests took each
    // path, plus the measured response decodes and trainings.
    let all: Vec<&client::Record> = [&plain, &low, &high]
        .iter()
        .flat_map(|l| l.records.iter())
        .filter(|r| spec.cache.is_none() || r.cache_hit == Some(false))
        .collect();
    let scope = if spec.cache.is_some() {
        "cache misses"
    } else {
        "all requests"
    };
    let per_line = setup.lines.len() as f64;
    let total = |name: &str| trace::self_us(replay_logs, name).iter().sum::<f64>() / 1e6;
    let passes = trace::self_us(replay_logs, "sam-serve.request_decode").len() as f64 / per_line;
    let scale = all.len() as f64 / (passes * per_line).max(1.0);
    let mut totals: Vec<(String, f64)> = [
        "sam-serve.request_decode",
        "sam.detect.sam",
        "sam.detect.zscore",
        "sam.detect.geometric",
        "sam.detect.ensemble",
        "sam.explain",
        "sam-serve.response_encode",
    ]
    .iter()
    .map(|n| (n.to_string(), total(n) * scale))
    .collect();
    totals.push((
        "sam-serve.response_decode".to_string(),
        all.iter().map(|r| r.decode_us).sum::<f64>() / 1e6,
    ));
    totals.push((
        "sam-experiments.train_profile".to_string(),
        done.iter().skip(trained_in_setup).sum::<f64>() / 1e6,
    ));
    out.note(format!(
        "busy time by layer over {} requests ({scope}):",
        all.len()
    ));
    out.dominant(&totals, spec.dominant);

    let mut logs: Vec<SpanLog> = Vec::new();
    for l in [plain, low, high] {
        logs.extend(l.logs);
    }
    logs.push(rep.log);
    out.write_spans(spec.name, &logs);
    setup.finish(out);
    Ok(())
}

/// Set-up only (for the repeated set-up measurement).
pub fn setup_only(spec: &Spec, out: &mut Outcome) -> std::io::Result<()> {
    let setup = Setup::build(spec)?;
    out.setup_done();
    setup.finish(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            id: 7,
            verdict: Verdict {
                anomalous: true,
                confirmed: true,
                lambda: 0.1,
                p_max: 0.5,
                delta: 0.25,
                suspect_link: None,
                isolate: Vec::new(),
            },
            score: 1.5,
        }
    }

    fn response(e: &Expected) -> WireResponse {
        WireResponse::ok(DetectionResponse {
            id: e.id,
            detector: "sam".into(),
            score: e.score,
            verdict: e.verdict.clone(),
            profile_cache_hit: true,
            timing: StageTiming::default(),
            explanation: None,
        })
    }

    #[test]
    fn matching_response_passes_and_round_trips_the_wire() {
        let e = expected();
        let line = response(&e).encode();
        let decoded = WireResponse::decode(line.as_bytes()).unwrap();
        assert_eq!(validate(&e, false, &decoded), Status::Ok);
    }

    #[test]
    fn injected_verdict_mismatch_is_a_failed_operation() {
        let e = expected();
        let mut wrong = response(&e);
        wrong.verdict.as_mut().unwrap().confirmed = false;
        assert!(matches!(validate(&e, false, &wrong), Status::Mismatch(_)));
        let mut wrong_score = response(&e);
        wrong_score.score = Some(1.25);
        assert!(matches!(
            validate(&e, false, &wrong_score),
            Status::Mismatch(_)
        ));
        let record = |status| client::Record {
            line: 0,
            due_ms: 0.0,
            sent_ms: 0.0,
            done_ms: Some(1.0),
            status,
            timing: None,
            cache_hit: None,
            response_bytes: 0,
            decode_us: 0.0,
        };
        let load = Load {
            rate: 1.0,
            window_s: 1.0,
            records: vec![record(Status::Ok), record(validate(&e, false, &wrong))],
            logs: Vec::new(),
            server_cpu_s: 0.0,
            client_cpu_s: 0.0,
            steal_share: 0.0,
        };
        assert_eq!(load.failed(), 1);
        let mut out = Outcome::new(Instant::now());
        out.failed += load.failed();
        assert!(!out.correct());
    }

    #[test]
    fn lateness_is_send_minus_due_and_latency_counts_from_due() {
        let rec = |due_ms: f64, sent_ms: f64, done_ms: f64| client::Record {
            line: 0,
            due_ms,
            sent_ms,
            done_ms: Some(done_ms),
            status: Status::Ok,
            timing: None,
            cache_hit: None,
            response_bytes: 0,
            decode_us: 0.0,
        };
        let load = Load {
            rate: 1.0,
            window_s: 1.0,
            records: (0..100)
                .map(|i| {
                    let due = i as f64;
                    // One request in a hundred is sent 7 ms late.
                    let late = if i == 42 { 7.0 } else { 0.0 };
                    rec(due, due + late, due + late + 1.0)
                })
                .collect(),
            logs: Vec::new(),
            server_cpu_s: 0.0,
            client_cpu_s: 0.0,
            steal_share: 0.0,
        };
        let late = load.lateness_ms();
        assert_eq!(late[42], 7.0);
        assert_eq!(stats::percentile(&late, 0.99).unwrap().value, 0.0);
        assert_eq!(stats::percentile(&late, 1.0).unwrap().value, 7.0);
        // The stall the late send imposed is part of that request's latency.
        assert_eq!(load.records[42].latency_ms(), Some(8.0));
        let latencies: Vec<f64> = load.records.iter().filter_map(|r| r.latency_ms()).collect();
        assert_eq!(stats::percentile(&latencies, 0.5).unwrap().value, 1.0);
        assert!(generator_valid(&load));
        assert_eq!(latency_pct(&load, 1.0), 8.0);
        // Two sends in a hundred later than the bound: p99 is past it, the
        // phase is invalid and its latencies are withheld.
        let mut stalled = load;
        for i in [10, 20] {
            stalled.records[i].sent_ms += LATENESS_BOUND_MS + 1.0;
        }
        assert!(!generator_valid(&stalled));
        assert_eq!(latency_pct(&stalled, 0.5), 0.0);
    }

    #[test]
    fn shed_error_and_wrong_id_fail() {
        let e = expected();
        assert_eq!(validate(&e, false, &WireResponse::shed(7, 3)), Status::Shed);
        assert!(matches!(
            validate(&e, false, &WireResponse::error(7, "x")),
            Status::Error(_)
        ));
        let mut other = response(&e);
        other.id = 8;
        assert!(matches!(validate(&e, false, &other), Status::Error(_)));
        // Evidence responses must carry an explanation and a trace id.
        assert!(matches!(
            validate(&e, true, &response(&e)),
            Status::Error(_)
        ));
    }

    #[test]
    fn schedule_is_fixed_by_the_seed_and_covers_every_line() {
        let a = schedule(1, 1, 48, 200);
        assert_eq!(a, schedule(1, 1, 48, 200));
        assert_ne!(a, schedule(2, 1, 48, 200));
        assert_ne!(a, schedule(1, 2, 48, 200));
        let mut first: Vec<usize> = a[..48].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..48).collect::<Vec<_>>());
    }
}
