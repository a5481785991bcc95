//! Load generator for the SAM detection service — in-process or against
//! a remote `sam-gateway`.
//!
//! Replays simulated route-discovery traffic (drawn from the shared
//! serving catalogue in [`sam_experiments::serving`], normal and attacked
//! mixed) and prints a throughput/latency report.
//!
//! ```text
//! loadgen [--requests N] [--workers N] [--batch N] [--queue N]
//!         [--attacked-pct P] [--faults PLAN.json] [--explain]
//!         [--json PATH] [--telemetry PATH]
//!         [--remote HOST:PORT] [--conns N] [--rate R]
//!         [--slo-p99-us N] [--drain]
//! ```
//!
//! Without `--remote`, traffic goes through an in-process
//! [`DetectionService`] (`--workers/--batch/--queue` shape it). With
//! `--remote ADDR`, traffic crosses TCP to a running `sam-gateway`:
//! `--conns` client connections each pipeline their share of the
//! requests as JSONL and read verdict lines back, `--rate` schedules an
//! open-loop arrival rate (requests/s across all connections; 0 = closed
//! loop), `--slo-p99-us` turns the p99 into an exit-code assertion, and
//! `--drain` sends the gateway a `{"cmd":"drain"}` line after the soak.
//!
//! `--faults PLAN.json` composes a [`sam_faults::FaultPlan`] onto every
//! simulated discovery of the replay corpus (profiles still train on
//! clean runs) — the serving-path version of the robustness sweep.
//!
//! The final summary is one [`LoadgenSummary`] — stdout and `--json PATH`
//! render the same struct, so they cannot disagree. Service shed and
//! transport failures are separate fields: `shed` counts deliberate
//! overload responses, `transport_errors` counts connection-level losses
//! (always 0 in-process). CI's smokes assert on the JSON, reading profile
//! trainings from the registry snapshot in its [`BenchReport`] core;
//! speed is gated by perfbench, not by this summary. `--telemetry PATH`
//! additionally installs the process-global collector and writes spans
//! plus the snapshot as JSONL.

use sam_experiments::serving::{find, replay_corpus, train_profile, CorpusEntry};
use sam_serve::prelude::*;
use sam_serve::request::micros;
use sam_serve::service::ProfileSource;
use sam_serve::wire::{round_trip, FrameReader, WireRequest, WireResponse, STATUS_OK, STATUS_SHED};
use sam_telemetry::{
    report::write_jsonl, BenchReport, Registry, RegistrySnapshot, Telemetry, TraceIdGen,
};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: u64,
    workers: usize,
    batch: usize,
    queue: usize,
    attacked_pct: u32,
    faults: Option<String>,
    detector: Option<String>,
    explain: bool,
    json: Option<String>,
    telemetry: Option<String>,
    remote: Option<String>,
    conns: usize,
    rate: f64,
    slo_p99_us: Option<u64>,
    drain: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            requests: 10_000,
            workers: ServiceConfig::default().workers,
            batch: 32,
            queue: 256,
            attacked_pct: 30,
            faults: None,
            detector: None,
            explain: false,
            json: None,
            telemetry: None,
            remote: None,
            conns: 4,
            rate: 0.0,
            slo_p99_us: None,
            drain: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        macro_rules! parse {
            ($name:literal) => {
                value($name)?
                    .parse()
                    .map_err(|e| format!("{}: {e}", $name))?
            };
        }
        match flag.as_str() {
            "--requests" => args.requests = parse!("--requests"),
            "--workers" => args.workers = parse!("--workers"),
            "--batch" => args.batch = parse!("--batch"),
            "--queue" => args.queue = parse!("--queue"),
            "--attacked-pct" => {
                args.attacked_pct = parse!("--attacked-pct");
                if args.attacked_pct > 100 {
                    return Err("--attacked-pct must be 0..=100".into());
                }
            }
            "--faults" => args.faults = Some(value("--faults")?),
            "--detector" => args.detector = Some(value("--detector")?),
            "--explain" => args.explain = true,
            "--json" => args.json = Some(value("--json")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--remote" => args.remote = Some(value("--remote")?),
            "--conns" => args.conns = parse!("--conns"),
            "--rate" => args.rate = parse!("--rate"),
            "--slo-p99-us" => args.slo_p99_us = Some(parse!("--slo-p99-us")),
            "--drain" => args.drain = true,
            "--help" | "-h" => {
                println!(
                    "loadgen: replay simulated route discoveries through sam-serve\n\n\
                     options:\n  \
                     --requests N      total requests to submit (default 10000)\n  \
                     --workers N       service worker threads (default: cores; local mode)\n  \
                     --batch N         max requests drained per worker wake (default 32; local)\n  \
                     --queue N         per-shard queue capacity (default 256; local mode)\n  \
                     --attacked-pct P  percent of traffic from attacked scenarios (default 30)\n  \
                     --faults PLAN     compose the fault plan in PLAN (JSON) onto corpus runs\n  \
                     --detector NAME   stamp every request with this detector (sam, zscore,\n                    \
                                       geometric, ensemble; default: unset = sam)\n  \
                     --explain         attach verdict explanations to every response (local)\n  \
                     --json PATH       write the summary as JSON\n  \
                     --telemetry PATH  write batch spans + metrics snapshot as JSONL\n  \
                     --remote ADDR     drive a running sam-gateway at ADDR instead of an\n                    \
                                       in-process service\n  \
                     --conns N         client connections in remote mode (default 4)\n  \
                     --rate R          open-loop arrival rate, req/s across all connections\n                    \
                                       (default 0 = closed loop)\n  \
                     --slo-p99-us N    exit nonzero if the measured p99 exceeds N microseconds\n  \
                     --drain           send the gateway a drain command after the soak (remote)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workers == 0 || args.batch == 0 || args.queue == 0 {
        return Err("--workers, --batch, and --queue must be at least 1".into());
    }
    if args.conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    if args.rate < 0.0 || !args.rate.is_finite() {
        return Err("--rate must be a finite non-negative number".into());
    }
    if (args.rate > 0.0 || args.drain) && args.remote.is_none() {
        return Err("--rate and --drain require --remote".into());
    }
    Ok(args)
}

/// Train profiles the way the experiments crate (and the gateway) does:
/// route sets from normal runs at seeds far from the serving traffic's.
fn profile_source() -> ProfileSource {
    Arc::new(|key: &ProfileKey| {
        let deployment = find(&key.topology, &key.protocol)
            .unwrap_or_else(|| panic!("no scenario for profile key {key}"));
        train_profile(&deployment)
    })
}

/// Client-side response tallies, merged across connections in remote
/// mode.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    transport: TransportErrors,
    confirmed: u64,
    explained: u64,
    submitted_ids: u64,
    responded_ids: u64,
    slowest: Option<SlowestRequest>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.completed += other.completed;
        self.shed += other.shed;
        self.transport.connect += other.transport.connect;
        self.transport.read += other.transport.read;
        self.transport.decode += other.transport.decode;
        self.transport.protocol += other.transport.protocol;
        self.confirmed += other.confirmed;
        self.explained += other.explained;
        self.submitted_ids ^= other.submitted_ids;
        self.responded_ids ^= other.responded_ids;
        if other
            .slowest
            .as_ref()
            .map(|s| s.latency_us)
            .unwrap_or_default()
            > self
                .slowest
                .as_ref()
                .map(|s| s.latency_us)
                .unwrap_or_default()
        {
            self.slowest = other.slowest;
        }
    }

    fn note_completed(&mut self, id: u64, latency_us: u64, trace: Option<String>) {
        if latency_us
            > self
                .slowest
                .as_ref()
                .map(|s| s.latency_us)
                .unwrap_or_default()
            || self.slowest.is_none()
        {
            self.slowest = Some(SlowestRequest {
                id,
                latency_us,
                trace,
            });
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    // Install before the service starts: DetectionService captures the
    // global registry at start, and worker batch spans need a collector.
    // (Remote mode records into a private client registry instead; the
    // collector stays useful for the snapshot record.)
    let telemetry = args.telemetry.as_ref().map(|_| {
        let tel = Telemetry::new();
        sam_telemetry::install(tel.clone());
        tel
    });

    // An optional fault plan composed onto every corpus run (profiles
    // still train clean — the deployment story).
    let fault_plan = match &args.faults {
        None => None,
        Some(path) => match sam_faults::FaultPlan::load(std::path::Path::new(path)) {
            Ok(plan) => {
                eprintln!("loadgen: fault plan '{}' from {path}", plan.name);
                Some(plan)
            }
            Err(e) => {
                eprintln!("loadgen: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Pre-simulate the replay corpus so the measured section exercises
    // the service, not the simulator.
    eprintln!("loadgen: simulating replay corpus ...");
    let corpus = replay_corpus(args.attacked_pct, fault_plan.as_ref());

    let (tally, elapsed, report, snapshot) = match &args.remote {
        Some(addr) => remote_run(&args, addr, &corpus),
        None => local_run(&args, &corpus),
    };

    // In remote mode, fold the gateway's own windowed view into the
    // summary: fetched over one extra connection after the soak but
    // *before* any drain, so the report reflects the live gateway the
    // traffic just exercised.
    let gateway_stats =
        args.remote.as_deref().and_then(|addr| {
            match sam_serve::stats::fetch_stats(addr, None, false, Duration::from_secs(10)) {
                Ok((report, _)) => Some(report),
                Err(e) => {
                    eprintln!("loadgen: gateway stats unavailable: {e}");
                    None
                }
            }
        });
    let transport_errors = tally.transport.total();
    let summary = LoadgenSummary {
        kind: "loadgen_summary".to_string(),
        requests: args.requests,
        completed: tally.completed,
        shed: tally.shed,
        transport_errors,
        transport_error_breakdown: tally.transport,
        slowest: tally.slowest.clone(),
        dropped_responses: args
            .requests
            .saturating_sub(tally.completed + tally.shed + transport_errors),
        confirmed: tally.confirmed,
        explained: tally.explained,
        bench: BenchReport::new("loadgen", elapsed.as_secs_f64(), snapshot.clone()),
        metrics: report,
        gateway_stats,
    };

    println!("{summary}");

    let mut failed = false;
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, summary.to_json()) {
            eprintln!("loadgen: writing {path}: {e}");
            failed = true;
        } else {
            eprintln!("loadgen: wrote {path}");
        }
    }
    if let (Some(tel), Some(path)) = (telemetry, &args.telemetry) {
        sam_telemetry::uninstall();
        let records = tel.drain();
        let write = std::fs::File::create(path)
            .and_then(|f| write_jsonl(std::io::BufWriter::new(f), &records, Some(&snapshot)));
        match write {
            Ok(()) => eprintln!("loadgen: {} telemetry records -> {path}", records.len()),
            Err(e) => {
                eprintln!("loadgen: writing {path}: {e}");
                failed = true;
            }
        }
    }

    // Every request must be accounted for: answered, shed, or charged to
    // the transport. When the transport was clean, the XOR of answered
    // ids must match the XOR of sent ids exactly.
    if tally.completed + tally.shed + transport_errors != args.requests
        || (transport_errors == 0 && tally.responded_ids != tally.submitted_ids)
    {
        eprintln!(
            "loadgen: RESPONSE ACCOUNTING BROKEN: {} completed + {} shed + {} transport != {}",
            tally.completed, tally.shed, transport_errors, args.requests
        );
        return ExitCode::FAILURE;
    }
    if let Some(slo) = args.slo_p99_us {
        if summary.metrics.p99_us > slo {
            eprintln!(
                "loadgen: SLO VIOLATED: p99 {}us > {}us",
                summary.metrics.p99_us, slo
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen: SLO ok: p99 {}us <= {}us",
            summary.metrics.p99_us, slo
        );
    }
    if args.drain {
        if let Some(addr) = &args.remote {
            match send_drain(addr) {
                Ok(status) => eprintln!("loadgen: drain acknowledged ({status})"),
                Err(e) => {
                    eprintln!("loadgen: drain command failed: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// Local (in-process) mode
// ---------------------------------------------------------------------------

fn local_run(
    args: &Args,
    corpus: &[CorpusEntry],
) -> (Tally, Duration, MetricsReport, RegistrySnapshot) {
    let cfg = ServiceConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        max_batch: args.batch,
        // Calibrated like the detection experiment: at ~10-run training
        // scale the 3σ library default under-fires on held-out traffic.
        detector: sam::SamConfig::calibrated(),
        explain: args.explain,
        ..ServiceConfig::default()
    };
    eprintln!(
        "loadgen: starting service ({} workers, queue {}, batch {})",
        cfg.workers, cfg.queue_capacity, cfg.max_batch
    );
    let service = DetectionService::start(cfg, profile_source());

    // Warm the profile cache outside the measured window (training is a
    // one-time cost per deployment, not a serving cost).
    for (deployment, _, routes) in corpus {
        let _ = service
            .submit(DetectionRequest {
                id: u64::MAX,
                key: ProfileKey::new(&deployment.topology, &deployment.protocol),
                routes: routes.clone(),
                probe_ack_ratio: None,
                detector: None,
            })
            .map(Pending::wait);
    }

    eprintln!("loadgen: replaying {} requests ...", args.requests);
    let start = Instant::now();
    let mut pending: Vec<Pending> = Vec::with_capacity(1024);
    let mut tally = Tally::default();

    let drain = |pending: &mut Vec<Pending>, tally: &mut Tally| {
        for p in pending.drain(..) {
            let resp = p.wait();
            tally.completed += 1;
            tally.responded_ids ^= resp.id;
            if resp.verdict.confirmed {
                tally.confirmed += 1;
            }
            if resp.explanation.is_some() {
                tally.explained += 1;
            }
        }
    };

    for i in 0..args.requests {
        let (deployment, attacked, routes) = &corpus[(i % corpus.len() as u64) as usize];
        let req = DetectionRequest {
            id: i,
            key: ProfileKey::new(&deployment.topology, &deployment.protocol),
            routes: routes.clone(),
            // Attacked traffic fails its probe test; normal traffic acks.
            probe_ack_ratio: if *attacked { Some(0.1) } else { None },
            detector: args.detector.clone(),
        };
        let mut retried = false;
        loop {
            match service.submit(req.clone()) {
                Ok(p) => {
                    tally.submitted_ids ^= i;
                    pending.push(p);
                    // Cap the in-flight window so the generator exerts
                    // real backpressure instead of buffering every handle.
                    if pending.len() >= 1024 {
                        drain(&mut pending, &mut tally);
                    }
                    break;
                }
                Err(SubmitError::Rejected { .. }) if !retried => {
                    // Closed-loop client: absorb the overload signal by
                    // draining in-flight responses, then retry once.
                    retried = true;
                    drain(&mut pending, &mut tally);
                }
                Err(SubmitError::Rejected { .. }) => {
                    tally.shed += 1;
                    break;
                }
                Err(SubmitError::Closed) => {
                    eprintln!("loadgen: service closed mid-run");
                    std::process::exit(1);
                }
                Err(e @ SubmitError::UnknownDetector { .. }) => {
                    eprintln!("loadgen: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    drain(&mut pending, &mut tally);
    let elapsed = start.elapsed();

    let report = service.metrics().report(service.queue_depth());
    let snapshot = service.registry().snapshot();
    service.shutdown();
    (tally, elapsed, report, snapshot)
}

// ---------------------------------------------------------------------------
// Remote mode
// ---------------------------------------------------------------------------

/// In-flight cap per connection: pipelining window before the sender
/// blocks on responses. Bounds client memory and, at saturation, degrades
/// the open loop to a closed one instead of buffering without limit.
const PIPELINE_WINDOW: usize = 64;
/// How long to keep retrying the initial connect (gateway may still be
/// training profiles or binding).
const CONNECT_RETRY: Duration = Duration::from_secs(10);
/// Socket read timeout per response. Generous: first requests pay
/// one-time profile training on the gateway side.
const REMOTE_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One corpus entry pre-flattened for the wire (routes as node-id arrays,
/// conversion off the hot path).
struct WireEntry {
    topology: String,
    protocol: String,
    routes: Vec<Vec<u32>>,
    attacked: bool,
}

fn remote_run(
    args: &Args,
    addr: &str,
    corpus: &[CorpusEntry],
) -> (Tally, Duration, MetricsReport, RegistrySnapshot) {
    // Client-side registry: the same serve.* instrument names the local
    // service would populate, so LoadgenSummary reads identically —
    // except here latency spans the wire and cache hits come from the
    // gateway's per-response flag.
    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(ServiceMetrics::with_registry(&registry));
    let wire_corpus: Arc<Vec<WireEntry>> = Arc::new(
        corpus
            .iter()
            .map(|(deployment, attacked, routes)| WireEntry {
                topology: deployment.topology.clone(),
                protocol: deployment.protocol.clone(),
                routes: routes
                    .iter()
                    .map(|r| r.nodes().iter().map(|n| n.0).collect())
                    .collect(),
                attacked: *attacked,
            })
            .collect(),
    );

    eprintln!(
        "loadgen: driving {addr} with {} requests over {} connections{}",
        args.requests,
        args.conns,
        if args.rate > 0.0 {
            format!(" at {} req/s open-loop", args.rate)
        } else {
            " closed-loop".to_string()
        }
    );
    let start = Instant::now();
    let per_conn_rate = args.rate / args.conns as f64;
    let handles: Vec<_> = (0..args.conns)
        .map(|conn| {
            // Request ids are partitioned round-robin across connections.
            let ids: Vec<u64> = (0..args.requests)
                .filter(|i| (i % args.conns as u64) as usize == conn)
                .collect();
            let addr = addr.to_string();
            let corpus = wire_corpus.clone();
            let registry = registry.clone();
            let metrics = metrics.clone();
            let detector = args.detector.clone();
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{conn}"))
                .spawn(move || {
                    remote_client(
                        &addr,
                        conn,
                        &corpus,
                        &ids,
                        per_conn_rate,
                        detector.as_deref(),
                        &registry,
                        &metrics,
                    )
                })
                .expect("spawn client connection")
        })
        .collect();

    let mut tally = Tally::default();
    for h in handles {
        match h.join() {
            Ok(t) => tally.merge(t),
            Err(_) => eprintln!("loadgen: client connection thread panicked"),
        }
    }
    let elapsed = start.elapsed();
    let report = metrics.report(0);
    let snapshot = registry.snapshot();
    (tally, elapsed, report, snapshot)
}

/// Drive one connection's share of the soak. Requests are pipelined up to
/// [`PIPELINE_WINDOW`] deep; the gateway answers in order per connection,
/// so responses match the send queue front by construction (a mismatch is
/// a transport error).
#[allow(clippy::too_many_arguments)]
fn remote_client(
    addr: &str,
    conn: usize,
    corpus: &[WireEntry],
    ids: &[u64],
    rate: f64,
    detector: Option<&str>,
    registry: &Registry,
    metrics: &ServiceMetrics,
) -> Tally {
    let mut tally = Tally::default();
    let cache_hits = registry.counter("serve.cache_hits");
    let cache_misses = registry.counter("serve.cache_misses");
    // Every request carries a client-stamped trace id, deterministic in
    // (connection, send order), so a soak can be correlated against the
    // gateway's exemplars and audit log after the fact.
    let trace_gen = TraceIdGen::new(0x10adb00c ^ conn as u64);

    let stream = match connect_with_retry(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: connecting {addr}: {e}");
            tally.transport.connect += ids.len() as u64;
            return tally;
        }
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REMOTE_READ_TIMEOUT)).ok();
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
    let mut reader = match stream.try_clone() {
        Ok(s) => FrameReader::new(BufReader::new(s), sam_serve::wire::MAX_LINE_BYTES),
        Err(e) => {
            eprintln!("loadgen: cloning socket: {e}");
            tally.transport.connect += ids.len() as u64;
            return tally;
        }
    };
    let mut writer = BufWriter::new(stream);

    // (id, sent-at, trace) for every request written but not yet
    // answered.
    let mut in_flight: VecDeque<(u64, Instant, String)> = VecDeque::with_capacity(PIPELINE_WINDOW);
    let started = Instant::now();

    let mut read_one =
        |in_flight: &mut VecDeque<(u64, Instant, String)>, tally: &mut Tally| -> bool {
            let line = match reader.next_frame() {
                Ok(Some(line)) => line,
                Ok(None) | Err(_) => return false, // EOF / timeout / IO error
            };
            let resp = match WireResponse::decode(&line) {
                Ok(r) => r,
                Err(_) => {
                    tally.transport.decode += 1;
                    in_flight.pop_front();
                    return true;
                }
            };
            let Some((id, sent, trace)) = in_flight.pop_front() else {
                tally.transport.protocol += 1; // unsolicited response line
                return true;
            };
            if resp.id != id && resp.status == STATUS_OK {
                tally.transport.protocol += 1; // reordered — protocol broken
                return true;
            }
            match resp.status.as_str() {
                STATUS_OK => {
                    tally.completed += 1;
                    tally.responded_ids ^= resp.id;
                    let latency = sent.elapsed();
                    metrics.record_completed(latency);
                    tally.note_completed(id, micros(latency), Some(trace));
                    if resp.verdict.as_ref().is_some_and(|v| v.confirmed) {
                        tally.confirmed += 1;
                    }
                    if resp.explanation.is_some() {
                        tally.explained += 1;
                    }
                    match resp.profile_cache_hit {
                        Some(true) => cache_hits.inc(),
                        Some(false) => cache_misses.inc(),
                        None => {}
                    }
                }
                STATUS_SHED => {
                    tally.shed += 1;
                    tally.responded_ids ^= id;
                    metrics.record_rejected();
                }
                _ => tally.transport.protocol += 1, // error / unexpected drain
            }
            true
        };

    for (k, &id) in ids.iter().enumerate() {
        if rate > 0.0 {
            // Open-loop schedule: request k of this connection is due at
            // k/rate seconds, regardless of responses (up to the window).
            let due = started + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        while in_flight.len() >= PIPELINE_WINDOW {
            if !read_one(&mut in_flight, &mut tally) {
                tally.transport.read += in_flight.len() as u64;
                tally.transport.read += (ids.len() - k) as u64;
                return tally;
            }
        }
        let entry = &corpus[(id % corpus.len() as u64) as usize];
        let trace = trace_gen.next_id().to_string();
        let line = WireRequest {
            id,
            topology: entry.topology.clone(),
            protocol: entry.protocol.clone(),
            routes: entry.routes.clone(),
            probe_ack_ratio: if entry.attacked { Some(0.1) } else { None },
            detector: detector.map(str::to_string),
            timings: false,
            trace: Some(trace.clone()),
        }
        .encode();
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            tally.transport.read += in_flight.len() as u64 + (ids.len() - k) as u64;
            return tally;
        }
        tally.submitted_ids ^= id;
        metrics.record_submitted();
        in_flight.push_back((id, Instant::now(), trace));
    }
    while !in_flight.is_empty() {
        if !read_one(&mut in_flight, &mut tally) {
            tally.transport.read += in_flight.len() as u64;
            break;
        }
    }
    tally
}

fn connect_with_retry(addr: &str) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + CONNECT_RETRY;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Ask the gateway to drain on a fresh connection; returns the
/// acknowledged status string.
fn send_drain(addr: &str) -> Result<String, String> {
    let resp = round_trip(addr, &WireCommand::bare("drain"), Duration::from_secs(10))?;
    Ok(resp.status)
}
