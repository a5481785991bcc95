//! Load generator for `sam-gateway`.
//!
//! Replays simulated route-discovery traffic (drawn from the shared
//! serving catalogue in [`sam_experiments::serving`], normal and attacked
//! mixed) against a running gateway and prints a throughput/latency
//! report.
//!
//! ```text
//! loadgen --remote HOST:PORT [--requests N] [--attacked-pct P]
//!         [--faults PLAN.json] [--detector NAME] [--json PATH]
//!         [--conns N] [--rate R] [--slo-p99-us N] [--drain]
//! ```
//!
//! Traffic crosses TCP to the gateway at `--remote ADDR`, which is
//! required: `--conns` client connections each pipeline their share of
//! the requests as JSONL and read verdict lines back, `--rate` schedules
//! an open-loop arrival rate (requests/s across all connections; 0 =
//! closed loop), `--slo-p99-us` turns the p99 into an exit-code
//! assertion, and `--drain` sends the gateway a `{"cmd":"drain"}` line
//! after the soak. Service-side knobs (requests in compute, cache size,
//! explanations, telemetry) are `sam-gateway` flags.
//!
//! `--faults PLAN.json` composes a [`sam_faults::FaultPlan`] onto every
//! simulated discovery of the replay corpus (profiles still train on
//! clean runs) — the serving-path version of the robustness sweep.
//!
//! The final summary is one [`LoadgenSummary`] — stdout and `--json PATH`
//! render the same struct, so they cannot disagree. Service shed,
//! refusals and transport failures are separate fields: `shed` counts
//! deliberate overload responses, `refused` every other answer that is
//! not `"ok"` (`"error"`, `"unknown_detector"`), and `transport_errors`
//! connection-level losses.
//! CI's smokes assert on the JSON (`cache_misses` counts the responses
//! that trained a profile); speed is gated by perfbench, not by this
//! summary.

use sam_experiments::serving::{replay_corpus, CorpusEntry};
use sam_serve::prelude::*;
use sam_serve::request::micros;
use sam_serve::wire::{round_trip, FrameReader, WireRequest, WireResponse, STATUS_OK, STATUS_SHED};
use sam_telemetry::{Histogram, TraceIdGen};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    remote: String,
    requests: u64,
    attacked_pct: u32,
    faults: Option<String>,
    detector: Option<String>,
    json: Option<String>,
    conns: usize,
    rate: f64,
    slo_p99_us: Option<u64>,
    drain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        remote: String::new(),
        requests: 10_000,
        attacked_pct: 30,
        faults: None,
        detector: None,
        json: None,
        conns: 4,
        rate: 0.0,
        slo_p99_us: None,
        drain: false,
    };
    let mut remote = None;
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
            "--remote" => remote = Some(value("--remote")?),
            "--requests" => args.requests = parse!("--requests"),
            "--attacked-pct" => {
                args.attacked_pct = parse!("--attacked-pct");
                if args.attacked_pct > 100 {
                    return Err("--attacked-pct must be 0..=100".into());
                }
            }
            "--faults" => args.faults = Some(value("--faults")?),
            "--detector" => args.detector = Some(value("--detector")?),
            "--json" => args.json = Some(value("--json")?),
            "--conns" => args.conns = parse!("--conns"),
            "--rate" => args.rate = parse!("--rate"),
            "--slo-p99-us" => args.slo_p99_us = Some(parse!("--slo-p99-us")),
            "--drain" => args.drain = true,
            "--help" | "-h" => {
                println!(
                    "loadgen: replay simulated route discoveries against a running sam-gateway\n\n\
                     usage: loadgen --remote ADDR [options]\n\n\
                     options:\n  \
                     --remote ADDR     the sam-gateway to drive (required)\n  \
                     --requests N      total requests to send (default 10000)\n  \
                     --attacked-pct P  percent of traffic from attacked scenarios (default 30)\n  \
                     --faults PLAN     compose the fault plan in PLAN (JSON) onto corpus runs\n  \
                     --detector NAME   stamp every request with this detector (sam, zscore,\n                    \
                                       geometric, ensemble; default: unset = sam)\n  \
                     --json PATH       write the summary as JSON\n  \
                     --conns N         client connections (default 4)\n  \
                     --rate R          open-loop arrival rate, req/s across all connections\n                    \
                                       (default 0 = closed loop)\n  \
                     --slo-p99-us N    exit nonzero if the measured p99 exceeds N microseconds\n  \
                     --drain           send the gateway a drain command after the soak"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.remote =
        remote.ok_or("--remote ADDR is required: the address of a running sam-gateway")?;
    if args.conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    if args.rate < 0.0 || !args.rate.is_finite() {
        return Err("--rate must be a finite non-negative number".into());
    }
    Ok(args)
}

/// Client-side response tallies, merged across connections.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    refused: u64,
    transport: TransportErrors,
    confirmed: u64,
    explained: u64,
    cache_hits: u64,
    cache_misses: u64,
    submitted_ids: u64,
    responded_ids: u64,
    slowest: Option<SlowestRequest>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.completed += other.completed;
        self.shed += other.shed;
        self.refused += other.refused;
        self.transport.connect += other.transport.connect;
        self.transport.read += other.transport.read;
        self.transport.decode += other.transport.decode;
        self.transport.protocol += other.transport.protocol;
        self.confirmed += other.confirmed;
        self.explained += other.explained;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
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
    // the gateway, not the simulator.
    eprintln!("loadgen: simulating replay corpus ...");
    let corpus = replay_corpus(args.attacked_pct, fault_plan.as_ref());

    let (tally, elapsed, latency_us) = run(&args, &corpus);

    // Fold the gateway's own windowed view into the summary: fetched over
    // one extra connection after the soak but *before* any drain, so the
    // report reflects the live gateway the traffic just exercised.
    let gateway_stats =
        match sam_serve::stats::fetch_stats(&args.remote, None, false, Duration::from_secs(10)) {
            Ok((report, _)) => Some(report),
            Err(e) => {
                eprintln!("loadgen: gateway stats unavailable: {e}");
                None
            }
        };
    let transport_errors = tally.transport.total();
    let summary = LoadgenSummary {
        kind: "loadgen_summary".to_string(),
        requests: args.requests,
        completed: tally.completed,
        shed: tally.shed,
        refused: tally.refused,
        transport_errors,
        transport_error_breakdown: tally.transport,
        slowest: tally.slowest.clone(),
        dropped_responses: args
            .requests
            .saturating_sub(tally.completed + tally.shed + tally.refused + transport_errors),
        confirmed: tally.confirmed,
        explained: tally.explained,
        wall_s: elapsed.as_secs_f64(),
        p50_us: latency_us.percentile(0.50),
        p90_us: latency_us.percentile(0.90),
        p99_us: latency_us.percentile(0.99),
        cache_hits: tally.cache_hits,
        cache_misses: tally.cache_misses,
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

    // Every request must be accounted for: served, shed, refused, or
    // charged to the transport. When the transport was clean, the XOR of
    // answered ids must match the XOR of sent ids exactly.
    if tally.completed + tally.shed + tally.refused + transport_errors != args.requests
        || (transport_errors == 0 && tally.responded_ids != tally.submitted_ids)
    {
        eprintln!(
            "loadgen: RESPONSE ACCOUNTING BROKEN: {} completed + {} shed + {} refused + {} transport != {}",
            tally.completed, tally.shed, tally.refused, transport_errors, args.requests
        );
        return ExitCode::FAILURE;
    }
    if let Some(slo) = args.slo_p99_us {
        if summary.p99_us > slo {
            eprintln!("loadgen: SLO VIOLATED: p99 {}us > {slo}us", summary.p99_us);
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen: SLO ok: p99 {}us <= {slo}us", summary.p99_us);
    }
    if args.drain {
        match send_drain(&args.remote) {
            Ok(status) => eprintln!("loadgen: drain acknowledged ({status})"),
            Err(e) => {
                eprintln!("loadgen: drain command failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// In-flight cap per connection: pipelining window before the sender
/// blocks on responses. Bounds client memory and, at saturation, degrades
/// the open loop to a closed one instead of buffering without limit.
const PIPELINE_WINDOW: usize = 64;
/// How long to keep retrying the initial connect (gateway may still be
/// training profiles or binding).
const CONNECT_RETRY: Duration = Duration::from_secs(10);
/// Socket read timeout per response. Generous: first requests pay
/// one-time profile training on the gateway side.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One corpus entry pre-flattened for the wire (routes as node-id arrays,
/// conversion off the hot path).
struct WireEntry {
    topology: String,
    protocol: String,
    routes: Vec<Vec<u32>>,
    attacked: bool,
}

/// Drive the soak; returns the merged tally, the wall time, and the
/// round-trip latencies of completed requests (µs, power-of-two buckets).
fn run(args: &Args, corpus: &[CorpusEntry]) -> (Tally, Duration, Arc<Histogram>) {
    let latency_us = Arc::new(Histogram::pow2());
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
        "loadgen: driving {} with {} requests over {} connections{}",
        args.remote,
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
            let addr = args.remote.clone();
            let corpus = wire_corpus.clone();
            let latency_us = latency_us.clone();
            let detector = args.detector.clone();
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{conn}"))
                .spawn(move || {
                    client(
                        &addr,
                        conn,
                        &corpus,
                        &ids,
                        per_conn_rate,
                        detector.as_deref(),
                        &latency_us,
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
    (tally, start.elapsed(), latency_us)
}

/// Drive one connection's share of the soak. Requests are pipelined up to
/// [`PIPELINE_WINDOW`] deep; the gateway answers in order per connection,
/// so responses match the send queue front by construction (a mismatch is
/// a transport error).
fn client(
    addr: &str,
    conn: usize,
    corpus: &[WireEntry],
    ids: &[u64],
    rate: f64,
    detector: Option<&str>,
    latency_us: &Histogram,
) -> Tally {
    let mut tally = Tally::default();
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
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
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
                    let latency = micros(sent.elapsed());
                    latency_us.record(latency);
                    tally.note_completed(id, latency, Some(trace));
                    if resp.verdict.as_ref().is_some_and(|v| v.confirmed) {
                        tally.confirmed += 1;
                    }
                    if resp.explanation.is_some() {
                        tally.explained += 1;
                    }
                    match resp.profile_cache_hit {
                        Some(true) => tally.cache_hits += 1,
                        Some(false) => tally.cache_misses += 1,
                        None => {}
                    }
                }
                STATUS_SHED => {
                    tally.shed += 1;
                    tally.responded_ids ^= id;
                }
                _ => {
                    tally.refused += 1;
                    tally.responded_ids ^= id;
                }
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
