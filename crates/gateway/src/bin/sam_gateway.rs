//! The gateway daemon: serve SAM detection over TCP/JSONL until asked to
//! drain.
//!
//! ```text
//! sam-gateway [--addr HOST:PORT] [--shards N] [--replicas N]
//!             [--queue N] [--cache N]
//!             [--max-conns N] [--backlog N] [--explain]
//!             [--telemetry PATH] [--stats-interval-ms N]
//!             [--slo-p99-us N] [--slow-request-us N]
//!             [--trace] [--trace-seed N] [--trace-capacity N]
//!             [--audit-log PATH]
//! ```
//!
//! Profiles train on demand from the shared serving catalogue
//! ([`sam_experiments::serving`]) — the same deployments `loadgen`
//! replays traffic from, so every key it sends resolves to a profile
//! here. Requests for keys outside the catalogue
//! get an `"error"` response (the front door never trains on unknown
//! keys).
//!
//! SIGINT/SIGTERM (or a client's `{"cmd":"drain"}` line) triggers
//! graceful drain: the listener closes, every request already received
//! is answered, and the process exits 0 after
//! printing the final telemetry snapshot. `--telemetry PATH` writes
//! spans plus that snapshot as JSONL.

use sam_experiments::serving::{catalogue, find, train_profile, Deployment};
use sam_gateway::prelude::*;
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use sam_telemetry::{report::write_jsonl, Telemetry};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    shards: usize,
    replicas: u32,
    queue: usize,
    cache: usize,
    max_conns: usize,
    backlog: usize,
    explain: bool,
    telemetry: Option<String>,
    stats_interval_ms: u64,
    slo_p99_us: Option<u64>,
    slow_request_us: Option<u64>,
    trace: bool,
    trace_seed: u64,
    trace_capacity: usize,
    audit_log: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        let service = ServiceConfig::default();
        Args {
            addr: "127.0.0.1:7700".to_string(),
            shards: 2,
            replicas: DEFAULT_REPLICAS,
            queue: service.queue_capacity,
            cache: service.cache_capacity,
            max_conns: 64,
            backlog: 128,
            explain: false,
            telemetry: None,
            stats_interval_ms: 1000,
            slo_p99_us: None,
            slow_request_us: None,
            trace: false,
            trace_seed: 0,
            trace_capacity: 64,
            audit_log: None,
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
            "--addr" => args.addr = value("--addr")?,
            "--shards" => args.shards = parse!("--shards"),
            "--replicas" => args.replicas = parse!("--replicas"),
            "--queue" => args.queue = parse!("--queue"),
            "--cache" => args.cache = parse!("--cache"),
            "--max-conns" => args.max_conns = parse!("--max-conns"),
            "--backlog" => args.backlog = parse!("--backlog"),
            "--explain" => args.explain = true,
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--stats-interval-ms" => args.stats_interval_ms = parse!("--stats-interval-ms"),
            "--slo-p99-us" => args.slo_p99_us = Some(parse!("--slo-p99-us")),
            "--slow-request-us" => args.slow_request_us = Some(parse!("--slow-request-us")),
            "--trace" => args.trace = true,
            "--trace-seed" => args.trace_seed = parse!("--trace-seed"),
            "--trace-capacity" => args.trace_capacity = parse!("--trace-capacity"),
            "--audit-log" => args.audit_log = Some(value("--audit-log")?),
            "--help" | "-h" => {
                println!(
                    "sam-gateway: TCP/JSONL front-end for SAM detection\n\n\
                     options:\n  \
                     --addr HOST:PORT  listen address (default 127.0.0.1:7700; port 0 picks one)\n  \
                     --shards N        DetectionService shards (default 2)\n  \
                     --replicas N      hash-ring virtual points per shard (default {})\n  \
                     --queue N         requests in compute per shard before shedding (default 256)\n  \
                     --cache N         profiles kept per shard LRU (default 16)\n  \
                     --max-conns N     concurrent connections served (default 64)\n  \
                     --backlog N       accepted connections buffered before shedding (default 128)\n  \
                     --explain         attach verdict explanations to responses\n  \
                     --telemetry PATH  write spans + final snapshot as JSONL on exit\n  \
                     --stats-interval-ms N  window-ring sampling period (default 1000)\n  \
                     --slo-p99-us N    latency SLO; slower requests count into slo_burn\n  \
                     --slow-request-us N  count and log requests slower than this as telemetry\n                       \
                        events; with --trace, also tail-sample them as slow\n  \
                     --trace           follow requests under trace ids; serve {{\"cmd\":\"trace\"}}\n  \
                     --trace-seed N    seed for minted trace ids (default 0)\n  \
                     --trace-capacity N  exemplars kept in the tail-sampler ring (default 64)\n  \
                     --audit-log PATH  append one verdict-audit JSONL line per request",
                    DEFAULT_REPLICAS
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.shards == 0 || args.queue == 0 {
        return Err("--shards and --queue must be at least 1".into());
    }
    if args.max_conns == 0 || args.backlog == 0 || args.replicas == 0 {
        return Err("--max-conns, --backlog, and --replicas must be at least 1".into());
    }
    if args.stats_interval_ms == 0 {
        return Err("--stats-interval-ms must be at least 1".into());
    }
    if args.trace_capacity == 0 {
        return Err("--trace-capacity must be at least 1".into());
    }
    if (args.audit_log.is_some() || args.trace_seed != 0) && !args.trace {
        return Err("--audit-log and --trace-seed need --trace".into());
    }
    Ok(args)
}

/// Train profiles from the shared serving catalogue. Keys outside the
/// catalogue never reach this (the gateway's `known_keys` guard answers
/// them with an error line first).
fn profile_source() -> ProfileSource {
    Arc::new(|key: &ProfileKey| {
        let deployment = find(&key.topology, &key.protocol)
            .unwrap_or_else(|| panic!("profile key {key} passed the known-keys guard unknown"));
        train_profile(&deployment)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sam-gateway: {e} (try --help)");
            return ExitCode::FAILURE;
        }
    };

    // Install before binding: the gateway and its shards capture the
    // process-global registry at start.
    let telemetry = args.telemetry.as_ref().map(|_| {
        let tel = Telemetry::new();
        sam_telemetry::install(tel.clone());
        tel
    });

    let cfg = GatewayConfig {
        shards: args.shards,
        replicas: args.replicas,
        // Requests run on the connection workers, through each shard's
        // one way in (`DetectionService::serve`); the service does not
        // use `workers` or `max_batch`.
        service: ServiceConfig {
            queue_capacity: args.queue,
            cache_capacity: args.cache,
            // Calibrated like the detection experiment: at ~10-run
            // training scale the 3σ default under-fires.
            detector: sam::SamConfig::calibrated(),
            explain: args.explain,
            ..ServiceConfig::default()
        },
        max_conns: args.max_conns,
        backlog: args.backlog,
        known_keys: Some(catalogue().iter().map(Deployment::key_string).collect()),
        stats_interval: Duration::from_millis(args.stats_interval_ms),
        slo_p99_us: args.slo_p99_us,
        slow_request_us: args.slow_request_us,
        trace: args.trace,
        trace_seed: args.trace_seed,
        trace_capacity: args.trace_capacity,
        audit_log: args.audit_log.as_ref().map(std::path::PathBuf::from),
    };

    let gateway = match Gateway::bind(&args.addr, cfg, profile_source()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("sam-gateway: binding {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The machine-readable readiness line: scripts wait for it, and with
    // port 0 it is the only way to learn the port.
    println!("sam-gateway: listening on {}", gateway.local_addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "sam-gateway: {} shards, {} requests in compute per shard, {} conns max",
        args.shards, args.queue, args.max_conns
    );

    // SIGINT/SIGTERM begins the drain; the poll loop below notices either
    // the signal or a client-issued drain command.
    let signalled = Arc::new(AtomicBool::new(false));
    {
        let signalled = signalled.clone();
        if let Err(e) = ctrlc::set_handler(move || signalled.store(true, Ordering::Release)) {
            eprintln!("sam-gateway: installing signal handler: {e}");
        }
    }
    while !signalled.load(Ordering::Acquire) && !gateway.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("sam-gateway: draining ...");
    let snapshot = gateway.drain();
    eprintln!(
        "sam-gateway: drained: {} conns accepted ({} shed), {} requests served ({} shed, {} codec errors)",
        snapshot.counter("gateway.accepted"),
        snapshot.counter("gateway.conn_shed"),
        snapshot.counter("gateway.requests"),
        snapshot.counter("gateway.request_shed"),
        snapshot.counter("gateway.codec_errors"),
    );

    if let (Some(tel), Some(path)) = (telemetry, &args.telemetry) {
        sam_telemetry::uninstall();
        let records = tel.drain();
        let write = std::fs::File::create(path)
            .and_then(|f| write_jsonl(std::io::BufWriter::new(f), &records, Some(&snapshot)));
        match write {
            Ok(()) => eprintln!("sam-gateway: {} telemetry records -> {path}", records.len()),
            Err(e) => {
                eprintln!("sam-gateway: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
