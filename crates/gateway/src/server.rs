//! The TCP front-end: accept loop, connection workers, per-request
//! routing, overload shed, and graceful drain.
//!
//! ## Threading model
//!
//! ```text
//!              ┌─ acceptor ──┐   bounded backlog    ┌─ conn worker 0 ─┐
//!  TcpListener │  blocks in  │ ──────────────────▶ │ conn worker 1   │
//!              │   accept    │   (full ⇒ shed     │      …           │
//!              └─────────────┘    + close)         └─ conn worker N ─┘
//!                                                   each request, on the
//!                                                   worker that read it:
//!                                                   decode → ring.route(key)
//!                                                   → shard.serve → write
//!                                     ┌──────────────────────┴───────┐
//!                                     ▼                              ▼
//!                                  shard 0          …           shard S-1
//!                        (each: an admission count and its LRU profile
//!                         cache; no threads of its own)
//! ```
//!
//! One acceptor thread owns the listener and sleeps in `accept`;
//! `max_conns` connection workers each own one live connection at a
//! time, reading length-guarded JSONL frames and writing one response
//! line per request **in request order** (pipelining is supported;
//! responses never reorder within a connection). A request is decoded,
//! judged and answered on the connection worker that read it: its
//! deployment key consistent-hashes to one of `shards`
//! [`DetectionService`]s, whose [`serve`](DetectionService::serve), the
//! service's one way in, runs the detection on the calling thread. A
//! shard keeps a key's trained profile in its LRU cache and counts its
//! requests in compute; it has no queue or thread of its own. A request
//! whose profile source or detector panics gets one `"error"` line
//! (counted in `serve.failed`), and its connection stays open.
//!
//! ## Overload shed
//!
//! Two explicit shed points, both surfaced to the client as protocol
//! responses rather than silent drops:
//!
//! * **Connection level** — the accept backlog channel is bounded; when
//!   full, the acceptor writes one `"shed"` line on the new socket and
//!   closes it (`gateway.conn_shed`).
//! * **Request level** — `queue_capacity` (`--queue N`) bounds a shard's
//!   requests in compute at once. The next request for a full shard gets
//!   a `"shed"` response carrying `queue_depth`, the count it collided
//!   with (`gateway.request_shed`), the protocol's 503. `{"cmd":"stats"}`
//!   reports the same count per shard as `queue_depth`.
//!
//! ## Graceful drain
//!
//! [`Gateway::begin_drain`] (SIGTERM/ctrl-c in the binary, or the remote
//! `drain` command) flips one flag and wakes the acceptor out of
//! `accept` with one loopback connection of its own, which the acceptor
//! knows by its address and neither counts nor serves. The acceptor then
//! takes every connection the OS has already completed, and closes the
//! listener — new connects are refused at the TCP level. Connection
//! handlers finish every request already received (socket reads use a
//! short tick timeout, so each handler notices the flag within ~100ms of
//! going idle), then close. [`Gateway::drain`] joins all of that, stops
//! the stats sampler, and returns the final telemetry snapshot.

use crate::ring::{HashRing, DEFAULT_REPLICAS};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use sam_serve::prelude::*;
use sam_serve::request::micros;
use sam_serve::service::ProfileSource;
use sam_serve::stats::{ShardStats, StatsReport, StatsTotals, WindowStats, DEFAULT_WINDOWS_S};
use sam_serve::wire::{self, FrameError, FrameReader, WireLine, WireRequest, WireResponse};
use sam_telemetry::{
    Counter, EventRecord, Gauge, Histogram, Registry, SpanGuard, TraceContext, TraceIdGen,
    WindowRing, DEFAULT_WINDOW_SLOTS,
};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Gateway`] is shaped.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Independent [`DetectionService`] shards (each with its own profile
    /// cache and admission count). At least 1.
    pub shards: usize,
    /// Virtual points per shard on the hash ring.
    pub replicas: u32,
    /// Each shard's service. Requests run on the connection workers, so
    /// `workers` and `max_batch` are not used; `queue_capacity` bounds a
    /// shard's requests in compute at once.
    pub service: ServiceConfig,
    /// Concurrent connection handlers (= live connections). At least 1.
    pub max_conns: usize,
    /// Accepted-but-unhandled connections buffered before the acceptor
    /// sheds new ones.
    pub backlog: usize,
    /// When set, requests whose deployment key is not in this list get an
    /// `"error"` response instead of triggering profile training — the
    /// front door never trains on keys it has never heard of.
    pub known_keys: Option<Vec<String>>,
    /// How often the stats sampler pushes a registry snapshot into the
    /// window ring. The ring holds [`DEFAULT_WINDOW_SLOTS`] samples, so
    /// this also bounds the longest answerable window (64 slots × 1s
    /// covers the default 60s window).
    pub stats_interval: Duration,
    /// Latency SLO: requests slower than this count into
    /// `gateway.slo_violations`, and each window's `slo_burn` is the
    /// fraction of its requests that crossed it. `None` disables the
    /// burn accounting.
    pub slo_p99_us: Option<u64>,
    /// Slow-request threshold: served requests slower than this count
    /// into `gateway.slow_requests`, emit a `gateway.slow_request`
    /// telemetry event (deployment key, shard, stage breakdown) when
    /// global telemetry is installed, and, with `trace` on, are
    /// tail-sampled as `slow`. `None` disables all three.
    pub slow_request_us: Option<u64>,
    /// Follow every request under a trace id (client-stamped or minted
    /// from `trace_seed`), tail-sample interesting ones into the exemplar
    /// ring, and answer `{"cmd":"trace"}`. Off by default — the disabled
    /// cost is one `Option` check per request.
    pub trace: bool,
    /// Seed for minted trace ids — fixed seeds give reproducible soaks.
    pub trace_seed: u64,
    /// Exemplars retained in the tail-sampler ring (oldest evicted).
    pub trace_capacity: usize,
    /// Append one verdict-audit JSONL line per completed request here
    /// (requires `trace`). The file is created at bind and flushed per
    /// line.
    pub audit_log: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 2,
            replicas: DEFAULT_REPLICAS,
            service: ServiceConfig::default(),
            max_conns: 64,
            backlog: 128,
            known_keys: None,
            stats_interval: Duration::from_secs(1),
            slo_p99_us: None,
            slow_request_us: None,
            trace: false,
            trace_seed: 0,
            trace_capacity: 64,
            audit_log: None,
        }
    }
}

/// Socket-read tick: how often a blocked handler re-checks the drain
/// flag and idle deadline. Bounds drain latency for idle connections.
const READ_TICK: Duration = Duration::from_millis(100);

/// Per-write cap on response lines.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle cutoff: a connection with no complete frame for this long is
/// closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// After drain begins, in-flight connections get at most this long to
/// finish before being closed mid-stream.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Cap on the loopback connect that wakes the acceptor for drain. It
/// completes at once unless the listen backlog is full, and then the
/// acceptor is not asleep.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Everything the acceptor, connection workers, and public handle share.
struct Shared {
    cfg: GatewayConfig,
    ring: HashRing,
    services: Vec<DetectionService>,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    /// Where `begin_drain` connects to wake the acceptor: the listener's
    /// address, with an unspecified IP replaced by loopback.
    wake_to: SocketAddr,
    /// The local address of that wake connection, set once it is made
    /// (`None` when the connect failed).
    wake_from: OnceLock<Option<SocketAddr>>,
    active: AtomicUsize,
    registry: Arc<Registry>,
    accepted: Arc<Counter>,
    conn_shed: Arc<Counter>,
    requests: Arc<Counter>,
    request_shed: Arc<Counter>,
    codec_errors: Arc<Counter>,
    unknown_key: Arc<Counter>,
    unknown_detector: Arc<Counter>,
    active_conns: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    serialize_us: Arc<Histogram>,
    slo_violations: Arc<Counter>,
    slow_requests: Arc<Counter>,
    /// Requests routed per shard (live shard view for `stats`; plain
    /// atomics, not registry counters, because the breakdown is
    /// positional, not named).
    shard_requests: Vec<AtomicU64>,
    /// The stats sampler's snapshot ring; `now_us` timestamps count from
    /// `started`.
    window_ring: WindowRing,
    started: Instant,
    stop_sampler: AtomicBool,
    /// Present only with `GatewayConfig::trace` — the untraced fast path
    /// pays exactly this one `Option` check per request.
    tracer: Option<Tracer>,
}

/// The sam-wiretrace back end: mints trace ids, appends each finished
/// request's record to the audit trail, and keeps the records the
/// tail-sampling rule selects.
struct Tracer {
    gen: TraceIdGen,
    slow_us: Option<u64>,
    capacity: usize,
    /// Sampled records with their reasons, oldest first; exemplars are
    /// rendered from them only when `{"cmd":"trace"}` asks.
    sampled: Mutex<VecDeque<(&'static str, AuditRecord)>>,
    traced_requests: Arc<Counter>,
    trace_exemplars: Arc<Counter>,
    audit_records: Arc<Counter>,
    audit: Option<Mutex<BufWriter<File>>>,
}

impl Tracer {
    /// The request's trace context: honor a well-formed client-stamped
    /// trace id (32 hex digits), mint a deterministic one otherwise.
    fn context(&self, stamped: Option<&str>) -> TraceContext {
        let trace = stamped
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| self.gen.next_id());
        TraceContext::root(trace)
    }

    /// The audit append + tail-sample decision, once per finished
    /// request.
    fn finish(&self, record: AuditRecord) {
        self.traced_requests.inc();
        if let Some(audit) = &self.audit {
            let line = record.encode();
            let mut w = audit.lock().unwrap_or_else(|e| e.into_inner());
            // Flushed per line: audit lines are evidence, and a crash
            // must not swallow the requests that preceded it.
            if writeln!(w, "{line}").and_then(|()| w.flush()).is_ok() {
                self.audit_records.inc();
            }
        }
        if let Some(reason) = record.sample_reason(self.slow_us) {
            let mut ring = self.sampled.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() >= self.capacity {
                ring.pop_front();
            }
            ring.push_back((reason, record));
            drop(ring);
            self.trace_exemplars.inc();
        }
    }

    /// The newest `limit` exemplars (all of them when `limit` is absent),
    /// oldest first.
    fn recent(&self, limit: Option<u64>) -> Vec<TraceExemplar> {
        let ring = self.sampled.lock().unwrap_or_else(|e| e.into_inner());
        let skip = match limit {
            Some(l) => ring.len().saturating_sub(l.min(usize::MAX as u64) as usize),
            None => 0,
        };
        ring.iter()
            .skip(skip)
            .map(|(reason, record)| TraceExemplar::from_record(record, reason))
            .collect()
    }
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Microseconds since the gateway started — the window ring's clock.
    fn now_us(&self) -> u64 {
        micros(self.started.elapsed())
    }

    fn begin_drain(&self) {
        let mut started = self.drain_started.lock().unwrap_or_else(|e| e.into_inner());
        let first = started.is_none();
        if first {
            *started = Some(Instant::now());
        }
        drop(started);
        self.draining.store(true, Ordering::Release);
        if first {
            // The acceptor sleeps in `accept`: one connection ends the
            // sleep, and its address tells the acceptor it is no client.
            // Should the connect fail (the process is out of sockets),
            // the acceptor notices drain at its next connection instead.
            let wake = TcpStream::connect_timeout(&self.wake_to, WAKE_TIMEOUT)
                .and_then(|stream| stream.local_addr())
                .ok();
            let _ = self.wake_from.set(wake);
        }
    }

    /// Whether the post-drain grace budget is exhausted.
    fn grace_expired(&self) -> bool {
        let started = self.drain_started.lock().unwrap_or_else(|e| e.into_inner());
        matches!(*started, Some(at) if at.elapsed() > DRAIN_GRACE)
    }

    fn conn_opened(&self) {
        let n = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        self.active_conns.set(n as u64);
    }

    fn conn_closed(&self) {
        let n = self.active.fetch_sub(1, Ordering::AcqRel) - 1;
        self.active_conns.set(n as u64);
    }
}

/// A running gateway. Dropping it drains ungracefully (listener closes,
/// workers join); call [`drain`](Gateway::drain) for the orderly path.
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conn_workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Bind `addr` and start serving. `profiles` trains the normal
    /// profile for a deployment key on first sight (per shard).
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: GatewayConfig,
        profiles: ProfileSource,
    ) -> std::io::Result<Gateway> {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.max_conns >= 1, "need at least one connection worker");
        assert!(cfg.backlog >= 1, "need backlog >= 1");

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut wake_to = local_addr;
        if wake_to.ip().is_unspecified() {
            wake_to.set_ip(match wake_to {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        // All gateway.* instruments live beside the shards' serve.*
        // instruments: the process-global registry when telemetry is
        // installed, a private one otherwise.
        let registry = sam_telemetry::global()
            .map(|t| t.registry().clone())
            .unwrap_or_default();
        // Every shard records into the gateway's registry, so the final
        // drain snapshot carries aggregated serve.* counters (cache
        // hits/misses, latency) next to the gateway.* ones even without
        // process-global telemetry. Shards start no threads: requests
        // run on the connection workers.
        let services = (0..cfg.shards)
            .map(|_| DetectionService::new(cfg.service.clone(), profiles.clone(), registry.clone()))
            .collect();
        let tracer = if cfg.trace {
            let audit = match &cfg.audit_log {
                Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
                None => None,
            };
            Some(Tracer {
                gen: TraceIdGen::new(cfg.trace_seed),
                slow_us: cfg.slow_request_us,
                capacity: cfg.trace_capacity.max(1),
                sampled: Mutex::new(VecDeque::new()),
                traced_requests: registry.counter("gateway.traced_requests"),
                trace_exemplars: registry.counter("gateway.trace_exemplars"),
                audit_records: registry.counter("gateway.audit_records"),
                audit,
            })
        } else {
            None
        };
        let shared = Arc::new(Shared {
            ring: HashRing::new(cfg.shards as u32, cfg.replicas),
            services,
            draining: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            wake_to,
            wake_from: OnceLock::new(),
            active: AtomicUsize::new(0),
            accepted: registry.counter("gateway.accepted"),
            conn_shed: registry.counter("gateway.conn_shed"),
            requests: registry.counter("gateway.requests"),
            request_shed: registry.counter("gateway.request_shed"),
            codec_errors: registry.counter("gateway.codec_errors"),
            unknown_key: registry.counter("gateway.unknown_key"),
            unknown_detector: registry.counter("gateway.unknown_detector"),
            active_conns: registry.gauge("gateway.active_conns"),
            latency_us: registry.histogram_pow2("gateway.request_latency_us"),
            serialize_us: registry.histogram_pow2("gateway.serialize_us"),
            slo_violations: registry.counter("gateway.slo_violations"),
            slow_requests: registry.counter("gateway.slow_requests"),
            shard_requests: (0..cfg.shards).map(|_| AtomicU64::new(0)).collect(),
            window_ring: WindowRing::new(DEFAULT_WINDOW_SLOTS),
            started: Instant::now(),
            stop_sampler: AtomicBool::new(false),
            tracer,
            registry: registry.clone(),
            cfg,
        });
        // Seed the ring so stats are answerable from the first request:
        // the baseline-at-start slot makes every early query a
        // since-start delta until real samples accumulate.
        shared.window_ring.push(0, shared.registry.snapshot());
        let sampler = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sam-gw-stats".to_string())
                .spawn(move || sampler_loop(shared))
                .expect("spawn stats sampler")
        };

        let (conn_tx, conn_rx) = bounded::<TcpStream>(shared.cfg.backlog);
        let conn_workers = (0..shared.cfg.max_conns)
            .map(|i| {
                let shared = shared.clone();
                let rx = conn_rx.clone();
                std::thread::Builder::new()
                    .name(format!("sam-gw-conn-{i}"))
                    .spawn(move || conn_worker(shared, rx))
                    .expect("spawn connection worker")
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sam-gw-accept".to_string())
                .spawn(move || accept_loop(shared, listener, conn_tx))
                .expect("spawn acceptor")
        };

        Ok(Gateway {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conn_workers,
            sampler: Some(sampler),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry holding every `gateway.*` and `serve.*` instrument.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The same windowed report `{"cmd":"stats"}` answers, queried
    /// in-process. `window_s` narrows to one window; `None` answers the
    /// default 1s/10s/60s set.
    pub fn stats(&self, window_s: Option<u64>) -> StatsReport {
        build_stats(&self.shared, window_s)
    }

    /// Whether drain has begun (via [`begin_drain`](Gateway::begin_drain)
    /// or the remote `drain` command).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Signal drain without waiting for it: stop accepting, let in-flight
    /// work finish. The first call wakes the acceptor with one loopback
    /// connect. Follow with [`drain`](Gateway::drain) to join.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Drain gracefully: stop accepting, serve everything already
    /// received, join every connection handler and the stats sampler, and
    /// return the final telemetry snapshot.
    pub fn drain(mut self) -> sam_telemetry::RegistrySnapshot {
        self.stop();
        self.shared.registry.snapshot()
    }

    /// Begin drain and join every thread. Idempotent: after `drain`, the
    /// `Drop` that follows finds nothing left to join.
    fn stop(&mut self) {
        self.shared.begin_drain();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.conn_workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stop_sampler.store(true, Ordering::Release);
        if let Some(h) = self.sampler.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The stats sampler: push a cumulative snapshot into the window ring
/// every `stats_interval`, parked until the next one is due. Shutdown
/// sets `stop_sampler` and unparks the thread, so it never waits out an
/// interval.
fn sampler_loop(shared: Arc<Shared>) {
    let mut next = shared.started + shared.cfg.stats_interval;
    while !shared.stop_sampler.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < next {
            std::thread::park_timeout(next - now);
            continue;
        }
        shared
            .window_ring
            .push(shared.now_us(), shared.registry.snapshot());
        next += shared.cfg.stats_interval;
        // A stalled host (suspend, debugger) may owe many intervals;
        // skip them rather than burst-pushing stale duplicates.
        if next < now {
            next = now + shared.cfg.stats_interval;
        }
    }
}

/// Assemble the answer to `{"cmd":"stats"}`: live shard state, the
/// requested rolling windows, and cumulative totals.
fn build_stats(shared: &Shared, window_s: Option<u64>) -> StatsReport {
    let now = shared.registry.snapshot();
    let now_us = shared.now_us();
    // No silent clamping: the wire layer rejects out-of-range windows
    // with a typed error before reaching here, and in-process callers
    // asking for an unanswerable window simply get no window entry.
    let windows_s: Vec<u64> = match window_s {
        Some(w) => vec![w],
        None => DEFAULT_WINDOWS_S.to_vec(),
    };
    let windows = windows_s
        .into_iter()
        .filter_map(|w| {
            shared
                .window_ring
                .delta_over(&now, now_us, w.saturating_mul(1_000_000))
                .map(|d| WindowStats::from_delta(w, &d))
        })
        .collect();
    let shards = shared
        .services
        .iter()
        .enumerate()
        .map(|(i, svc)| ShardStats {
            shard: i as u64,
            queue_depth: svc.queue_depth() as u64,
            requests: shared.shard_requests[i].load(Ordering::Relaxed),
        })
        .collect();
    StatsReport {
        kind: "stats".to_string(),
        uptime_s: shared.started.elapsed().as_secs_f64(),
        draining: shared.draining(),
        slo_p99_us: shared.cfg.slo_p99_us,
        shards,
        windows,
        totals: StatsTotals::from_snapshot(&now),
    }
}

/// The longest answerable stats window, seconds: the ring holds
/// [`DEFAULT_WINDOW_SLOTS`] snapshots spaced `stats_interval` apart.
fn ring_span_s(cfg: &GatewayConfig) -> u64 {
    let interval_us = micros(cfg.stats_interval);
    ((DEFAULT_WINDOW_SLOTS as u64).saturating_mul(interval_us) / 1_000_000).max(1)
}

/// The accept loop: block in `accept`, shed on full backlog; on drain,
/// take what the OS already handshook and close the listener.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, tx: Sender<TcpStream>) {
    let dispatch = |stream: TcpStream| {
        shared.accepted.inc();
        match tx.try_send(stream) {
            Ok(()) => true,
            Err(TrySendError::Full(stream)) => {
                shared.conn_shed.inc();
                reject_connection(stream, shared.cfg.backlog);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    };
    let last = loop {
        let accepted = listener.accept();
        if shared.draining() {
            break accepted;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if !dispatch(stream) {
                    return;
                }
            }
            // Out of descriptors and the like: back off, don't spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    // Drain. `begin_drain`'s wake connection is known by its address and
    // neither counted nor served; every other connection is a client.
    let wake = *shared.wake_from.wait();
    let take = |(stream, peer): (TcpStream, SocketAddr)| Some(peer) == wake || dispatch(stream);
    if let Ok(conn) = last {
        if !take(conn) {
            return;
        }
    }
    // Final sweep before closing: the OS has already completed TCP
    // handshakes for connections sitting in the listen backlog — those
    // clients believe they are connected, so closing now would RST them
    // mid-request. Accept everything already pending, then stop.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok(conn) = listener.accept() {
            if !take(conn) {
                break;
            }
        }
    }
    // Dropping the listener closes the socket: further connects are
    // refused at the TCP level. Dropping `tx` lets idle workers exit.
}

/// Tell an over-backlog client it was shed, then close.
fn reject_connection(mut stream: TcpStream, backlog: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = write_encoded_line(&mut stream, WireResponse::shed(0, backlog).encode());
}

/// One connection worker: handle accepted sockets until the acceptor
/// hangs up.
fn conn_worker(shared: Arc<Shared>, rx: Receiver<TcpStream>) {
    while let Ok(stream) = rx.recv() {
        shared.conn_opened();
        let _ = handle_connection(&shared, stream);
        shared.conn_closed();
    }
}

/// Serve one connection to completion. Returns `Err` only on socket-level
/// failures; protocol-level problems get `"error"` response lines.
fn handle_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone()?), wire::MAX_LINE_BYTES);
    let mut writer = BufWriter::new(stream);
    let mut last_frame = Instant::now();

    loop {
        if shared.draining() && shared.grace_expired() {
            break; // grace budget spent; close even mid-stream
        }
        match reader.next_frame() {
            Ok(Some(line)) => {
                last_frame = Instant::now();
                if !serve_line(shared, &line, &mut writer)? {
                    break;
                }
            }
            Ok(None) => break, // client closed cleanly
            Err(e) if e.is_timeout() => {
                // Idle tick: no new bytes. A draining gateway closes idle
                // connections here — everything already received has been
                // served (frames are processed before reads can block).
                if shared.draining() || last_frame.elapsed() > IDLE_TIMEOUT {
                    break;
                }
            }
            Err(FrameError::TooLong { limit }) => {
                shared.codec_errors.inc();
                write_line(
                    &mut writer,
                    &WireResponse::error(0, format!("frame exceeds {limit} bytes")),
                )?;
                break; // cannot resynchronize after an oversized frame
            }
            Err(FrameError::Truncated { .. }) => {
                shared.codec_errors.inc();
                break; // peer died mid-line; nobody to answer
            }
            Err(FrameError::Io(_)) => break,
        }
    }
    writer.flush().ok();
    Ok(())
}

/// Decode and serve one frame. Returns `Ok(false)` when the connection
/// should close (drain acknowledged).
fn serve_line(
    shared: &Shared,
    line: &[u8],
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<bool> {
    let decoded = match wire::decode_line(line) {
        Ok(d) => d,
        Err(e) => {
            shared.codec_errors.inc();
            write_line(writer, &WireResponse::error(0, e.to_string()))?;
            return Ok(true); // bad line, live connection
        }
    };
    match decoded {
        WireLine::Command(cmd) => match cmd.cmd.as_str() {
            "ping" => {
                write_line(writer, &WireResponse::ok_empty())?;
                Ok(true)
            }
            "drain" => {
                shared.begin_drain();
                write_line(writer, &WireResponse::draining(0))?;
                Ok(false)
            }
            "stats" => {
                let text = match cmd.format.as_deref() {
                    None | Some("json") => None,
                    Some("prometheus") => Some(()),
                    Some(other) => {
                        write_line(
                            writer,
                            &WireResponse::error(0, format!("unknown stats format {other:?}")),
                        )?;
                        return Ok(true);
                    }
                };
                // An explicit window is validated, not clamped: a silent
                // `window=0 → 1s` or `window=3600 → whatever the ring
                // holds` answer looks authoritative while measuring
                // something else entirely.
                if let Some(w) = cmd.window_s {
                    let span_s = ring_span_s(&shared.cfg);
                    let err = if w == 0 {
                        Some("\"window\" must be at least 1 second".to_string())
                    } else if w > span_s {
                        Some(format!(
                            "\"window\" of {w}s exceeds the {span_s}s ring span"
                        ))
                    } else {
                        None
                    };
                    if let Some(err) = err {
                        write_line(writer, &WireResponse::error(0, err))?;
                        return Ok(true);
                    }
                }
                let report = build_stats(shared, cmd.window_s);
                let text = text.map(|()| report.to_prometheus());
                write_line(writer, &WireResponse::stats(report, text))?;
                Ok(true)
            }
            "trace" => {
                match &shared.tracer {
                    Some(t) => {
                        write_line(writer, &WireResponse::trace_exemplars(t.recent(cmd.limit)))?;
                    }
                    None => {
                        write_line(
                            writer,
                            &WireResponse::error(0, "tracing disabled (run with --trace)"),
                        )?;
                    }
                }
                Ok(true)
            }
            other => {
                write_line(
                    writer,
                    &WireResponse::error(0, format!("unknown command {other:?}")),
                )?;
                Ok(true)
            }
        },
        WireLine::Request(wire_req) => {
            serve_request(shared, *wire_req, writer)?;
            Ok(true)
        }
    }
}

/// Serve one request line on this connection worker. Admission
/// (known-key check, decode, shard routing, the shard's admission count)
/// ends in either the served response or the line refusing the request;
/// one tail then stamps the trace id, finishes the trace and writes the
/// line.
fn serve_request(
    shared: &Shared,
    wire_req: WireRequest,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    let id = wire_req.id;
    let want_timings = wire_req.timings;
    let accepted_at = Instant::now();
    // The trace context exists before any outcome is known — rejected
    // and shed requests get audit lines too. A well-formed client-stamped
    // id is honored so `loadgen --remote` can correlate its own records
    // with the gateway's.
    let trace_ctx = shared
        .tracer
        .as_ref()
        .map(|t| t.context(wire_req.trace.as_deref()));
    // Same string `ProfileKey` displays as — valid before `into_request`
    // consumes the frame.
    let key = format!("{}/{}", wire_req.topology, wire_req.protocol);
    let mut shard: Option<u64> = None;
    let mut gw_span = SpanGuard::disabled();
    let admitted: Result<DetectionResponse, WireResponse> = 'admit: {
        if let Some(known) = &shared.cfg.known_keys {
            if !known.contains(&key) {
                shared.unknown_key.inc();
                break 'admit Err(WireResponse::error(
                    id,
                    format!("unknown deployment key {key}"),
                ));
            }
        }
        let request = match wire_req.into_request() {
            Ok(r) => r,
            Err(e) => {
                shared.codec_errors.inc();
                break 'admit Err(WireResponse::error(id, e.to_string()));
            }
        };
        let s = shared.ring.route(&key) as usize;
        shard = Some(s as u64);
        // The request's span on this thread; the shard's `serve.process`
        // span opens inside it, parented through the explicit context.
        if let (Some(ctx), Some(tel)) = (&trace_ctx, sam_telemetry::global()) {
            gw_span = tel.span_in("gateway.request", ctx);
        }
        if gw_span.is_recording() {
            gw_span.field("id", id);
            gw_span.field("key", key.as_str());
            gw_span.field("shard", s);
        }
        let ctx = gw_span.context().or(trace_ctx);
        match shared.services[s].serve(request, ctx) {
            Ok(Some(response)) => {
                shared.requests.inc();
                shared.shard_requests[s].fetch_add(1, Ordering::Relaxed);
                Ok(response)
            }
            // The profile source or detector panicked on this request
            // (`serve.failed`); the shard lives on.
            Ok(None) => Err(WireResponse::error(id, "internal error")),
            Err(SubmitError::Rejected { queue_depth }) => {
                shared.request_shed.inc();
                Err(WireResponse::shed(id, queue_depth))
            }
            Err(SubmitError::UnknownDetector { name }) => {
                // A typo in the detector name is the client's mistake,
                // not the connection's: answer with the typed status and
                // keep serving the line stream.
                shared.unknown_detector.inc();
                Err(WireResponse::unknown_detector(id, &name))
            }
        }
    };

    // The one exit. `total_us` is read once, just before encoding: the
    // latency histogram, the SLO and slow-request checks and the tail
    // sampler all see this value, and serialization is `serialize_us`.
    let total_us = micros(accepted_at.elapsed());
    let served = admitted.is_ok();
    let (resp, mut timing) = match admitted {
        Ok(response) => {
            let timing = response.timing;
            (WireResponse::ok(response), timing)
        }
        Err(refusal) => (refusal, StageTiming::default()),
    };
    let mut resp = match &trace_ctx {
        Some(ctx) => resp.with_trace(ctx.trace.to_string()),
        None => resp,
    };
    // Encoding doubles as the serialize-stage measurement; when the
    // client asked for timings the line is re-encoded with the breakdown
    // attached (the only request path that pays the double encode).
    let encode_started = Instant::now();
    let mut encoded = resp.encode();
    if served {
        timing.serialize_us = micros(encode_started.elapsed());
        shared.latency_us.record(total_us);
        shared.serialize_us.record(timing.serialize_us);
        if matches!(shared.cfg.slo_p99_us, Some(slo) if total_us > slo) {
            shared.slo_violations.inc();
        }
        if matches!(shared.cfg.slow_request_us, Some(t) if total_us > t) {
            shared.slow_requests.inc();
            if let (Some(tel), Some(s)) = (sam_telemetry::global(), shard) {
                tel.event(
                    "gateway.slow_request",
                    &[
                        ("key", key.as_str()),
                        ("shard", &s.to_string()),
                        ("total_us", &total_us.to_string()),
                        ("queue_wait_us", &timing.queue_wait_us.to_string()),
                        ("compute_us", &timing.compute_us.to_string()),
                        ("serialize_us", &timing.serialize_us.to_string()),
                    ],
                );
            }
        }
        if want_timings {
            resp.timings = Some(timing);
            encoded = resp.encode();
        }
    }
    // The request's one record: the audit line, the sampled exemplar and
    // the synthesized stage spans are all views of it.
    let record =
        trace_ctx.map(|ctx| AuditRecord::new(ctx.trace, &key, shard, &resp, timing, total_us));
    if let Some(record) = record.as_ref().filter(|_| served) {
        emit_stage_children(&gw_span, record, accepted_at);
    }
    drop(gw_span);
    // Finish before writing: a client holding its response must already
    // find the request's exemplar and audit line.
    if let (Some(t), Some(record)) = (&shared.tracer, record) {
        t.finish(record);
    }
    write_encoded_line(writer, encoded)
}

/// Synthesize the queue-wait and serialize stages as child spans of the
/// live `gateway.request` span, cut from the record's stage ladder.
/// Neither is a span of its own (nothing queues on this path, so the
/// wait is zero-length; the encode is measured around a call), but the
/// timing breakdown pins them exactly, and emitting them makes the
/// telemetry JSONL carry the same ladder the exemplar does. Compute needs
/// no synthesis: the shard's `serve.process` span records it for real.
fn emit_stage_children(span: &SpanGuard, record: &AuditRecord, accepted_at: Instant) {
    let (Some(tel), Some(ctx)) = (sam_telemetry::global(), span.context()) else {
        return;
    };
    let base = tel.offset_us(accepted_at);
    let [_, queue_wait, _, serialize] = record.ladder();
    for stage in [queue_wait, serialize] {
        tel.record_raw(EventRecord {
            kind: "span".to_string(),
            id: 0, // record_raw assigns a fresh collector-unique id
            parent: ctx.span,
            name: format!("gateway.{}", stage.name),
            start_us: base.saturating_add(stage.start_us),
            dur_us: stage.dur_us,
            trace: Some(record.trace.clone()),
            fields: Vec::new(),
        });
    }
}

/// Write one response line and flush (responses are latency-sensitive;
/// the BufWriter only batches within one call).
fn write_line(writer: &mut BufWriter<TcpStream>, response: &WireResponse) -> std::io::Result<()> {
    write_encoded_line(writer, response.encode())
}

/// Write an already-encoded response line and its newline in one
/// `write_all`, then flush (the served-request path encodes early to time
/// the serialize stage). A `BufWriter` hands a line at least as long as
/// its buffer straight to the socket, so a newline written apart would
/// follow in a second segment and wake the client twice.
fn write_encoded_line<W: Write>(writer: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call that reaches it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_and_its_newline_reach_the_socket_in_one_write() {
        // Shorter than, just under, equal to and past the 8 KiB buffer.
        for len in [100, 8 * 1024 - 1, 8 * 1024, 10_202, 64 * 1024] {
            let line = "x".repeat(len);
            let mut writer = BufWriter::new(CountingWriter::default());
            write_encoded_line(&mut writer, line.clone()).unwrap();
            let sink = writer.get_ref();
            assert_eq!(sink.writes, 1, "a {len}-byte line");
            assert_eq!(sink.bytes, format!("{line}\n").into_bytes());
        }
    }
}
