//! The live operational stats model answered by the gateway's
//! `{"cmd":"stats"}` wire command.
//!
//! One [`StatsReport`] is assembled per query from three ingredients the
//! gateway already has: a fresh cumulative [`RegistrySnapshot`], the
//! [`WindowRing`](sam_telemetry::WindowRing) its sampler thread feeds,
//! and the live per-shard queue depths. The report is pure data —
//! serializable JSON for `sam-top --json`, scripts, and the loadgen
//! summary, plus a Prometheus-style text exposition
//! ([`StatsReport::to_prometheus`]) for anything that scrapes.
//!
//! The model lives in `sam-serve` (not the gateway) for the same reason
//! the wire codec does: the consumers — `loadgen --remote`, `sam-top` —
//! must share the exact struct without depending on the serving tier.

use crate::wire::{self, WireCommand};
use sam_telemetry::{RegistrySnapshot, WindowDelta};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Duration;

/// The windows a stats query answers by default, seconds.
pub const DEFAULT_WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Everything a running gateway will say about itself on a live
/// connection: identity-free operational state, windowed rates, and
/// cumulative totals.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsReport {
    /// Line discriminator, `"stats"`.
    pub kind: String,
    /// Seconds since the gateway started serving.
    pub uptime_s: f64,
    /// Whether drain has begun (the gateway still answers stats while
    /// finishing in-flight work).
    pub draining: bool,
    /// The configured `--slo-p99-us` threshold, if any — the burn
    /// fractions below are measured against it.
    pub slo_p99_us: Option<u64>,
    /// Live per-shard state, shard 0 first.
    pub shards: Vec<ShardStats>,
    /// Rolling windows, shortest first (1s/10s/60s by default).
    pub windows: Vec<WindowStats>,
    /// Cumulative since-start totals.
    pub totals: StatsTotals,
}

/// One shard's live state at query time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index on the hash ring.
    pub shard: u64,
    /// This shard's requests in compute right now (a request runs on
    /// the connection worker that read it; `--queue N` bounds this).
    pub queue_depth: u64,
    /// Requests routed to this shard since start.
    pub requests: u64,
}

/// Rates and percentiles over one rolling window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowStats {
    /// The window that was asked for, seconds.
    pub window_s: u64,
    /// The span actually covered (ring granularity / young ring),
    /// seconds.
    pub span_s: f64,
    /// Requests served in the window.
    pub completed: u64,
    /// Served requests per second.
    pub throughput_rps: f64,
    /// Requests shed in the window (request-level).
    pub shed: u64,
    /// `shed / (shed + completed)` over the window.
    pub shed_rate: f64,
    /// Profile-cache `hits / (hits + misses)` over the window.
    pub cache_hit_ratio: f64,
    /// Median gateway latency upper bound over the window, microseconds.
    pub p50_us: u64,
    /// 90th-percentile gateway latency over the window, microseconds.
    pub p90_us: u64,
    /// 99th-percentile gateway latency over the window, microseconds.
    pub p99_us: u64,
    /// 99th-percentile shard-queue wait over the window, microseconds.
    pub queue_wait_p99_us: u64,
    /// 99th-percentile verdict compute over the window, microseconds.
    pub compute_p99_us: u64,
    /// 99th-percentile response serialization over the window,
    /// microseconds.
    pub serialize_p99_us: u64,
    /// Fraction of the window's requests that exceeded the configured
    /// `--slo-p99-us` (0 when no SLO is set) — the burn counter SLO
    /// alerting integrates.
    pub slo_burn: f64,
}

/// Cumulative since-start totals. Every request line the gateway has
/// answered is in exactly one of `requests`, `request_shed`, `refused`
/// and `failed`. `refused` also counts lines that were never answered or
/// were not requests (see its doc).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsTotals {
    /// Requests served.
    pub requests: u64,
    /// Requests shed (request-level overload).
    pub request_shed: u64,
    /// Request lines refused before any detection ran: lines that would
    /// not decode (`gateway.codec_errors`, which also counts undecodable
    /// command lines, oversized frames and a truncated last frame nobody
    /// is left to answer), unknown deployment keys
    /// (`gateway.unknown_key`) and unknown detectors
    /// (`gateway.unknown_detector`). A client's `refused`
    /// (`LoadgenSummary::refused`) counts these answers together with
    /// `failed` ones. 0 in reports from gateways that predate the field.
    #[serde(default)]
    pub refused: u64,
    /// Requests whose profile source or detector panicked, each answered
    /// with one `"error"` line (`serve.failed`). 0 in reports from
    /// gateways that predate the field.
    #[serde(default)]
    pub failed: u64,
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections shed at accept (backlog full).
    pub conn_shed: u64,
    /// Connections currently open.
    pub active_conns: u64,
    /// Profile-cache hits across all shards.
    pub cache_hits: u64,
    /// Profile-cache misses (= profile trainings) across all shards.
    pub cache_misses: u64,
    /// Requests that crossed the slow-request log threshold.
    pub slow_requests: u64,
    /// Requests that exceeded the SLO threshold.
    pub slo_violations: u64,
    /// Cumulative 99th-percentile gateway latency, microseconds.
    pub p99_us: u64,
    /// Requests served under a trace context (0 without `--trace`, and
    /// in reports from gateways that predate tracing).
    #[serde(default)]
    pub traced_requests: u64,
    /// Traces kept by the tail sampler.
    #[serde(default)]
    pub trace_exemplars: u64,
    /// Verdict-audit JSONL lines appended (0 without `--audit-log`).
    #[serde(default)]
    pub audit_records: u64,
}

/// Ask a running gateway for its stats over one TCP round trip: connect,
/// send `{"cmd":"stats"}` (with the optional window/format arguments),
/// read the one response line. Returns the report plus the Prometheus
/// text when `prometheus` was requested. The client side shared by
/// `loadgen --remote` and `sam-top`.
pub fn fetch_stats(
    addr: &str,
    window_s: Option<u64>,
    prometheus: bool,
    timeout: Duration,
) -> Result<(StatsReport, Option<String>), String> {
    let cmd = WireCommand {
        window_s,
        format: prometheus.then(|| "prometheus".to_string()),
        ..WireCommand::bare("stats")
    };
    let resp = wire::round_trip(addr, &cmd, timeout)?;
    if resp.status != wire::STATUS_OK {
        return Err(format!(
            "stats refused: status {} ({})",
            resp.status,
            resp.error.unwrap_or_default()
        ));
    }
    let report = resp.stats.ok_or("ok response carried no stats")?;
    Ok((report, resp.stats_text))
}

impl WindowStats {
    /// Distill one [`WindowDelta`] (cut from the gateway's registry) into
    /// the windowed view.
    pub fn from_delta(window_s: u64, delta: &WindowDelta) -> Self {
        let completed = delta.delta.counter("gateway.requests");
        let shed = delta.delta.counter("gateway.request_shed");
        let p = |name: &str, q: f64| {
            delta
                .delta
                .histogram(name)
                .map(|h| h.percentile(q))
                .unwrap_or(0)
        };
        let slo_burn = if completed == 0 {
            0.0
        } else {
            delta.delta.counter("gateway.slo_violations") as f64 / completed as f64
        };
        WindowStats {
            window_s,
            span_s: delta.span_s,
            completed,
            throughput_rps: delta.rate("gateway.requests"),
            shed,
            shed_rate: delta.ratio("gateway.request_shed", "gateway.requests"),
            cache_hit_ratio: delta.ratio("serve.cache_hits", "serve.cache_misses"),
            p50_us: p("gateway.request_latency_us", 0.50),
            p90_us: p("gateway.request_latency_us", 0.90),
            p99_us: p("gateway.request_latency_us", 0.99),
            queue_wait_p99_us: p("serve.queue_wait_us", 0.99),
            compute_p99_us: p("serve.compute_us", 0.99),
            serialize_p99_us: p("gateway.serialize_us", 0.99),
            slo_burn,
        }
    }
}

impl StatsTotals {
    /// Read the cumulative totals off a registry snapshot.
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> Self {
        StatsTotals {
            requests: snapshot.counter("gateway.requests"),
            request_shed: snapshot.counter("gateway.request_shed"),
            refused: snapshot.counter("gateway.codec_errors")
                + snapshot.counter("gateway.unknown_key")
                + snapshot.counter("gateway.unknown_detector"),
            failed: snapshot.counter("serve.failed"),
            conns_accepted: snapshot.counter("gateway.accepted"),
            conn_shed: snapshot.counter("gateway.conn_shed"),
            active_conns: snapshot.gauge("gateway.active_conns"),
            cache_hits: snapshot.counter("serve.cache_hits"),
            cache_misses: snapshot.counter("serve.cache_misses"),
            slow_requests: snapshot.counter("gateway.slow_requests"),
            slo_violations: snapshot.counter("gateway.slo_violations"),
            p99_us: snapshot
                .histogram("gateway.request_latency_us")
                .map(|h| h.p99)
                .unwrap_or(0),
            traced_requests: snapshot.counter("gateway.traced_requests"),
            trace_exemplars: snapshot.counter("gateway.trace_exemplars"),
            audit_records: snapshot.counter("gateway.audit_records"),
        }
    }
}

impl StatsReport {
    /// The window covering `window_s` seconds, if it was answered.
    pub fn window(&self, window_s: u64) -> Option<&WindowStats> {
        self.windows.iter().find(|w| w.window_s == window_s)
    }

    /// Largest per-shard queue-depth spread relative to the mean depth —
    /// the sharding-imbalance number `sam-top` shows. 0 with one shard or
    /// idle queues.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards.len() < 2 {
            return 0.0;
        }
        let depths: Vec<f64> = self.shards.iter().map(|s| s.queue_depth as f64).collect();
        let mean = depths.iter().sum::<f64>() / depths.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let max = depths.iter().cloned().fold(0.0f64, f64::max);
        let min = depths.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / mean
    }

    /// Serialize as one JSON line (the `stats` field of the wire
    /// response, and the `sam-top --json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("stats report serializes")
    }

    /// Prometheus-style text exposition: `# TYPE`-annotated metric lines,
    /// cumulative totals as counters/gauges and windowed rates labelled
    /// `{window="Ns"}`. Answered verbatim in the `stats_text` field when
    /// a client asks for `"format":"prometheus"`.
    pub fn to_prometheus(&self) -> String {
        fn metric(out: &mut String, name: &str, kind: &str, help: &str) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
        let mut out = String::new();
        metric(
            &mut out,
            "sam_gateway_uptime_seconds",
            "gauge",
            "Seconds since the gateway started serving",
        );
        let _ = writeln!(out, "sam_gateway_uptime_seconds {}", self.uptime_s);
        metric(
            &mut out,
            "sam_gateway_draining",
            "gauge",
            "1 when drain has begun, else 0",
        );
        let _ = writeln!(
            out,
            "sam_gateway_draining {}",
            if self.draining { 1 } else { 0 }
        );
        metric(
            &mut out,
            "sam_gateway_requests_total",
            "counter",
            "Requests served since start",
        );
        let _ = writeln!(out, "sam_gateway_requests_total {}", self.totals.requests);
        metric(
            &mut out,
            "sam_gateway_request_shed_total",
            "counter",
            "Requests shed by overload since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_request_shed_total {}",
            self.totals.request_shed
        );
        metric(
            &mut out,
            "sam_gateway_conns_accepted_total",
            "counter",
            "Connections accepted since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_conns_accepted_total {}",
            self.totals.conns_accepted
        );
        metric(
            &mut out,
            "sam_gateway_active_connections",
            "gauge",
            "Connections currently open",
        );
        let _ = writeln!(
            out,
            "sam_gateway_active_connections {}",
            self.totals.active_conns
        );
        metric(
            &mut out,
            "sam_gateway_slo_violations_total",
            "counter",
            "Requests over the configured p99 SLO since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_slo_violations_total {}",
            self.totals.slo_violations
        );
        metric(
            &mut out,
            "sam_gateway_traced_requests_total",
            "counter",
            "Requests served under a trace context since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_traced_requests_total {}",
            self.totals.traced_requests
        );
        metric(
            &mut out,
            "sam_gateway_trace_exemplars_total",
            "counter",
            "Traces kept by the tail sampler since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_trace_exemplars_total {}",
            self.totals.trace_exemplars
        );
        metric(
            &mut out,
            "sam_gateway_audit_records_total",
            "counter",
            "Verdict-audit JSONL lines appended since start",
        );
        let _ = writeln!(
            out,
            "sam_gateway_audit_records_total {}",
            self.totals.audit_records
        );
        metric(
            &mut out,
            "sam_gateway_shard_queue_depth",
            "gauge",
            "Requests in compute on each shard",
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "sam_gateway_shard_queue_depth{{shard=\"{}\"}} {}",
                s.shard, s.queue_depth
            );
        }
        metric(
            &mut out,
            "sam_gateway_shard_requests_total",
            "counter",
            "Requests routed to each shard since start",
        );
        for s in &self.shards {
            let _ = writeln!(
                out,
                "sam_gateway_shard_requests_total{{shard=\"{}\"}} {}",
                s.shard, s.requests
            );
        }
        metric(
            &mut out,
            "sam_gateway_window_throughput_rps",
            "gauge",
            "Served requests per second over each rolling window",
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "sam_gateway_window_throughput_rps{{window=\"{}s\"}} {}",
                w.window_s, w.throughput_rps
            );
        }
        metric(
            &mut out,
            "sam_gateway_window_shed_rate",
            "gauge",
            "Fraction of requests shed over each rolling window",
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "sam_gateway_window_shed_rate{{window=\"{}s\"}} {}",
                w.window_s, w.shed_rate
            );
        }
        metric(
            &mut out,
            "sam_gateway_window_cache_hit_ratio",
            "gauge",
            "Profile-cache hit ratio over each rolling window",
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "sam_gateway_window_cache_hit_ratio{{window=\"{}s\"}} {}",
                w.window_s, w.cache_hit_ratio
            );
        }
        metric(
            &mut out,
            "sam_gateway_window_latency_us",
            "gauge",
            "Gateway latency percentile upper bounds over each rolling window",
        );
        for w in &self.windows {
            for (q, v) in [("0.5", w.p50_us), ("0.9", w.p90_us), ("0.99", w.p99_us)] {
                let _ = writeln!(
                    out,
                    "sam_gateway_window_latency_us{{window=\"{}s\",quantile=\"{q}\"}} {v}",
                    w.window_s
                );
            }
        }
        metric(
            &mut out,
            "sam_gateway_window_stage_p99_us",
            "gauge",
            "Per-stage p99 latency over each rolling window",
        );
        for w in &self.windows {
            for (stage, v) in [
                ("queue_wait", w.queue_wait_p99_us),
                ("compute", w.compute_p99_us),
                ("serialize", w.serialize_p99_us),
            ] {
                let _ = writeln!(
                    out,
                    "sam_gateway_window_stage_p99_us{{window=\"{}s\",stage=\"{stage}\"}} {v}",
                    w.window_s
                );
            }
        }
        metric(
            &mut out,
            "sam_gateway_window_slo_burn",
            "gauge",
            "Fraction of requests over the p99 SLO in each rolling window",
        );
        for w in &self.windows {
            let _ = writeln!(
                out,
                "sam_gateway_window_slo_burn{{window=\"{}s\"}} {}",
                w.window_s, w.slo_burn
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_telemetry::{Registry, WindowRing};

    fn gateway_like_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("gateway.requests").add(100);
        reg.counter("gateway.request_shed").add(10);
        reg.counter("gateway.accepted").add(5);
        reg.counter("serve.cache_hits").add(90);
        reg.counter("serve.cache_misses").add(10);
        reg.counter("gateway.slo_violations").add(2);
        reg.gauge("gateway.active_conns").set(3);
        let lat = reg.histogram_pow2("gateway.request_latency_us");
        for _ in 0..90 {
            lat.record(100);
        }
        for _ in 0..10 {
            lat.record(10_000);
        }
        reg.histogram_pow2("serve.queue_wait_us").record(30);
        reg.histogram_pow2("serve.compute_us").record(60);
        reg.histogram_pow2("gateway.serialize_us").record(5);
        reg
    }

    fn report() -> StatsReport {
        let reg = gateway_like_registry();
        let ring = WindowRing::new(8);
        ring.push(0, Registry::new().snapshot());
        let now = reg.snapshot();
        let delta = ring.delta_over(&now, 10_000_000, 10_000_000).unwrap();
        StatsReport {
            kind: "stats".to_string(),
            uptime_s: 10.0,
            draining: false,
            slo_p99_us: Some(5_000),
            shards: vec![
                ShardStats {
                    shard: 0,
                    queue_depth: 4,
                    requests: 60,
                },
                ShardStats {
                    shard: 1,
                    queue_depth: 0,
                    requests: 40,
                },
            ],
            windows: vec![WindowStats::from_delta(10, &delta)],
            totals: StatsTotals::from_snapshot(&now),
        }
    }

    #[test]
    fn window_stats_derive_rates_from_the_delta() {
        let r = report();
        let w = r.window(10).expect("10s window answered");
        assert_eq!(w.completed, 100);
        assert!((w.throughput_rps - 10.0).abs() < 1e-9);
        assert!((w.shed_rate - 10.0 / 110.0).abs() < 1e-9);
        assert!((w.cache_hit_ratio - 0.9).abs() < 1e-9);
        assert!(w.p99_us >= 10_000, "tail visible: {}", w.p99_us);
        assert!(w.p50_us <= 128, "median fast: {}", w.p50_us);
        assert!((w.slo_burn - 0.02).abs() < 1e-9);
        assert!(w.queue_wait_p99_us > 0 && w.compute_p99_us > 0);
    }

    #[test]
    fn totals_and_imbalance_read_the_snapshot() {
        let r = report();
        assert_eq!(r.totals.requests, 100);
        assert_eq!(r.totals.cache_misses, 10);
        assert_eq!(r.totals.active_conns, 3);
        assert_eq!(r.totals.slo_violations, 2);
        // depths 4 and 0 around mean 2 → spread 2.
        assert!((r.shard_imbalance() - 2.0).abs() < 1e-9);
        assert!(r.window(99).is_none());
    }

    #[test]
    fn report_round_trips_as_json() {
        let r = report();
        let back: StatsReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.kind, "stats");
        assert_eq!(back.totals.requests, r.totals.requests);
        assert_eq!(back.windows.len(), 1);
        assert_eq!(back.shards.len(), 2);
    }

    #[test]
    fn prometheus_exposition_is_typed_and_labelled() {
        let text = report().to_prometheus();
        assert!(text.contains("# TYPE sam_gateway_requests_total counter"));
        assert!(text.contains("sam_gateway_requests_total 100"));
        assert!(text.contains("sam_gateway_shard_queue_depth{shard=\"0\"} 4"));
        assert!(text.contains("sam_gateway_window_throughput_rps{window=\"10s\"}"));
        assert!(text.contains("window=\"10s\",quantile=\"0.99\""));
        assert!(text.contains("stage=\"queue_wait\""));
        assert!(text.contains("sam_gateway_window_slo_burn{window=\"10s\"} 0.02"));
        // Every non-comment line is `name{labels} value` with a numeric
        // value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().unwrap_or_else(|_| {
                panic!("non-numeric exposition value in {line:?}");
            });
        }
    }
}
