//! Live `{"cmd":"stats"}` integration: a gateway under traffic answers
//! windowed throughput, latency percentiles, shed rate, and per-shard
//! queue depths on a live connection — without draining — and the
//! `timings` request flag returns the per-stage breakdown.

mod common;

use common::{wire_request, Client};
use sam_gateway::prelude::*;
use sam_serve::wire::{WireCommand, STATUS_OK};
use std::time::Duration;

/// Like [`test_gateway`] but with a fast stats sampler and SLO/slow
/// thresholds tuned so the accounting fires under synthetic load.
fn stats_gateway(shards: usize) -> Gateway {
    let cfg = GatewayConfig {
        shards,
        max_conns: 8,
        backlog: 16,
        stats_interval: Duration::from_millis(50),
        slo_p99_us: Some(0),
        slow_request_us: Some(0),
        ..GatewayConfig::default()
    };
    Gateway::bind("127.0.0.1:0", cfg, common::synthetic_profiles()).expect("bind ephemeral port")
}

#[test]
fn live_connection_answers_windowed_stats_without_draining() {
    let gateway = stats_gateway(2);
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    for id in 0..30 {
        client.send(&wire_request(id)).unwrap();
        let resp = client.recv().expect("response");
        assert_eq!(resp.status, STATUS_OK);
    }
    // Let the 50ms sampler cut at least one post-traffic slot.
    std::thread::sleep(Duration::from_millis(120));

    client.send_raw("{\"cmd\":\"stats\"}").unwrap();
    let resp = client.recv().expect("stats answered");
    assert_eq!(resp.status, STATUS_OK);
    assert!(resp.stats_text.is_none(), "no text unless asked");
    let report = resp.stats.expect("stats payload");
    assert_eq!(report.kind, "stats");
    assert!(!report.draining);
    assert!(report.uptime_s > 0.0);

    // Cumulative totals saw all the traffic.
    assert_eq!(report.totals.requests, 30);
    assert_eq!(report.totals.request_shed, 0);
    assert_eq!(report.totals.conns_accepted, 1);
    assert!(report.totals.p99_us > 0);

    // Every default window is answered; the longest one (young ring →
    // oldest-slot fallback) covers all 30 requests at a positive rate.
    assert_eq!(report.windows.len(), 3);
    let w = report.window(60).expect("60s window");
    assert_eq!(w.completed, 30);
    assert!(w.throughput_rps > 0.0, "rps {}", w.throughput_rps);
    assert!(w.p99_us > 0);
    assert_eq!(w.shed, 0);
    assert!(w.shed_rate == 0.0);
    assert!(w.cache_hit_ratio > 0.0, "profile cache warmed");
    assert!(w.queue_wait_p99_us > 0 || w.compute_p99_us > 0);

    // Per-shard live state: both shards exist, routed counts add up.
    assert_eq!(report.shards.len(), 2);
    let routed: u64 = report.shards.iter().map(|s| s.requests).sum();
    assert_eq!(routed, 30);

    // SLO burn fired (threshold 0us: every served request violates).
    assert!(report.totals.slo_violations > 0);
    assert!(report.totals.slow_requests > 0);
    assert!(w.slo_burn > 0.0);
    assert_eq!(report.slo_p99_us, Some(0));

    // The connection is still live: requests keep serving after stats.
    client.send(&wire_request(100)).unwrap();
    assert_eq!(client.recv().expect("still serving").status, STATUS_OK);

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.requests"), 31);
    assert_eq!(snapshot.counter("gateway.slo_violations"), 31);
}

#[test]
fn stats_arguments_narrow_window_and_add_prometheus_text() {
    let gateway = stats_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    for id in 0..5 {
        client.send(&wire_request(id)).unwrap();
        client.recv().expect("response");
    }

    // 50ms sampler × 64 slots → a 3s ring span; 2s is answerable.
    let cmd = WireCommand {
        cmd: "stats".to_string(),
        window_s: Some(2),
        format: Some("prometheus".to_string()),
        limit: None,
    };
    client.send_raw(&cmd.encode()).unwrap();
    let resp = client.recv().expect("stats answered");
    assert_eq!(resp.status, STATUS_OK);
    let report = resp.stats.expect("stats payload");
    assert_eq!(report.windows.len(), 1, "narrowed to the asked window");
    assert_eq!(report.windows[0].window_s, 2);

    let text = resp.stats_text.expect("prometheus text");
    assert!(text.contains("# TYPE sam_gateway_requests_total counter"));
    assert!(text.contains("sam_gateway_requests_total 5"));
    assert!(text.contains("sam_gateway_shard_queue_depth{shard=\"0\"}"));
    assert!(text.contains("sam_gateway_window_throughput_rps{window=\"2s\"}"));

    // An unknown format is a typed error, not a silent default.
    client
        .send_raw("{\"cmd\":\"stats\",\"format\":\"xml\"}")
        .unwrap();
    let resp = client.recv().expect("error answered");
    assert_eq!(resp.status, "error");
    assert!(resp.error.unwrap().contains("unknown stats format"));

    // So are out-of-range windows: zero and beyond-the-ring both get
    // rejected instead of silently clamped to something answerable.
    client.send_raw("{\"cmd\":\"stats\",\"window\":0}").unwrap();
    let resp = client.recv().expect("error answered");
    assert_eq!(resp.status, "error");
    assert!(
        resp.error.unwrap().contains("at least 1 second"),
        "window=0 rejected"
    );
    client.send_raw("{\"cmd\":\"stats\",\"window\":5}").unwrap();
    let resp = client.recv().expect("error answered");
    assert_eq!(resp.status, "error");
    assert!(
        resp.error.unwrap().contains("exceeds the 3s ring span"),
        "window beyond the ring rejected"
    );
    // A non-count window never reaches the stats handler at all.
    client
        .send_raw("{\"cmd\":\"stats\",\"window\":-4}")
        .unwrap();
    let resp = client.recv().expect("error answered");
    assert_eq!(resp.status, "error");

    drop(client);
    gateway.drain();
}

#[test]
fn timings_flag_returns_the_stage_breakdown() {
    let gateway = stats_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    // Without the flag: no breakdown on the wire.
    client.send(&wire_request(0)).unwrap();
    let plain = client.recv().expect("response");
    assert_eq!(plain.status, STATUS_OK);
    assert!(plain.timings.is_none());

    // With it: queue/compute/serialize all present. The stages are
    // measured on the monotonic request clock, so each is bounded by
    // the whole round trip.
    let mut req = wire_request(1);
    req.timings = true;
    client.send(&req).unwrap();
    let timed = client.recv().expect("response");
    assert_eq!(timed.status, STATUS_OK);
    let t = timed.timings.expect("stage breakdown");
    assert!(
        t.compute_us > 0 || t.queue_wait_us > 0,
        "monotonic clock recorded nothing: {t:?}"
    );
    assert!(t.compute_us < 10_000_000, "compute {}us", t.compute_us);
    assert!(
        t.serialize_us < 10_000_000,
        "serialize {}us",
        t.serialize_us
    );

    // And the histograms behind the stats windows saw the stages for
    // every request, flag or no flag.
    let report = gateway.stats(None);
    let w = report.window(60).expect("60s window");
    assert!(w.queue_wait_p99_us > 0 || w.compute_p99_us > 0);

    let snapshot = gateway.drain();
    assert!(snapshot.histogram("serve.queue_wait_us").is_some());
    assert!(snapshot.histogram("serve.compute_us").is_some());
    assert_eq!(
        snapshot.histogram("gateway.serialize_us").map(|h| h.count),
        Some(2),
        "serialize stage measured for every served request"
    );
}
