//! End-to-end gateway tests over real sockets: verdicts are invariant to
//! the shard count (mirroring sam-serve's worker-invariance contract one
//! network layer up), consistent-hash affinity keeps each deployment's
//! profile training on exactly one shard, concurrent first requests for
//! one key share one training, and protocol-level failures (bad lines,
//! unknown keys) answer typed errors without poisoning the connection,
//! while an oversized line gets one error and a close.

mod common;

use common::{detector_wire_request, test_gateway, test_gateway_with, wire_request, Client};
use sam_serve::service::ProfileSource;
use sam_serve::wire::{
    FrameError, MAX_LINE_BYTES, STATUS_ERROR, STATUS_OK, STATUS_SHED, STATUS_UNKNOWN_DETECTOR,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Serve `n` synthetic requests over one pipelined connection; returns
/// verdict-confirmed by id.
fn serve_over_tcp(shards: usize, n: u64) -> (BTreeMap<u64, bool>, u64, u64) {
    let gateway = test_gateway(shards);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    let mut verdicts = BTreeMap::new();
    // Pipeline in windows so the test exercises interleaved lines without
    // overrunning shard queues.
    const WINDOW: u64 = 16;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut shed = 0u64;
    while received < n {
        while sent < n && sent - received < WINDOW {
            client.send(&wire_request(sent)).expect("send");
            sent += 1;
        }
        let resp = client.recv().expect("response before EOF");
        match resp.status.as_str() {
            STATUS_OK => {
                let confirmed = resp.verdict.expect("ok carries verdict").confirmed;
                assert!(
                    verdicts.insert(resp.id, confirmed).is_none(),
                    "duplicate response id {}",
                    resp.id
                );
            }
            STATUS_SHED => shed += 1,
            other => panic!("unexpected status {other}"),
        }
        received += 1;
    }
    let snapshot = gateway.drain();
    (verdicts, shed, snapshot.counter("serve.cache_misses"))
}

#[test]
fn verdicts_are_invariant_across_shard_counts() {
    let n = 90;
    let (one, shed1, _) = serve_over_tcp(1, n);
    let (three, shed3, _) = serve_over_tcp(3, n);
    assert_eq!(shed1, 0, "queues sized to accept everything");
    assert_eq!(shed3, 0);
    assert_eq!(one.len(), n as usize);
    assert_eq!(
        one, three,
        "1-shard and 3-shard verdicts differ — routing must not change results"
    );
    // The mix must exercise both outcomes or the invariance is vacuous.
    assert!(one.values().any(|&c| c), "no confirmed verdicts in mix");
    assert!(one.values().any(|&c| !c), "no normal verdicts in mix");
}

#[test]
fn consistent_hashing_trains_each_key_on_exactly_one_shard() {
    // 3 distinct deployment keys cycle through the mix. With consistent
    // hashing, each key lands on one shard only, so across ALL shards
    // there are exactly 3 cache misses (one training per key) no matter
    // how many shards exist — repeated keys are cache hits.
    let (_, _, misses) = serve_over_tcp(3, 60);
    assert_eq!(
        misses, 3,
        "each deployment key must train once, on its one owning shard"
    );
}

#[test]
fn concurrent_first_requests_for_one_key_share_one_training() {
    // The source counts its trainings and holds each one until the test
    // drops the write guard.
    let gate = Arc::new(RwLock::new(()));
    let trainings = Arc::new(AtomicUsize::new(0));
    let source: ProfileSource = {
        let (gate, trainings) = (gate.clone(), trainings.clone());
        let synthetic = common::synthetic_profiles();
        Arc::new(move |key| {
            trainings.fetch_add(1, Ordering::SeqCst);
            let _open = gate.read().unwrap();
            synthetic(key)
        })
    };
    let hold = gate.write().unwrap();
    // One shard: the two requests run at once, each on the connection
    // worker that read it, against the one cache that owns the key.
    let gateway = test_gateway_with(1, source);
    let mut first = Client::connect(gateway.local_addr()).expect("connect");
    let mut second = Client::connect(gateway.local_addr()).expect("connect");

    // Ids 0 and 3 share the deployment key synthetic-a.
    first.send(&wire_request(0)).expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    while trainings.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the first request never trained");
        std::thread::sleep(Duration::from_millis(1));
    }
    second.send(&wire_request(3)).expect("send");
    // Give the second request time to reach its worker's cache lookup
    // while the first training is held.
    std::thread::sleep(Duration::from_millis(100));
    drop(hold);

    let responses = [first.recv(), second.recv()].map(|r| r.expect("response"));
    assert!(responses.iter().all(|r| r.status == STATUS_OK));
    assert_eq!(trainings.load(Ordering::SeqCst), 1, "the source ran once");
    let misses = responses
        .iter()
        .filter(|r| r.profile_cache_hit == Some(false))
        .count();
    assert_eq!(misses, 1, "exactly one response trained");
    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("serve.cache_misses"), 1);
}

#[test]
fn bad_lines_get_typed_errors_and_the_connection_survives() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");

    // Not JSON at all.
    client.send_raw("this is not json").expect("send");
    let resp = client.recv().expect("error response");
    assert_eq!(resp.status, STATUS_ERROR);
    assert!(resp.error.unwrap().contains("bad JSON"));

    // Valid JSON, invalid route (repeated node).
    let mut req = wire_request(1);
    req.routes.push(vec![5, 6, 5]);
    client.send(&req).expect("send");
    let resp = client.recv().expect("error response");
    assert_eq!(resp.status, STATUS_ERROR);
    assert_eq!(resp.id, 1, "error echoes the request id");

    // The connection still works for a good request afterwards.
    client.send(&wire_request(2)).expect("send");
    let resp = client.recv().expect("ok response");
    assert_eq!(resp.status, STATUS_OK);
    assert_eq!(resp.id, 2);

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.codec_errors"), 2);
    assert_eq!(snapshot.counter("gateway.requests"), 1);
}

#[test]
fn unknown_keys_are_refused_when_a_catalogue_is_pinned() {
    let cfg = sam_gateway::server::GatewayConfig {
        shards: 1,
        known_keys: Some(vec!["synthetic-a/mr".to_string()]),
        ..sam_gateway::server::GatewayConfig::default()
    };
    let gateway =
        sam_gateway::server::Gateway::bind("127.0.0.1:0", cfg, common::synthetic_profiles())
            .expect("bind");
    let mut client = Client::connect(gateway.local_addr()).expect("connect");

    // id 0 maps to synthetic-a (known); id 1 maps to synthetic-b.
    client.send(&wire_request(1)).expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_ERROR);
    assert!(resp.error.unwrap().contains("unknown deployment key"));

    client.send(&wire_request(0)).expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_OK, "known key still serves");

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.unknown_key"), 1);
}

#[test]
fn detector_selection_serves_alternatives_and_types_unknown_names() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");

    // id 0 is an attacked set — the ensemble must flag it and the
    // response must echo the detector that judged it.
    client
        .send(&detector_wire_request(0, "ensemble"))
        .expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_OK);
    assert_eq!(resp.detector.as_deref(), Some("ensemble"));
    assert!(resp.score.expect("ok carries a score") > 1.0);
    assert!(resp.verdict.expect("ok carries verdict").anomalous);

    // A typo'd detector gets the typed status — and keeps the line open.
    client
        .send(&detector_wire_request(1, "oracle"))
        .expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_UNKNOWN_DETECTOR);
    assert_eq!(resp.id, 1);
    assert!(resp.error.unwrap().contains("unknown detector `oracle`"));

    // Still serving: an unadorned request behaves exactly as before.
    client.send(&wire_request(2)).expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_OK);
    assert_eq!(resp.detector.as_deref(), Some("sam"));

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.unknown_detector"), 1);
    assert_eq!(snapshot.counter("gateway.requests"), 2);
}

#[test]
fn a_deeply_nested_line_is_a_typed_error_not_a_dead_worker() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");

    // 10,000 levels would overflow a conn worker's stack in a parser
    // that recursed without a cap, taking the whole gateway down.
    client.send_raw(&"[".repeat(10_000)).expect("send");
    let resp = client.recv().expect("error response");
    assert_eq!(resp.status, STATUS_ERROR);
    assert!(resp.error.unwrap().contains("nesting deeper than 128"));

    // Same connection, still served.
    client.send_raw("{\"cmd\":\"ping\"}").expect("send");
    let resp = client.recv().expect("pong");
    assert_eq!(resp.status, STATUS_OK);
    drop(gateway.drain());
}

#[test]
fn an_oversized_line_gets_one_error_and_the_connection_closes() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");

    // One byte past the cap: the gateway cannot find the next frame
    // boundary without buffering the rest, so it answers once and hangs
    // up. The newline may meet a closed socket; the answer is what counts.
    let _ = client.send_raw(&"x".repeat(MAX_LINE_BYTES + 1));
    let resp = client.recv().expect("error response");
    assert_eq!(resp.status, STATUS_ERROR);
    assert_eq!(resp.id, 0);
    let expected = format!("frame exceeds {MAX_LINE_BYTES} bytes");
    assert_eq!(resp.error.as_deref(), Some(expected.as_str()));

    // Nothing follows. The close reads as EOF, or as a reset when the
    // gateway left the newline unread in its socket.
    match client.recv_result() {
        Ok(None) | Err(FrameError::Io(_)) => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.codec_errors"), 1);
    assert_eq!(snapshot.counter("gateway.requests"), 0);
}

#[test]
fn ping_answers_ok() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    client.send_raw("{\"cmd\":\"ping\"}").expect("send");
    let resp = client.recv().expect("pong");
    assert_eq!(resp.status, STATUS_OK);
    drop(gateway.drain());
}
