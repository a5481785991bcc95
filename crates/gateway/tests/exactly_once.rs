//! Exactly one response per accepted request when the profile source
//! panics: the failing request gets one `"error"` line, its connection
//! and its shard keep serving, and drain still returns within its grace.
//! The `{"cmd":"stats"}` totals then account for every request line.
//! Every wait is bounded, so a gateway that never answers fails this test
//! instead of hanging the suite.

mod common;

use common::{
    detector_wire_request, synthetic_profiles, test_gateway, test_gateway_with, wire_request,
    Client,
};
use sam_serve::prelude::Verdict;
use sam_serve::service::ProfileSource;
use sam_serve::wire::{WireResponse, STATUS_ERROR, STATUS_OK, STATUS_UNKNOWN_DETECTOR};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The longest a request may go without its line.
const READ_BOUND: Duration = Duration::from_secs(3);
/// The gateway's drain grace.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Ids sent one per fresh connection.
const PROBES: Range<u64> = 0..6;
/// Ids then pipelined on one connection.
const PIPELINED: Range<u64> = 6..18;

/// `wire_request(id)` targets synthetic-a exactly when `id % 3 == 0`.
fn targets_synthetic_a(id: u64) -> bool {
    id.is_multiple_of(3)
}

/// Synthetic profiles, except that training synthetic-a panics.
fn panics_on_synthetic_a() -> ProfileSource {
    let synthetic = synthetic_profiles();
    Arc::new(move |key| {
        assert_ne!(key.topology, "synthetic-a", "profile source failed");
        synthetic(key)
    })
}

/// What a healthy `test_gateway(1)` answers, per id.
fn healthy_answers(ids: Range<u64>) -> BTreeMap<u64, (Option<f64>, Option<Verdict>)> {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    for id in ids.clone() {
        client.send(&wire_request(id)).expect("send");
    }
    let answers = ids
        .map(|id| {
            let resp = client.recv().expect("response");
            assert_eq!((resp.id, resp.status.as_str()), (id, STATUS_OK));
            (id, (resp.score, resp.verdict))
        })
        .collect();
    drop(gateway.drain());
    answers
}

/// The one line request `id` gets, within [`READ_BOUND`].
fn one_line(client: &mut Client, id: u64) -> WireResponse {
    match client.recv_result() {
        Ok(Some(resp)) => resp,
        Ok(None) => panic!("request {id}: the connection closed without a line"),
        Err(e) => panic!("request {id}: no line within {READ_BOUND:?} ({e:?})"),
    }
}

/// Nothing follows the last expected line: once the client stops
/// writing, the gateway hangs up.
fn assert_no_more_lines(client: &mut Client) {
    client.close_write().expect("shut the write half");
    match client.recv_result() {
        Ok(None) => {}
        other => panic!("expected EOF after the last line, got {other:?}"),
    }
}

#[test]
fn a_panicking_profile_source_costs_one_error_line_per_request() {
    let expected = healthy_answers(PROBES.start..PIPELINED.end);
    let check = |resp: &WireResponse, id: u64| {
        assert_eq!(resp.id, id);
        if targets_synthetic_a(id) {
            assert_eq!(resp.status, STATUS_ERROR, "request {id}");
        } else {
            assert_eq!(resp.status, STATUS_OK, "request {id}: {:?}", resp.error);
            assert_eq!(
                (resp.score, resp.verdict.clone()),
                expected[&id],
                "request {id}"
            );
        }
    };

    let gateway = test_gateway_with(1, panics_on_synthetic_a());
    let addr = gateway.local_addr();
    // Drain runs on its own thread. It starts on the test's signal, or
    // when a failing test drops the signal's sender.
    let (start_drain, drain_signal) = mpsc::channel::<()>();
    let (drained_tx, drained) = mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = drain_signal.recv();
        let _ = drained_tx.send(gateway.drain());
    });

    for id in PROBES {
        let mut client = Client::connect_with_timeout(addr, READ_BOUND).expect("connect");
        client.send(&wire_request(id)).expect("send");
        check(&one_line(&mut client, id), id);
        assert_no_more_lines(&mut client);
    }
    let mut client = Client::connect_with_timeout(addr, READ_BOUND).expect("connect");
    for id in PIPELINED {
        client.send(&wire_request(id)).expect("send");
    }
    for id in PIPELINED {
        check(&one_line(&mut client, id), id);
    }
    assert_no_more_lines(&mut client);

    // Every place in compute was given back, the panicking requests'
    // included.
    let mut client = Client::connect_with_timeout(addr, READ_BOUND).expect("connect");
    client.send_raw(r#"{"cmd":"stats"}"#).expect("send");
    let shards = one_line(&mut client, 0)
        .stats
        .expect("stats payload")
        .shards;
    assert!(shards.iter().all(|s| s.queue_depth == 0), "{shards:?}");
    drop(client);

    start_drain.send(()).expect("drain thread waits");
    let snapshot = drained
        .recv_timeout(DRAIN_GRACE)
        .expect("drain returns within its grace");
    drainer.join().expect("drain thread");
    let sent = PIPELINED.end - PROBES.start;
    let failed = (PROBES.start..PIPELINED.end)
        .filter(|&id| targets_synthetic_a(id))
        .count() as u64;
    assert_eq!(snapshot.counter("serve.failed"), failed);
    assert_eq!(snapshot.counter("serve.submitted"), sent);
    assert_eq!(snapshot.counter("serve.completed"), sent - failed);
    assert_eq!(snapshot.counter("gateway.requests"), sent - failed);
}

#[test]
fn stats_totals_account_for_every_request_line() {
    let gateway = test_gateway_with(1, panics_on_synthetic_a());
    let mut client =
        Client::connect_with_timeout(gateway.local_addr(), READ_BOUND).expect("connect");
    let mut statuses = BTreeMap::<String, u64>::new();
    let mut answer = |client: &mut Client, id: u64| {
        let resp = one_line(client, id);
        *statuses.entry(resp.status).or_default() += 1;
    };
    for id in PROBES.start..PIPELINED.end {
        client.send(&wire_request(id)).expect("send");
        answer(&mut client, id);
        client
            .send(&detector_wire_request(id, "oracle"))
            .expect("send");
        answer(&mut client, id);
    }
    client.send_raw("{not json").expect("send");
    answer(&mut client, 0);
    let lines = 2 * (PIPELINED.end - PROBES.start) + 1;

    let failed = (PROBES.start..PIPELINED.end)
        .filter(|&id| targets_synthetic_a(id))
        .count() as u64;
    let served = PIPELINED.end - PROBES.start - failed;
    let refused = PIPELINED.end - PROBES.start + 1;
    assert_eq!(statuses[STATUS_OK], served);
    assert_eq!(statuses[STATUS_UNKNOWN_DETECTOR], refused - 1);
    assert_eq!(statuses[STATUS_ERROR], failed + 1);

    client.send_raw(r#"{"cmd":"stats"}"#).expect("send");
    let totals = one_line(&mut client, 0)
        .stats
        .expect("stats payload")
        .totals;
    assert_eq!(
        (
            totals.requests,
            totals.request_shed,
            totals.refused,
            totals.failed
        ),
        (served, 0, refused, failed)
    );
    assert_eq!(
        totals.requests + totals.request_shed + totals.refused + totals.failed,
        lines
    );
    drop(gateway.drain());
}
