//! Shed over the wire. Request level: a shard admits at most
//! `queue_capacity` requests into compute at once, and answers the next
//! ones `"shed"` with the count they collided with. Connection level: a
//! connection accepted while the backlog is full gets one `"shed"` line
//! and is closed. Every wait is bounded, so a gateway that never answers
//! fails instead of hanging.

mod common;

use common::{synthetic_profiles, test_config, wire_request, Client};
use sam_gateway::prelude::*;
use sam_serve::service::ProfileSource;
use sam_serve::wire::{STATUS_OK, STATUS_SHED};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

const READ_BOUND: Duration = Duration::from_secs(10);

#[test]
fn a_full_shard_sheds_with_its_depth_and_serves_what_it_admitted() {
    // Every training waits on the gate until the test drops its write
    // guard.
    let gate = Arc::new(RwLock::new(()));
    let source: ProfileSource = {
        let (gate, synthetic) = (gate.clone(), synthetic_profiles());
        Arc::new(move |key| {
            let _open = gate.read().unwrap();
            synthetic(key)
        })
    };
    let hold = gate.write().unwrap();
    let mut cfg = test_config(1);
    cfg.service.queue_capacity = 2;
    let gateway = Gateway::bind("127.0.0.1:0", cfg, source).expect("bind ephemeral port");
    let connect = || Client::connect_with_timeout(gateway.local_addr(), READ_BOUND).unwrap();
    let depth = || gateway.stats(None).shards[0].queue_depth;

    // Two requests, on two connections, for two keys: both in compute,
    // both waiting on the gate.
    let mut admitted: Vec<Client> = (0..2).map(|_| connect()).collect();
    for (id, client) in admitted.iter_mut().enumerate() {
        client.send(&wire_request(id as u64)).unwrap();
    }
    let deadline = Instant::now() + READ_BOUND;
    while depth() < 2 {
        assert!(Instant::now() < deadline, "depth stuck at {}", depth());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(depth(), 2, "at most queue_capacity in compute");

    // The shard is full: three more requests are shed at depth 2.
    for id in 2..5 {
        let mut client = connect();
        client.send(&wire_request(id)).unwrap();
        let resp = client.recv().expect("shed line");
        assert_eq!(
            (resp.id, resp.status.as_str(), resp.queue_depth),
            (id, STATUS_SHED, Some(2))
        );
    }

    drop(hold);
    for (id, client) in admitted.iter_mut().enumerate() {
        let resp = client.recv().expect("served line");
        assert_eq!((resp.id, resp.status.as_str()), (id as u64, STATUS_OK));
    }
    let stats = gateway.stats(None);
    assert_eq!(stats.totals.requests + stats.totals.request_shed, 5);
    assert_eq!(stats.totals.request_shed, 3);
    assert!(
        stats.shards.iter().all(|s| s.queue_depth == 0),
        "{:?}",
        stats.shards
    );
    drop(gateway.drain());
}

#[test]
fn a_connection_past_a_full_backlog_gets_one_shed_line_and_eof() {
    let mut cfg = test_config(1);
    cfg.max_conns = 1;
    cfg.backlog = 1;
    let gateway =
        Gateway::bind("127.0.0.1:0", cfg, synthetic_profiles()).expect("bind ephemeral port");
    let connect = || Client::connect_with_timeout(gateway.local_addr(), READ_BOUND).unwrap();
    let counter = |name: &str| gateway.registry().snapshot().counter(name);

    // A holds the one connection worker (its ping is answered there), and
    // B waits in the one-place backlog once the acceptor has taken it.
    let mut held = connect();
    held.send_raw("{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(held.recv().expect("pong").status, STATUS_OK);
    let queued = connect();
    let deadline = Instant::now() + READ_BOUND;
    while counter("gateway.accepted") < 2 {
        assert!(Instant::now() < deadline, "B never accepted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The acceptor queued B before accepting again, so a third
    // connection finds the backlog full: one shed line, then EOF.
    let mut shed = connect();
    let resp = shed.recv().expect("shed line");
    assert_eq!(
        (resp.id, resp.status.as_str(), resp.queue_depth),
        (0, STATUS_SHED, Some(1))
    );
    assert!(shed.recv().is_none(), "the shed connection closes");
    assert_eq!(counter("gateway.conn_shed"), 1);
    drop((held, queued));
    drop(gateway.drain());
}
