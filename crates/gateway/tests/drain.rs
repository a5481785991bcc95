//! Graceful-drain integration tests: a draining gateway answers every
//! request already received, then closes; the listener refuses new
//! connections; and the remote `drain` command triggers the same path a
//! signal would.

mod common;

use common::{test_gateway, wire_request, Client};
use sam_serve::wire::{STATUS_DRAINING, STATUS_OK};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// After drain completes, connecting to the old address must fail (the
/// listener socket is closed). A tiny retry loop tolerates the OS
/// finishing the close.
fn assert_refuses_connections(addr: std::net::SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => return,
            Ok(_) if Instant::now() >= deadline => {
                panic!("gateway still accepts connections after drain")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn in_flight_requests_are_answered_before_close() {
    let gateway = test_gateway(2);
    let addr = gateway.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Pipeline a burst, then immediately begin drain without reading a
    // single response: everything already received must still be served.
    const N: u64 = 24;
    for id in 0..N {
        client.send(&wire_request(id)).expect("send");
    }
    gateway.begin_drain();

    let mut answered = 0u64;
    while let Some(resp) = client.recv() {
        assert_eq!(resp.status, STATUS_OK);
        answered += 1;
    }
    assert_eq!(answered, N, "drain dropped accepted requests");

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.requests"), N);
    assert_refuses_connections(addr);
}

#[test]
fn remote_drain_command_stops_the_gateway() {
    let gateway = test_gateway(1);
    let addr = gateway.local_addr();

    // A working request first, then the drain command on the same
    // connection.
    let mut client = Client::connect(addr).expect("connect");
    client.send(&wire_request(1)).expect("send");
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_OK);

    client.send_raw("{\"cmd\":\"drain\"}").expect("send drain");
    let ack = client.recv().expect("drain acknowledged");
    assert_eq!(ack.status, STATUS_DRAINING);
    // The gateway closes the commanding connection after the ack.
    assert!(client.recv().is_none(), "connection stays open after drain");

    assert!(gateway.is_draining(), "drain command must flip the flag");
    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.requests"), 1);
    assert_refuses_connections(addr);
}

#[test]
fn idle_connections_close_promptly_on_drain() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    // Prove the connection is live, then leave it idle.
    client.send(&wire_request(2)).expect("send");
    assert_eq!(client.recv().expect("response").status, STATUS_OK);

    gateway.begin_drain();
    let started = Instant::now();
    assert!(
        client.recv().is_none(),
        "idle connection must see EOF on drain"
    );
    // Handlers poll the drain flag on a 100ms read tick; well under the
    // 5s grace cap means the fast path fired, not the hard cutoff.
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "idle close took {:?} — drain tick not working",
        started.elapsed()
    );
    drop(gateway.drain());
}

#[test]
fn drain_returns_a_final_snapshot_with_gateway_counters() {
    let gateway = test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    client.send(&wire_request(3)).expect("send");
    assert_eq!(client.recv().expect("response").status, STATUS_OK);
    drop(client);

    let snapshot = gateway.drain();
    assert_eq!(snapshot.counter("gateway.accepted"), 1);
    assert_eq!(snapshot.counter("gateway.requests"), 1);
    assert_eq!(snapshot.counter("gateway.conn_shed"), 0);
    // The latency histogram recorded the request.
    let hist = snapshot
        .histogram("gateway.request_latency_us")
        .expect("latency histogram present");
    assert_eq!(hist.count, 1);
    // Shard serve.* instruments aggregate into the same snapshot.
    assert_eq!(snapshot.counter("serve.completed"), 1);
}

#[test]
fn drain_wakes_an_acceptor_that_never_saw_a_client() {
    let gateway = test_gateway(1);
    // Drain on its own thread: a lost wake-up leaves that thread asleep
    // in `accept`, and this one fails instead of hanging.
    let (tx, drained) = mpsc::channel();
    let drainer = std::thread::spawn(move || tx.send(gateway.drain()));
    let snapshot = drained
        .recv_timeout(Duration::from_secs(1))
        .expect("drain returns within 1 s");
    drainer
        .join()
        .expect("drain thread")
        .expect("snapshot sent");
    // The wake connection is neither counted nor served.
    assert_eq!(snapshot.counter("gateway.accepted"), 0);
    assert_eq!(snapshot.counter("gateway.conn_shed"), 0);
}

#[test]
fn a_request_written_just_before_drain_is_served() {
    for id in 0..5 {
        let gateway = test_gateway(1);
        let mut client =
            Client::connect_with_timeout(gateway.local_addr(), Duration::from_secs(10))
                .expect("connect");
        client.send(&wire_request(id)).expect("send");
        gateway.begin_drain();
        let resp = client.recv().expect("the request is answered");
        assert_eq!((resp.id, resp.status.as_str()), (id, STATUS_OK));
        assert!(client.recv().is_none(), "then the connection closes");
        let snapshot = gateway.drain();
        assert_eq!(snapshot.counter("gateway.accepted"), 1);
        assert_eq!(snapshot.counter("gateway.requests"), 1);
    }
}
