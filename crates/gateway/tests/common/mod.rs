//! Shared helpers for the gateway integration tests: synthetic traffic
//! (mirroring `sam-serve`'s service tests) and a minimal blocking JSONL
//! client.
#![allow(dead_code)] // each test binary uses a different subset

use manet_routing::Route;
use manet_sim::NodeId;
use sam::{NormalProfile, SamConfig};
use sam_gateway::prelude::*;
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use sam_serve::wire::{FrameReader, WireRequest, WireResponse, MAX_LINE_BYTES};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

pub fn route(ids: &[u32]) -> Route {
    Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
}

/// A normal-looking route set: middles vary with `salt` so no link
/// dominates across the set.
pub fn normal_set(salt: u32) -> Vec<Route> {
    (0..6u32)
        .map(|i| {
            let a = 1 + (salt + i) % 5;
            let b = 6 + (salt + 2 * i) % 4;
            route(&[0, a, b, 11])
        })
        .collect()
}

/// A wormhole-shaped route set: the link 20-21 rides on every route.
pub fn worm_set(salt: u32) -> Vec<Route> {
    (0..6u32)
        .map(|i| {
            let a = 1 + (salt + i) % 5;
            let b = 6 + (salt + 3 * i) % 4;
            route(&[0, a, 20, 21, b, 11])
        })
        .collect()
}

/// Profiles trained on synthetic normal traffic, one per key.
pub fn synthetic_profiles() -> ProfileSource {
    Arc::new(|_key: &ProfileKey| {
        let sets: Vec<Vec<Route>> = (0..8).map(normal_set).collect();
        NormalProfile::train(&sets, 20)
    })
}

/// A gateway on an ephemeral port with synthetic profiles.
pub fn test_gateway(shards: usize) -> Gateway {
    test_gateway_with(shards, synthetic_profiles())
}

/// [`test_gateway`] with its profiles from `profiles`.
pub fn test_gateway_with(shards: usize, profiles: ProfileSource) -> Gateway {
    Gateway::bind("127.0.0.1:0", test_config(shards), profiles).expect("bind ephemeral port")
}

/// The configuration of [`test_gateway`].
pub fn test_config(shards: usize) -> GatewayConfig {
    GatewayConfig {
        shards,
        service: ServiceConfig {
            queue_capacity: 64,
            cache_capacity: 8,
            // Permissive threshold so synthetic mixes produce confirmed
            // and normal verdicts alike.
            detector: SamConfig {
                z_threshold: 1.5,
                ..SamConfig::default()
            },
            ..ServiceConfig::default()
        },
        max_conns: 8,
        backlog: 16,
        ..GatewayConfig::default()
    }
}

/// The wire form of one synthetic request (keys cycle over three
/// deployments; every third request is attacked).
pub fn wire_request(id: u64) -> WireRequest {
    let salt = (id % 17) as u32;
    let attacked = id.is_multiple_of(3);
    let routes = if attacked {
        worm_set(salt)
    } else {
        normal_set(salt)
    };
    WireRequest {
        id,
        topology: format!("synthetic-{}", (b'a' + (id % 3) as u8) as char),
        protocol: "mr".to_string(),
        routes: routes
            .iter()
            .map(|r| r.nodes().iter().map(|n| n.0).collect())
            .collect(),
        probe_ack_ratio: if attacked && id.is_multiple_of(6) {
            Some(0.0)
        } else {
            None
        },
        timings: false,
        trace: None,
        detector: None,
    }
}

/// The same synthetic request addressed to a named detector.
pub fn detector_wire_request(id: u64, detector: &str) -> WireRequest {
    WireRequest {
        detector: Some(detector.to_string()),
        ..wire_request(id)
    }
}

/// The same synthetic request with a client-stamped trace id.
pub fn traced_wire_request(id: u64, trace: &str) -> WireRequest {
    WireRequest {
        trace: Some(trace.to_string()),
        ..wire_request(id)
    }
}

/// A blocking JSONL client for one connection.
pub struct Client {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// [`connect`](Client::connect) with `read_timeout` on every read.
    pub fn connect_with_timeout(
        addr: std::net::SocketAddr,
        read_timeout: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            reader: FrameReader::new(BufReader::new(stream.try_clone()?), MAX_LINE_BYTES),
            writer: stream,
        })
    }

    /// Write one raw protocol line.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    pub fn send(&mut self, req: &WireRequest) -> std::io::Result<()> {
        self.send_raw(&req.encode())
    }

    /// Read the next response line; `None` on clean EOF.
    pub fn recv(&mut self) -> Option<WireResponse> {
        let line = self.reader.next_frame().expect("read response")?;
        Some(WireResponse::decode(&line).expect("decode response"))
    }

    /// Stop writing: the gateway reads EOF once it has every line sent.
    pub fn close_write(&self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    /// Like [`recv`](Client::recv), but surfacing transport errors.
    pub fn recv_result(&mut self) -> Result<Option<WireResponse>, sam_serve::wire::FrameError> {
        match self.reader.next_frame()? {
            Some(line) => Ok(Some(WireResponse::decode(&line).expect("decode response"))),
            None => Ok(None),
        }
    }
}
