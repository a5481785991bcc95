//! # sam-gateway — the network-facing serving tier
//!
//! A TCP front-end for wormhole detection: clients connect, write
//! newline-delimited JSON requests (one discovered route set per line),
//! and read one verdict line back per request, in order. Each request is
//! judged on the connection worker that read it. The gateway
//! consistent-hashes its deployment key onto one of several independent
//! [`DetectionService`](sam_serve::prelude::DetectionService) shards, so
//! a deployment's trained profile lives in exactly one shard's LRU
//! cache.
//!
//! The layer map:
//!
//! ```text
//! loadgen --remote ──TCP/JSONL──▶ sam-gateway ──ring──▶ DetectionService × S
//!                                  (this crate)     (sam-serve, run inline)
//! ```
//!
//! * [`ring`] — deterministic consistent-hash ring (FNV-1a, virtual
//!   nodes) mapping deployment keys to shards.
//! * [`server`] — the accept loop, connection workers, overload shed,
//!   and graceful drain.
//!
//! The wire codec itself ([`sam_serve::wire`]) lives in `sam-serve` so
//! the remote load generator shares it without depending on this crate.
//! See the README's *Gateway* section for the protocol specification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod server;

/// One-stop imports for gateway users.
pub mod prelude {
    pub use crate::ring::{HashRing, DEFAULT_REPLICAS};
    pub use crate::server::{Gateway, GatewayConfig};
}
