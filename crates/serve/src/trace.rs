//! Request-trace exemplars and the verdict audit trail — the data model
//! behind `sam-wiretrace`.
//!
//! The gateway follows every request under a 128-bit
//! [`TraceId`](sam_telemetry::TraceId) from the wire, across the shard
//! channel, through detector compute, and back out. Two artifacts fall
//! out of that at completion time, both defined here so the gateway that
//! produces them and the clients that read them (`sam-top`, `loadgen
//! --remote`, scripts with `jq`) share one schema:
//!
//! * a [`TraceExemplar`] — the full per-stage span breakdown of one
//!   *interesting* request (slow, shed, error, or positive verdict),
//!   tail-sampled into a fixed-capacity ring and served over the
//!   `{"cmd":"trace"}` wire command;
//! * an [`AuditRecord`] — one compact JSONL line per completed request
//!   (trace id, deployment key, shard, verdict evidence, stage timings),
//!   the evidence trail drift and ensemble experiments replay.
//!
//! Tail sampling (decide *after* completion) is what makes exemplars
//! affordable: the interesting 1% costs a ring slot, the boring 99% cost
//! one branch.

use crate::wire::{FrameReader, WireCommand, WireResponse, MAX_LINE_BYTES};
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a completed request was kept by the tail sampler.
pub mod sample_reason {
    /// Total latency crossed `--trace-slow-us`.
    pub const SLOW: &str = "slow";
    /// The request was shed by overload.
    pub const SHED: &str = "shed";
    /// The request failed (route validation, decode, …).
    pub const ERROR: &str = "error";
    /// The detector confirmed a wormhole.
    pub const VERDICT: &str = "verdict";
}

/// One span inside an exemplar, on the request's monotonic stage clock
/// (`start_us` is measured from request acceptance).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Stage name (`request`, `queue_wait`, `compute`, `serialize`).
    pub name: String,
    /// Offset from request acceptance, microseconds.
    pub start_us: u64,
    /// Stage duration, microseconds.
    pub dur_us: u64,
}

/// One tail-sampled request trace, as served by `{"cmd":"trace"}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceExemplar {
    /// The request's trace id, 32 hex digits.
    pub trace: String,
    /// Correlation id from the request line.
    pub id: u64,
    /// Deployment key (`topology/protocol`).
    pub key: String,
    /// Shard that served the request (absent when it never reached one).
    pub shard: Option<u64>,
    /// Final wire status (`ok`, `shed`, `error`).
    pub status: String,
    /// Why the sampler kept it — a [`sample_reason`] constant.
    pub reason: String,
    /// Gateway latency from acceptance to just before the response is
    /// encoded, microseconds. Serialization is not included: it is the
    /// `serialize` span (`serialize_us`), which starts here.
    pub total_us: u64,
    /// Per-stage spans, all sharing `trace`.
    pub spans: Vec<TraceSpan>,
}

/// One verdict-audit JSONL line, appended for every completed request
/// when the gateway runs with `--audit-log`. `kind` pins the line shape
/// so audit files can be grepped out of mixed logs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Line discriminator, `"audit"`.
    pub kind: String,
    /// The request's trace id, 32 hex digits.
    pub trace: String,
    /// Correlation id from the request line.
    pub id: u64,
    /// Deployment key (`topology/protocol`).
    pub key: String,
    /// Shard that served the request (absent for shed/error lines).
    pub shard: Option<u64>,
    /// Final wire status (`ok`, `shed`, `error`).
    pub status: String,
    /// Name of the detector that judged the routes, on `ok`. Absent in
    /// audit files written before detector selection existed, which
    /// decode it as `None`.
    pub detector: Option<String>,
    /// The detector's normalized anomaly score (1.0 = the decision
    /// boundary), on `ok`. Absent in pre-selection audit files.
    pub score: Option<f64>,
    /// Whether the detector flagged the route set (λ exceeded), on `ok`.
    pub anomalous: Option<bool>,
    /// Whether probing confirmed the wormhole, on `ok`.
    pub confirmed: Option<bool>,
    /// The dominant route frequency the verdict rests on, on `ok`.
    pub p_max: Option<f64>,
    /// The suspected wormhole link endpoints, when one was isolated.
    pub suspect_link: Option<(u32, u32)>,
    /// Gateway latency from acceptance to just before the response is
    /// encoded, microseconds. Serialization is `serialize_us`, on top.
    pub total_us: u64,
    /// Shard-queue wait, microseconds (0 when never queued).
    pub queue_wait_us: u64,
    /// Detector compute, microseconds (0 when never computed).
    pub compute_us: u64,
    /// Response serialization, microseconds.
    pub serialize_us: u64,
}

impl AuditRecord {
    /// Encode as one JSONL line (no terminator).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("audit record serializes")
    }
}

/// Ask a running gateway for its recent tail-sampled exemplars over one
/// TCP round trip (`{"cmd":"trace","limit":N}`). Newest exemplar last.
/// Errors if the gateway runs without `--trace`.
pub fn fetch_trace(
    addr: &str,
    limit: Option<u64>,
    timeout: Duration,
) -> Result<Vec<TraceExemplar>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(
        BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
        MAX_LINE_BYTES,
    );
    let mut writer = stream;
    let cmd = WireCommand {
        cmd: "trace".to_string(),
        window_s: None,
        format: None,
        limit,
    };
    writer
        .write_all((cmd.encode() + "\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let line = reader
        .next_frame()
        .map_err(|e| format!("read: {e}"))?
        .ok_or("connection closed before answering trace")?;
    let resp = WireResponse::decode(&line).map_err(|e| format!("decode: {e}"))?;
    if resp.status != crate::wire::STATUS_OK {
        return Err(format!(
            "trace refused: status {} ({})",
            resp.status,
            resp.error.unwrap_or_default()
        ));
    }
    resp.exemplars
        .ok_or("ok response carried no exemplars".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar() -> TraceExemplar {
        TraceExemplar {
            trace: "000000000000002a000000000000007b".to_string(),
            id: 7,
            key: "uniform6x6/mr".to_string(),
            shard: Some(1),
            status: "ok".to_string(),
            reason: sample_reason::SLOW.to_string(),
            total_us: 1_850,
            spans: vec![
                TraceSpan {
                    name: "request".to_string(),
                    start_us: 0,
                    dur_us: 1_850,
                },
                TraceSpan {
                    name: "queue_wait".to_string(),
                    start_us: 0,
                    dur_us: 300,
                },
                TraceSpan {
                    name: "compute".to_string(),
                    start_us: 300,
                    dur_us: 1_500,
                },
                TraceSpan {
                    name: "serialize".to_string(),
                    start_us: 1_800,
                    dur_us: 50,
                },
            ],
        }
    }

    #[test]
    fn exemplars_round_trip_as_json() {
        let ex = exemplar();
        let text = serde_json::to_string(&ex).unwrap();
        let back: TraceExemplar = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ex);
        // Every span shares the exemplar's trace by construction — the
        // schema carries it once, at the top.
        assert_eq!(back.spans.len(), 4);
        assert_eq!(back.trace.len(), 32);
    }

    #[test]
    fn audit_records_encode_verdict_evidence() {
        let rec = AuditRecord {
            kind: "audit".to_string(),
            trace: "000000000000002a000000000000007b".to_string(),
            id: 9,
            key: "uniform6x6/mr".to_string(),
            shard: Some(0),
            status: "ok".to_string(),
            detector: Some("sam".to_string()),
            score: Some(1.37),
            anomalous: Some(true),
            confirmed: Some(true),
            p_max: Some(0.83),
            suspect_link: Some((3, 9)),
            total_us: 900,
            queue_wait_us: 100,
            compute_us: 750,
            serialize_us: 10,
        };
        let line = rec.encode();
        let back: AuditRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
        assert!(line.contains("\"kind\":\"audit\""));
        assert!(line.contains("\"p_max\":0.83"));
        assert!(line.contains("\"detector\":\"sam\""));
        // Shed lines carry no verdict evidence but still encode.
        let shed = AuditRecord {
            status: "shed".to_string(),
            shard: None,
            detector: None,
            score: None,
            anomalous: None,
            confirmed: None,
            p_max: None,
            suspect_link: None,
            ..rec
        };
        let back: AuditRecord = serde_json::from_str(&shed.encode()).unwrap();
        assert_eq!(back.p_max, None);
        assert_eq!(back.suspect_link, None);
    }
}
