//! The per-request record and its views — the data model behind
//! `sam-wiretrace`.
//!
//! The gateway follows every request under a 128-bit
//! [`TraceId`] from the wire, across the shard channel, through detector
//! compute, and back out. At completion it builds one [`AuditRecord`]
//! (trace id, deployment key, shard, verdict evidence, stage timings) from
//! the response it writes; everything else is a view of that record,
//! defined here so the gateway that produces them and the clients that
//! read them (`sam-top`, `loadgen --remote`, scripts with `jq`) share one
//! schema:
//!
//! * the `--audit-log` line is the record itself, one JSONL line per
//!   completed request — the evidence trail drift and ensemble
//!   experiments replay;
//! * a [`TraceExemplar`] is the record of one *interesting* request
//!   (slow, shed, refused, or positive verdict) with its stage ladder,
//!   kept by the tail-sampling rule ([`AuditRecord::sample_reason`]) in a
//!   fixed-capacity ring and rendered when `{"cmd":"trace"}` asks;
//! * the stage ladder ([`AuditRecord::ladder`]) is also what the gateway
//!   cuts its synthesized `gateway.queue_wait` / `gateway.serialize`
//!   telemetry spans from.
//!
//! Tail sampling (decide *after* completion) is what makes exemplars
//! affordable: the interesting 1% costs a ring slot, the boring 99% cost
//! one branch.

use crate::request::StageTiming;
use crate::wire::{self, WireCommand, WireResponse};
use sam_telemetry::TraceId;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Why a completed request was kept by the tail sampler.
pub mod sample_reason {
    /// A served request's total latency crossed `--slow-request-us`, the
    /// threshold that also drives the slow-request counter and event.
    pub const SLOW: &str = "slow";
    /// The request was shed by overload.
    pub const SHED: &str = "shed";
    /// The request was refused (unknown key or detector, route
    /// validation, decode, …).
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
    /// Shard the request was routed to (absent when it was refused
    /// before routing: unknown key, invalid route).
    pub shard: Option<u64>,
    /// Final wire status (`ok`, `shed`, `unknown_detector`, `error`).
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

impl TraceExemplar {
    /// The exemplar view of a record the tail sampler kept for `reason`.
    pub fn from_record(record: &AuditRecord, reason: &str) -> Self {
        TraceExemplar {
            trace: record.trace.clone(),
            id: record.id,
            key: record.key.clone(),
            shard: record.shard,
            status: record.status.clone(),
            reason: reason.to_string(),
            total_us: record.total_us,
            spans: record.ladder().into(),
        }
    }
}

/// The one record of a finished request, appended as a verdict-audit
/// JSONL line when the gateway runs with `--audit-log`. `kind` pins the
/// line shape so audit files can be grepped out of mixed logs.
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
    /// Shard the request was routed to. Shed and unknown-detector lines
    /// carry it too; it is absent only when the request was refused
    /// before routing (unknown key, invalid route).
    pub shard: Option<u64>,
    /// Final wire status (`ok`, `shed`, `unknown_detector`, `error`).
    pub status: String,
    /// Name of the detector that judged the routes, on `ok` (the name
    /// asked for, on `unknown_detector`). Absent in audit files written
    /// before detector selection existed, which decode it as `None`.
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
    /// The record of the request answered with `response`: its identity,
    /// the routed `shard`, the verdict evidence the response carries, and
    /// the stage timings. `total_us` runs from acceptance to just before
    /// encoding, and `timing.serialize_us` is the encode on top.
    pub fn new(
        trace: TraceId,
        key: &str,
        shard: Option<u64>,
        response: &WireResponse,
        timing: StageTiming,
        total_us: u64,
    ) -> Self {
        let verdict = response.verdict.as_ref();
        AuditRecord {
            kind: "audit".to_string(),
            trace: trace.to_string(),
            id: response.id,
            key: key.to_string(),
            shard,
            status: response.status.clone(),
            detector: response.detector.clone(),
            score: response.score,
            anomalous: verdict.map(|v| v.anomalous),
            confirmed: verdict.map(|v| v.confirmed),
            p_max: verdict.map(|v| v.p_max),
            suspect_link: verdict.and_then(|v| v.suspect_link.map(|(a, b)| (a.0, b.0))),
            total_us,
            queue_wait_us: timing.queue_wait_us,
            compute_us: timing.compute_us,
            serialize_us: timing.serialize_us,
        }
    }

    /// The tail-sampling rule: why to keep this request as an exemplar,
    /// `None` to drop it. A request is kept for the most alarming thing
    /// about it: a shed or any refusal first, then a flagged verdict,
    /// then a served request slower than `slow_us`.
    pub fn sample_reason(&self, slow_us: Option<u64>) -> Option<&'static str> {
        match self.status.as_str() {
            wire::STATUS_SHED => Some(sample_reason::SHED),
            wire::STATUS_OK if self.anomalous == Some(true) || self.confirmed == Some(true) => {
                Some(sample_reason::VERDICT)
            }
            wire::STATUS_OK => slow_us
                .filter(|&t| self.total_us > t)
                .map(|_| sample_reason::SLOW),
            _ => Some(sample_reason::ERROR),
        }
    }

    /// The stage ladder on the request's monotonic clock, started at
    /// acceptance: `request`, `queue_wait`, `compute`, `serialize`. Queue
    /// wait starts at 0 (and lasts 0 on the gateway, where nothing
    /// queues), compute follows it, and serialization starts at
    /// `total_us`, once the verdict is back at the gateway.
    pub fn ladder(&self) -> [TraceSpan; 4] {
        let span = |name: &str, start_us, dur_us| TraceSpan {
            name: name.to_string(),
            start_us,
            dur_us,
        };
        [
            span(
                "request",
                0,
                self.total_us.saturating_add(self.serialize_us),
            ),
            span("queue_wait", 0, self.queue_wait_us),
            span("compute", self.queue_wait_us, self.compute_us),
            span("serialize", self.total_us, self.serialize_us),
        ]
    }

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
    let cmd = WireCommand {
        limit,
        ..WireCommand::bare("trace")
    };
    let resp = wire::round_trip(addr, &cmd, timeout)?;
    if resp.status != wire::STATUS_OK {
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
    use crate::request::{DetectionResponse, Verdict};
    use manet_sim::NodeId;

    const TRACE: TraceId = TraceId(0x2a, 0x7b);

    fn exemplar() -> TraceExemplar {
        TraceExemplar {
            trace: "000000000000002a000000000000007b".to_string(),
            id: 7,
            key: "uniform6x6/mr".to_string(),
            shard: Some(1),
            status: "ok".to_string(),
            reason: sample_reason::SLOW.to_string(),
            total_us: 1_800,
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

    /// The record of a served, confirmed request.
    fn record() -> AuditRecord {
        AuditRecord {
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
        }
    }

    fn timing() -> StageTiming {
        StageTiming {
            queue_wait_us: 100,
            compute_us: 750,
            serialize_us: 10,
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
    fn from_record_cuts_the_ladder_from_the_record() {
        let rec = AuditRecord {
            id: 7,
            shard: Some(1),
            anomalous: Some(false),
            confirmed: Some(false),
            total_us: 1_800,
            queue_wait_us: 300,
            compute_us: 1_500,
            serialize_us: 50,
            ..record()
        };
        assert_eq!(
            TraceExemplar::from_record(&rec, sample_reason::SLOW),
            exemplar()
        );
        // Saturating: a pathological total cannot wrap the request span.
        let huge = AuditRecord {
            total_us: u64::MAX,
            ..rec
        };
        assert_eq!(huge.ladder()[0].dur_us, u64::MAX);
    }

    #[test]
    fn new_builds_the_record_of_a_served_verdict() {
        let response = WireResponse::ok(DetectionResponse {
            id: 9,
            detector: "sam".to_string(),
            score: 1.37,
            verdict: Verdict {
                anomalous: true,
                confirmed: true,
                lambda: 0.05,
                p_max: 0.83,
                delta: 0.4,
                suspect_link: Some((NodeId(3), NodeId(9))),
                isolate: vec![NodeId(3), NodeId(9)],
            },
            profile_cache_hit: true,
            timing: StageTiming::default(),
            explanation: None,
        });
        let rec = AuditRecord::new(TRACE, "uniform6x6/mr", Some(0), &response, timing(), 900);
        assert_eq!(rec, record());
        assert_eq!(rec.sample_reason(None), Some(sample_reason::VERDICT));
        // A quiet verdict is kept only for slowness, strictly above the
        // threshold.
        let quiet = AuditRecord {
            anomalous: Some(false),
            confirmed: Some(false),
            ..rec
        };
        assert_eq!(quiet.sample_reason(None), None);
        assert_eq!(quiet.sample_reason(Some(900)), None);
        assert_eq!(quiet.sample_reason(Some(899)), Some(sample_reason::SLOW));
    }

    #[test]
    fn new_builds_the_records_of_refusals() {
        let bare = |response: &WireResponse, shard| {
            AuditRecord::new(
                TRACE,
                "uniform6x6/mr",
                shard,
                response,
                StageTiming::default(),
                40,
            )
        };
        let shed = bare(&WireResponse::shed(9, 256), Some(1));
        assert_eq!(shed.status, wire::STATUS_SHED);
        assert_eq!(shed.shard, Some(1), "shed lines keep their routed shard");
        let error = bare(&WireResponse::error(9, "unknown deployment key"), None);
        assert_eq!(error.status, wire::STATUS_ERROR);
        assert_eq!(error.shard, None);
        let unknown = bare(&WireResponse::unknown_detector(9, "oracle"), Some(1));
        assert_eq!(unknown.status, wire::STATUS_UNKNOWN_DETECTOR);
        assert_eq!(unknown.detector.as_deref(), Some("oracle"));
        assert_eq!(unknown.shard, Some(1));
        for rec in [&shed, &error, &unknown] {
            assert_eq!(rec.kind, "audit");
            assert_eq!(rec.trace, "000000000000002a000000000000007b");
            assert_eq!(rec.id, 9);
            assert_eq!(rec.score, None);
            assert_eq!(rec.anomalous, None);
            assert_eq!(rec.confirmed, None);
            assert_eq!(rec.p_max, None);
            assert_eq!(rec.suspect_link, None);
            assert_eq!(rec.total_us, 40);
            assert_eq!(
                (rec.queue_wait_us, rec.compute_us, rec.serialize_us),
                (0, 0, 0)
            );
        }
        // Refusals are sampled whatever the slow threshold: a shed as
        // `shed`, every other refusal as `error`.
        for slow_us in [None, Some(0), Some(u64::MAX)] {
            assert_eq!(shed.sample_reason(slow_us), Some(sample_reason::SHED));
            assert_eq!(error.sample_reason(slow_us), Some(sample_reason::ERROR));
            assert_eq!(unknown.sample_reason(slow_us), Some(sample_reason::ERROR));
        }
    }

    #[test]
    fn audit_records_encode_verdict_evidence() {
        let rec = record();
        let line = rec.encode();
        let back: AuditRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
        assert!(line.contains("\"kind\":\"audit\""));
        assert!(line.contains("\"p_max\":0.83"));
        assert!(line.contains("\"detector\":\"sam\""));
        // Shed lines carry no verdict evidence but still encode.
        let shed = AuditRecord {
            status: "shed".to_string(),
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
