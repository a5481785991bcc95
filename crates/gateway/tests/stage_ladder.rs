//! The telemetry stage ladder: with global telemetry installed, every
//! served traced request leaves a `gateway.request` span whose children
//! are the worker's `serve.process` span and the synthesized
//! `gateway.queue_wait` / `gateway.serialize` spans, timed exactly as the
//! request's audit record says.
//!
//! One test in its own binary: it installs process-global telemetry,
//! which no other test may observe.

mod common;

use common::{wire_request, Client};
use sam_gateway::prelude::*;
use sam_serve::trace::AuditRecord;
use sam_serve::wire::STATUS_OK;
use sam_telemetry::{EventRecord, Telemetry};

#[test]
fn synthesized_stage_spans_match_the_audit_record() {
    let tel = Telemetry::new();
    sam_telemetry::install(tel.clone());
    let audit_path =
        std::env::temp_dir().join(format!("sam-gw-{}-ladder.audit.jsonl", std::process::id()));
    let cfg = GatewayConfig {
        shards: 2,
        max_conns: 4,
        backlog: 8,
        trace: true,
        trace_seed: 11,
        audit_log: Some(audit_path.clone()),
        ..GatewayConfig::default()
    };
    let gateway =
        Gateway::bind("127.0.0.1:0", cfg, common::synthetic_profiles()).expect("bind gateway");
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    for id in 0..12 {
        client.send(&wire_request(id)).unwrap();
        assert_eq!(client.recv().expect("response").status, STATUS_OK);
    }
    drop(client);
    gateway.drain();
    sam_telemetry::uninstall();
    let spans: Vec<EventRecord> = tel
        .drain()
        .into_iter()
        .filter(|r| r.kind == "span")
        .collect();

    let text = std::fs::read_to_string(&audit_path).expect("audit log written");
    std::fs::remove_file(&audit_path).ok();
    let records: Vec<AuditRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("audit line parses"))
        .collect();
    assert_eq!(records.len(), 12);
    for rec in records.iter().filter(|r| r.status == STATUS_OK) {
        let request = one(&spans, |s| {
            s.name == "gateway.request" && s.trace.as_deref() == Some(rec.trace.as_str())
        });
        let child = |name: &str| one(&spans, |s| s.name == name && s.parent == request.id);
        child("serve.process");
        let queue_wait = child("gateway.queue_wait");
        let serialize = child("gateway.serialize");
        assert_eq!(queue_wait.dur_us, rec.queue_wait_us, "trace {}", rec.trace);
        assert_eq!(serialize.dur_us, rec.serialize_us, "trace {}", rec.trace);
        // Both rungs hang off the acceptance instant, which precedes the
        // `gateway.request` span's own start: only their distance is
        // pinned.
        assert_eq!(
            serialize.start_us - queue_wait.start_us,
            rec.total_us,
            "trace {}",
            rec.trace
        );
        for stage in [queue_wait, serialize] {
            assert_eq!(stage.trace.as_deref(), Some(rec.trace.as_str()));
        }
    }
}

/// The one span matching `pred`.
fn one(spans: &[EventRecord], pred: impl Fn(&EventRecord) -> bool) -> &EventRecord {
    let mut hits = spans.iter().filter(|s| pred(s));
    let hit = hits.next().expect("span present");
    assert!(hits.next().is_none(), "span {} is unique", hit.name);
    hit
}
