//! End-to-end sam-wiretrace integration: a traced soak produces
//! tail-sampled exemplars whose stage spans share one trace id, every
//! completed request lands in the verdict audit log (positive verdicts
//! carrying their `p_max` and suspect link), client-stamped trace ids
//! are honored and echoed, and an untraced gateway refuses
//! `{"cmd":"trace"}` with a typed error.

mod common;

use common::{traced_wire_request, wire_request, Client};
use sam_gateway::prelude::*;
use sam_serve::trace::{fetch_trace, sample_reason, AuditRecord};
use sam_serve::wire::{STATUS_ERROR, STATUS_OK};
use std::time::Duration;

/// A gateway with tracing on: slow threshold 0 tail-samples every served
/// request, seed fixed for reproducible minted ids.
fn traced_gateway(shards: usize, audit: Option<&std::path::Path>) -> Gateway {
    let cfg = GatewayConfig {
        shards,
        max_conns: 8,
        backlog: 16,
        trace: true,
        slow_request_us: Some(0),
        trace_seed: 7,
        trace_capacity: 256,
        audit_log: audit.map(|p| p.to_path_buf()),
        ..GatewayConfig::default()
    };
    Gateway::bind("127.0.0.1:0", cfg, common::synthetic_profiles()).expect("bind ephemeral port")
}

/// A scratch path under the target-adjacent temp dir, cleaned by the
/// caller.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sam-gw-{}-{name}", std::process::id()))
}

#[test]
fn traced_soak_yields_exemplars_with_one_trace_per_stage_ladder() {
    let audit_path = scratch("soak.audit.jsonl");
    let gateway = traced_gateway(2, Some(&audit_path));
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    for id in 0..30 {
        client.send(&wire_request(id)).unwrap();
        let resp = client.recv().expect("response");
        assert_eq!(resp.status, STATUS_OK);
        let trace = resp.trace.expect("traced gateways echo a trace id");
        assert_eq!(trace.len(), 32, "trace {trace} is 32 hex digits");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));
    }

    // The wire command answers the ring; slow threshold 0 kept all 30.
    let addr = gateway.local_addr().to_string();
    let exemplars = fetch_trace(&addr, None, Duration::from_secs(5)).expect("trace answered");
    assert_eq!(exemplars.len(), 30);
    for ex in &exemplars {
        assert_eq!(ex.status, STATUS_OK);
        assert_eq!(ex.trace.len(), 32);
        assert!(ex.shard.is_some(), "served requests carry their shard");
        // The acceptance criterion: one trace id over the whole stage
        // ladder. Spans live inside the exemplar, so they share its
        // trace by construction — assert the ladder itself is complete
        // and internally consistent on the monotonic stage clock.
        let names: Vec<&str> = ex.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["request", "queue_wait", "compute", "serialize"]);
        let request = &ex.spans[0];
        for stage in &ex.spans[1..] {
            assert!(
                stage.start_us + stage.dur_us <= request.start_us + request.dur_us,
                "stage {} [{}, +{}] escapes the request span",
                stage.name,
                stage.start_us,
                stage.dur_us
            );
        }
        let compute = &ex.spans[2];
        assert_eq!(
            compute.start_us, ex.spans[1].dur_us,
            "compute follows queue wait"
        );
    }
    // Minted ids are distinct per request.
    let mut traces: Vec<&str> = exemplars.iter().map(|e| e.trace.as_str()).collect();
    traces.sort_unstable();
    traces.dedup();
    assert_eq!(traces.len(), 30, "every request got its own trace id");

    // `limit` narrows to the newest exemplars.
    let last3 = fetch_trace(&addr, Some(3), Duration::from_secs(5)).expect("trace answered");
    assert_eq!(last3.len(), 3);
    assert_eq!(last3[2], exemplars[29]);

    // Stats totals expose the tracing counters.
    let report = gateway.stats(None);
    assert_eq!(report.totals.traced_requests, 30);
    assert_eq!(report.totals.trace_exemplars, 30);
    assert_eq!(report.totals.audit_records, 30);

    drop(client);
    gateway.drain();

    // The audit trail: one well-formed JSONL line per completed request,
    // verdict evidence on the positive ones.
    let text = std::fs::read_to_string(&audit_path).expect("audit log written");
    let records: Vec<AuditRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("audit line parses"))
        .collect();
    std::fs::remove_file(&audit_path).ok();
    assert_eq!(records.len(), 30);
    let mut positives = 0;
    for rec in &records {
        assert_eq!(rec.kind, "audit");
        assert_eq!(rec.status, STATUS_OK);
        assert_eq!(rec.trace.len(), 32);
        assert!(rec.p_max.is_some(), "ok lines carry the verdict evidence");
        if rec.confirmed == Some(true) {
            positives += 1;
            assert!(
                rec.p_max.unwrap() > 0.0,
                "confirmed verdict rests on a dominant route frequency"
            );
            assert!(
                rec.suspect_link.is_some(),
                "the synthetic wormhole (20-21 on every route) is localizable"
            );
        }
    }
    assert!(positives > 0, "the attacked third of the soak confirmed");
    // Audit lines and exemplars correlate by trace id.
    for ex in &exemplars {
        assert!(
            records.iter().any(|r| r.trace == ex.trace && r.id == ex.id),
            "exemplar {} has no audit line",
            ex.trace
        );
    }
}

#[test]
fn client_stamped_trace_ids_are_honored_and_malformed_ones_replaced() {
    let gateway = traced_gateway(1, None);
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    let stamped = "00000000000000420000000000000077";
    client.send(&traced_wire_request(1, stamped)).unwrap();
    let resp = client.recv().expect("response");
    assert_eq!(resp.trace.as_deref(), Some(stamped), "stamped id echoed");

    // A malformed stamp (wrong length / non-hex) is replaced, not
    // propagated — downstream correlation needs well-formed ids.
    client.send(&traced_wire_request(2, "not-a-trace")).unwrap();
    let resp = client.recv().expect("response");
    let minted = resp.trace.expect("trace still assigned");
    assert_ne!(minted, "not-a-trace");
    assert_eq!(minted.len(), 32);

    let exemplars = fetch_trace(
        &gateway.local_addr().to_string(),
        None,
        Duration::from_secs(5),
    )
    .expect("trace answered");
    assert!(exemplars.iter().any(|e| e.trace == stamped));
    assert!(exemplars.iter().all(|e| e.reason == sample_reason::SLOW));

    drop(client);
    gateway.drain();
}

#[test]
fn unknown_keys_are_audited_as_errors_with_their_trace() {
    let audit_path = scratch("err.audit.jsonl");
    let cfg = GatewayConfig {
        shards: 1,
        known_keys: Some(vec!["synthetic-a/mr".to_string()]),
        trace: true,
        trace_seed: 7,
        audit_log: Some(audit_path.clone()),
        ..GatewayConfig::default()
    };
    let gateway =
        Gateway::bind("127.0.0.1:0", cfg, common::synthetic_profiles()).expect("bind gateway");
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    // id 1 → synthetic-b, outside the known-keys list.
    client.send(&wire_request(1)).unwrap();
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_ERROR);
    let trace = resp.trace.expect("even refusals carry their trace");

    let exemplars = fetch_trace(
        &gateway.local_addr().to_string(),
        None,
        Duration::from_secs(5),
    )
    .expect("trace answered");
    assert_eq!(exemplars.len(), 1);
    assert_eq!(exemplars[0].reason, sample_reason::ERROR);
    assert_eq!(exemplars[0].trace, trace);
    assert_eq!(exemplars[0].shard, None, "never reached a shard");

    drop(client);
    gateway.drain();
    let text = std::fs::read_to_string(&audit_path).expect("audit log written");
    std::fs::remove_file(&audit_path).ok();
    let rec: AuditRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(rec.status, STATUS_ERROR);
    assert_eq!(rec.trace, trace);
    assert_eq!(rec.p_max, None, "no verdict evidence on refusals");
}

#[test]
fn untraced_gateways_refuse_the_trace_command_and_stamp_nothing() {
    let gateway = common::test_gateway(1);
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    client.send(&wire_request(1)).unwrap();
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, STATUS_OK);
    assert_eq!(resp.trace, None, "no trace ids without --trace");

    let err = fetch_trace(
        &gateway.local_addr().to_string(),
        None,
        Duration::from_secs(5),
    )
    .expect_err("trace must be refused");
    assert!(err.contains("tracing disabled"), "{err}");

    let report = gateway.stats(None);
    assert_eq!(report.totals.traced_requests, 0);

    drop(client);
    gateway.drain();
}

#[test]
fn unknown_detector_refusals_are_sampled_as_errors_with_their_shard() {
    let audit_path = scratch("oracle.audit.jsonl");
    let gateway = traced_gateway(2, Some(&audit_path));
    let mut client = Client::connect(gateway.local_addr()).unwrap();

    client
        .send(&common::detector_wire_request(1, "oracle"))
        .unwrap();
    let resp = client.recv().expect("response");
    assert_eq!(resp.status, sam_serve::wire::STATUS_UNKNOWN_DETECTOR);
    let trace = resp.trace.expect("even refusals carry their trace");

    // A refusal is an error whatever the slow threshold (0 here): never
    // dropped, never filed as `slow`.
    let exemplars = fetch_trace(
        &gateway.local_addr().to_string(),
        None,
        Duration::from_secs(5),
    )
    .expect("trace answered");
    assert_eq!(exemplars.len(), 1);
    let ex = &exemplars[0];
    assert_eq!(ex.reason, sample_reason::ERROR);
    assert_eq!(ex.status, sam_serve::wire::STATUS_UNKNOWN_DETECTOR);
    assert_eq!(ex.trace, trace);
    assert!(ex.shard.is_some(), "the request was routed before refusal");

    drop(client);
    gateway.drain();
    let text = std::fs::read_to_string(&audit_path).expect("audit log written");
    std::fs::remove_file(&audit_path).ok();
    let records: Vec<AuditRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("audit line parses"))
        .collect();
    assert_eq!(records.len(), 1);
    let rec = &records[0];
    assert_eq!(
        (
            &rec.trace,
            rec.id,
            &rec.key,
            rec.shard,
            &rec.status,
            rec.total_us
        ),
        (&ex.trace, ex.id, &ex.key, ex.shard, &ex.status, ex.total_us),
        "the audit line is the record the exemplar was cut from"
    );
    assert_eq!(rec.detector.as_deref(), Some("oracle"));
    assert_eq!(rec.p_max, None, "no verdict evidence on refusals");
}
