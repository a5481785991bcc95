//! The old-shape corpus: one line for every shape a wire or record type
//! has ever been written in, each decoded by this build and compared with
//! a fully spelled-out value.
//!
//! A field added to `WireRequest`, `WireResponse`, `AuditRecord`,
//! `StatsTotals`, `Explanation` or `EventRecord` is an `Option` or carries
//! `#[serde(default)]`, so lines written before it existed still decode.
//! This table is the proof: when a type gains a field, its previous line
//! shape goes in here. Types without `PartialEq` are compared through
//! their current encoding, which spells out every field.

use sam::{Explanation, HopProvenance, RouteExplanation};
use sam_serve::stats::StatsTotals;
use sam_serve::trace::AuditRecord;
use sam_serve::wire::{decode_line, WireLine, WireRequest, WireResponse};
use sam_telemetry::EventRecord;
use serde::Deserialize;

/// What one historical line must decode to.
enum Expect {
    Request(WireRequest),
    Audit(AuditRecord),
    Explanation(Box<Explanation>),
    Event(EventRecord),
    /// A `WireResponse`, as this build encodes the decoded value.
    Response(&'static str),
    /// A `StatsTotals`, as this build encodes the decoded value.
    Totals(&'static str),
}

/// One historical line shape.
struct Shape {
    /// The type, the shape's vintage, and the variant shown.
    name: &'static str,
    line: &'static str,
    expect: Expect,
}

fn request(id: u64, topology: &str, protocol: &str, routes: Vec<Vec<u32>>) -> WireRequest {
    WireRequest {
        id,
        topology: topology.to_string(),
        protocol: protocol.to_string(),
        routes,
        probe_ack_ratio: None,
        detector: None,
        timings: false,
        trace: None,
    }
}

fn corpus() -> Vec<Shape> {
    vec![
        // ---- WireRequest ------------------------------------------------
        Shape {
            name: "WireRequest before timings (gateway release)",
            line: r#"{"id":7,"topology":"uniform6x6","protocol":"mr","routes":[[0,3,9,11],[0,4,8,11]],"probe_ack_ratio":null}"#,
            expect: Expect::Request(request(
                7,
                "uniform6x6",
                "mr",
                vec![vec![0, 3, 9, 11], vec![0, 4, 8, 11]],
            )),
        },
        Shape {
            name: "WireRequest before trace (live-stats release)",
            line: r#"{"id":8,"topology":"cluster1","protocol":"dsr","routes":[[0,1,2]],"probe_ack_ratio":0.25,"timings":true}"#,
            expect: Expect::Request(WireRequest {
                probe_ack_ratio: Some(0.25),
                timings: true,
                ..request(8, "cluster1", "dsr", vec![vec![0, 1, 2]])
            }),
        },
        Shape {
            name: "WireRequest before detector (tracing release)",
            line: r#"{"id":9,"topology":"t","protocol":"p","routes":[[0,1,2]],"probe_ack_ratio":null,"timings":false,"trace":"000000000000002a000000000000007b"}"#,
            expect: Expect::Request(WireRequest {
                trace: Some("000000000000002a000000000000007b".to_string()),
                ..request(9, "t", "p", vec![vec![0, 1, 2]])
            }),
        },
        Shape {
            name: "WireRequest without probe_ack_ratio (hand-written client)",
            line: r#"{"id":10,"topology":"t","protocol":"p","routes":[[0,1,2]]}"#,
            expect: Expect::Request(request(10, "t", "p", vec![vec![0, 1, 2]])),
        },
        // ---- WireResponse -----------------------------------------------
        Shape {
            name: "WireResponse as the gateway release wrote it: ok",
            line: concat!(
                r#"{"id":7,"status":"ok","verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"error":null}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":7,"status":"ok","detector":null,"score":null,"#,
                r#""verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"timings":null,"stats":null,"#,
                r#""stats_text":null,"trace":null,"exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the gateway release wrote it: shed",
            line: r#"{"id":8,"status":"shed","verdict":null,"profile_cache_hit":null,"explanation":null,"queue_depth":256,"error":null}"#,
            expect: Expect::Response(concat!(
                r#"{"id":8,"status":"shed","detector":null,"score":null,"verdict":null,"#,
                r#""profile_cache_hit":null,"explanation":null,"queue_depth":256,"timings":null,"stats":null,"#,
                r#""stats_text":null,"trace":null,"exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the gateway release wrote it: ok with a pre-detector explanation",
            line: concat!(
                r#"{"id":3,"status":"ok","verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":false,"explanation":{"kind":"explanation","suspect_link":[20,21],"#,
                r#""suspect_count":6,"total_links":30,"p_max":0.2,"delta":0.1,"z_p_max":4.5,"z_delta":3.25,"#,
                r#""lambda":0.97,"anomalous":true,"tunnel_traversals":0,"routes":[]},"queue_depth":null,"error":null}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":3,"status":"ok","detector":null,"score":null,"#,
                r#""verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":false,"explanation":{"kind":"explanation","detector":"sam","score":0,"#,
                r#""evidence":null,"suspect_link":[20,21],"suspect_count":6,"total_links":30,"p_max":0.2,"#,
                r#""delta":0.1,"z_p_max":4.5,"z_delta":3.25,"lambda":0.97,"anomalous":true,"#,
                r#""tunnel_traversals":0,"routes":[]},"queue_depth":null,"timings":null,"stats":null,"#,
                r#""stats_text":null,"trace":null,"exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the live-stats release wrote it: ok with timings",
            line: concat!(
                r#"{"id":7,"status":"ok","verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"#,
                r#""timings":{"queue_wait_us":120,"compute_us":950,"serialize_us":8},"stats":null,"#,
                r#""stats_text":null,"error":null}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":7,"status":"ok","detector":null,"score":null,"#,
                r#""verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"#,
                r#""timings":{"queue_wait_us":120,"compute_us":950,"serialize_us":8},"stats":null,"#,
                r#""stats_text":null,"trace":null,"exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the live-stats release wrote it: stats reply with pre-tracing totals",
            line: concat!(
                r#"{"id":0,"status":"ok","verdict":null,"profile_cache_hit":null,"explanation":null,"#,
                r#""queue_depth":null,"timings":null,"stats":{"kind":"stats","uptime_s":12.5,"draining":false,"#,
                r#""slo_p99_us":null,"shards":[{"shard":0,"queue_depth":0,"requests":5}],"#,
                r#""windows":[{"window_s":10,"span_s":10,"completed":5,"throughput_rps":0.5,"shed":0,"#,
                r#""shed_rate":0,"cache_hit_ratio":0.8,"p50_us":128,"p90_us":256,"p99_us":512,"#,
                r#""queue_wait_p99_us":16,"compute_p99_us":256,"serialize_p99_us":8,"slo_burn":0}],"#,
                r#""totals":{"requests":5,"request_shed":0,"conns_accepted":1,"conn_shed":0,"#,
                r#""active_conns":1,"cache_hits":4,"cache_misses":1,"slow_requests":0,"#,
                r#""slo_violations":0,"p99_us":512}},"stats_text":null,"error":null}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":0,"status":"ok","detector":null,"score":null,"verdict":null,"#,
                r#""profile_cache_hit":null,"explanation":null,"queue_depth":null,"timings":null,"#,
                r#""stats":{"kind":"stats","uptime_s":12.5,"draining":false,"slo_p99_us":null,"#,
                r#""shards":[{"shard":0,"queue_depth":0,"requests":5}],"#,
                r#""windows":[{"window_s":10,"span_s":10,"completed":5,"throughput_rps":0.5,"shed":0,"#,
                r#""shed_rate":0,"cache_hit_ratio":0.8,"p50_us":128,"p90_us":256,"p99_us":512,"#,
                r#""queue_wait_p99_us":16,"compute_p99_us":256,"serialize_p99_us":8,"slo_burn":0}],"#,
                r#""totals":{"requests":5,"request_shed":0,"refused":0,"failed":0,"conns_accepted":1,"#,
                r#""conn_shed":0,"active_conns":1,"cache_hits":4,"cache_misses":1,"slow_requests":0,"#,
                r#""slo_violations":0,"p99_us":512,"traced_requests":0,"trace_exemplars":0,"#,
                r#""audit_records":0}},"stats_text":null,"trace":null,"exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the tracing release wrote it: traced ok",
            line: concat!(
                r#"{"id":7,"status":"ok","verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"timings":null,"#,
                r#""stats":null,"stats_text":null,"trace":"000000000000002a000000000000007b","#,
                r#""exemplars":null,"error":null}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":7,"status":"ok","detector":null,"score":null,"#,
                r#""verdict":{"anomalous":true,"confirmed":true,"lambda":0.93,"p_max":0.4,"delta":0.25,"suspect_link":[20,21],"isolate":[20,21]},"#,
                r#""profile_cache_hit":true,"explanation":null,"queue_depth":null,"timings":null,"#,
                r#""stats":null,"stats_text":null,"trace":"000000000000002a000000000000007b","#,
                r#""exemplars":null,"error":null}"#
            )),
        },
        Shape {
            name: "WireResponse as the tracing release wrote it: error",
            line: concat!(
                r#"{"id":0,"status":"error","verdict":null,"profile_cache_hit":null,"explanation":null,"#,
                r#""queue_depth":null,"timings":null,"stats":null,"stats_text":null,"trace":null,"#,
                r#""exemplars":[],"error":"bad JSON: trailing characters"}"#
            ),
            expect: Expect::Response(concat!(
                r#"{"id":0,"status":"error","detector":null,"score":null,"verdict":null,"#,
                r#""profile_cache_hit":null,"explanation":null,"queue_depth":null,"timings":null,"#,
                r#""stats":null,"stats_text":null,"trace":null,"exemplars":[],"#,
                r#""error":"bad JSON: trailing characters"}"#
            )),
        },
        // ---- AuditRecord ------------------------------------------------
        Shape {
            name: "AuditRecord before detector/score (tracing release)",
            line: concat!(
                r#"{"kind":"audit","trace":"000000000000002a000000000000007b","id":9,"#,
                r#""key":"uniform6x6/mr","shard":0,"status":"ok","anomalous":true,"confirmed":true,"#,
                r#""p_max":0.83,"suspect_link":[3,9],"total_us":900,"queue_wait_us":100,"#,
                r#""compute_us":750,"serialize_us":10}"#
            ),
            expect: Expect::Audit(AuditRecord {
                kind: "audit".to_string(),
                trace: "000000000000002a000000000000007b".to_string(),
                id: 9,
                key: "uniform6x6/mr".to_string(),
                shard: Some(0),
                status: "ok".to_string(),
                detector: None,
                score: None,
                anomalous: Some(true),
                confirmed: Some(true),
                p_max: Some(0.83),
                suspect_link: Some((3, 9)),
                total_us: 900,
                queue_wait_us: 100,
                compute_us: 750,
                serialize_us: 10,
            }),
        },
        // ---- StatsTotals ------------------------------------------------
        Shape {
            name: "StatsTotals before the tracing totals (live-stats release)",
            line: concat!(
                r#"{"requests":5,"request_shed":1,"conns_accepted":2,"conn_shed":0,"active_conns":1,"#,
                r#""cache_hits":4,"cache_misses":1,"slow_requests":0,"slo_violations":0,"p99_us":900}"#
            ),
            expect: Expect::Totals(concat!(
                r#"{"requests":5,"request_shed":1,"refused":0,"failed":0,"conns_accepted":2,"#,
                r#""conn_shed":0,"active_conns":1,"cache_hits":4,"cache_misses":1,"slow_requests":0,"#,
                r#""slo_violations":0,"p99_us":900,"traced_requests":0,"trace_exemplars":0,"#,
                r#""audit_records":0}"#
            )),
        },
        Shape {
            name: "StatsTotals before refused and failed (tracing release)",
            line: concat!(
                r#"{"requests":8,"request_shed":1,"conns_accepted":2,"conn_shed":0,"active_conns":1,"#,
                r#""cache_hits":5,"cache_misses":3,"slow_requests":1,"slo_violations":0,"p99_us":900,"#,
                r#""traced_requests":8,"trace_exemplars":2,"audit_records":9}"#
            ),
            expect: Expect::Totals(concat!(
                r#"{"requests":8,"request_shed":1,"refused":0,"failed":0,"conns_accepted":2,"#,
                r#""conn_shed":0,"active_conns":1,"cache_hits":5,"cache_misses":3,"slow_requests":1,"#,
                r#""slo_violations":0,"p99_us":900,"traced_requests":8,"trace_exemplars":2,"#,
                r#""audit_records":9}"#
            )),
        },
        // ---- Explanation ------------------------------------------------
        Shape {
            name: "Explanation before the detector redesign (flight-recorder release)",
            line: concat!(
                r#"{"kind":"explanation","suspect_link":[7,8],"suspect_count":3,"total_links":14,"#,
                r#""p_max":0.214,"delta":0.5,"z_p_max":9.1,"z_delta":8.2,"lambda":0.001,"anomalous":true,"#,
                r#""tunnel_traversals":1,"routes":[{"nodes":[0,7,8,11],"hops":["#,
                r#"{"from":0,"to":7,"tunneled":false,"event":12,"cause":3},"#,
                r#"{"from":7,"to":8,"tunneled":true,"event":19,"cause":12},"#,
                r#"{"from":8,"to":11,"tunneled":false,"event":null,"cause":null}],"#,
                r#""tunnel_hops":1,"lineage_depth":4,"p_max_contribution":0.05,"delta_contribution":0.125}]}"#
            ),
            expect: Expect::Explanation(Box::new(Explanation {
                kind: "explanation".to_string(),
                detector: "sam".to_string(),
                score: 0.0,
                evidence: None,
                suspect_link: Some((7, 8)),
                suspect_count: 3,
                total_links: 14,
                p_max: 0.214,
                delta: 0.5,
                z_p_max: 9.1,
                z_delta: 8.2,
                lambda: 0.001,
                anomalous: true,
                tunnel_traversals: 1,
                routes: vec![RouteExplanation {
                    nodes: vec![0, 7, 8, 11],
                    hops: vec![
                        HopProvenance {
                            from: 0,
                            to: 7,
                            tunneled: false,
                            event: Some(12),
                            cause: Some(3),
                        },
                        HopProvenance {
                            from: 7,
                            to: 8,
                            tunneled: true,
                            event: Some(19),
                            cause: Some(12),
                        },
                        HopProvenance {
                            from: 8,
                            to: 11,
                            tunneled: false,
                            event: None,
                            cause: None,
                        },
                    ],
                    tunnel_hops: 1,
                    lineage_depth: 4,
                    p_max_contribution: 0.05,
                    delta_contribution: 0.125,
                }],
            })),
        },
        // ---- EventRecord ------------------------------------------------
        Shape {
            name: "EventRecord before trace (telemetry release)",
            line: r#"{"kind":"span","id":3,"parent":0,"name":"old","start_us":5,"dur_us":9,"fields":[["k","v"]]}"#,
            expect: Expect::Event(EventRecord {
                kind: "span".to_string(),
                id: 3,
                parent: 0,
                name: "old".to_string(),
                start_us: 5,
                dur_us: 9,
                trace: None,
                fields: vec![("k".to_string(), "v".to_string())],
            }),
        },
    ]
}

fn decode<T: Deserialize>(name: &str, line: &str) -> T {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_historical_line_shape_decodes_to_its_spelled_out_value() {
    for Shape { name, line, expect } in corpus() {
        match expect {
            Expect::Request(want) => match decode_line(line.as_bytes()) {
                Ok(WireLine::Request(got)) => assert_eq!(*got, want, "{name}"),
                other => panic!("{name}: decoded as {other:?}"),
            },
            Expect::Response(want) => {
                let got =
                    WireResponse::decode(line.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(got.encode(), want, "{name}");
            }
            Expect::Totals(want) => {
                let got = serde_json::to_string(&decode::<StatsTotals>(name, line));
                assert_eq!(got.expect("encodes"), want, "{name}");
            }
            Expect::Audit(want) => assert_eq!(decode::<AuditRecord>(name, line), want, "{name}"),
            Expect::Explanation(want) => {
                assert_eq!(decode::<Explanation>(name, line), *want, "{name}")
            }
            Expect::Event(want) => assert_eq!(decode::<EventRecord>(name, line), want, "{name}"),
        }
    }
}
