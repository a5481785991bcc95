//! The loadgen run summary — one serde model shared by stdout, `--json`,
//! and anything downstream that parses it. Every figure in it is the
//! client's own: counted from the responses it read, timed on its clock.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a soak's transport failures happened. The lumped
/// [`LoadgenSummary::transport_errors`] stays (scripts assert on it);
/// this breakdown says *which* layer lost the work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportErrors {
    /// Connects that never succeeded (every request planned for the
    /// connection is charged here).
    pub connect: u64,
    /// Socket losses mid-soak: read timeouts, EOF with responses
    /// outstanding, and write failures on a dead socket.
    pub read: u64,
    /// Response lines that arrived but would not parse.
    pub decode: u64,
    /// Protocol violations: unsolicited or reordered response lines. A
    /// line that answers its request with a refusal is
    /// [`LoadgenSummary::refused`], not a violation.
    pub protocol: u64,
}

impl TransportErrors {
    /// Sum across every category — must equal the lumped counter.
    pub fn total(&self) -> u64 {
        self.connect + self.read + self.decode + self.protocol
    }
}

/// The slowest completed request of a soak — the first place to
/// look after a bad p99, so the summary carries its trace id for
/// `{"cmd":"trace"}` / audit-log lookup.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlowestRequest {
    /// Correlation id of the request.
    pub id: u64,
    /// Round-trip latency as the client measured it, microseconds.
    pub latency_us: u64,
    /// The trace id the client stamped on it, 32 hex digits.
    pub trace: Option<String>,
}

/// The final summary of one loadgen run, tallied from the responses
/// the client read. Stdout and `--json` render this same struct, so the
/// two outputs cannot disagree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadgenSummary {
    /// Line discriminator, `"loadgen_summary"`.
    pub kind: String,
    /// Requests the generator attempted to submit.
    pub requests: u64,
    /// Responses received.
    pub completed: u64,
    /// Requests the gateway shed (protocol `"shed"` responses).
    /// Deliberate overload behaviour — never lumped in with transport
    /// failures.
    pub shed: u64,
    /// Requests the gateway answered with any other status: an
    /// `"unknown_detector"` line, or an `"error"` line for a request it
    /// could not decode, whose deployment key it did not know, or whose
    /// profile source or detector failed. Answered, so never charged to
    /// the transport. The gateway counts these requests as its totals'
    /// `refused` plus `failed`, so this equals
    /// `gateway_stats.totals.refused` only while nothing fails.
    pub refused: u64,
    /// Connection-level failures: connects that never succeeded, sockets
    /// that died mid-soak, unparseable response lines, and requests whose
    /// response never arrived. Kept separate from `shed` so soak numbers
    /// distinguish "the service protected itself" from "the transport
    /// lost work".
    pub transport_errors: u64,
    /// `transport_errors` split by failure site;
    /// `transport_error_breakdown.total() == transport_errors` always.
    pub transport_error_breakdown: TransportErrors,
    /// The slowest completed request and its trace id (`None` when
    /// nothing completed).
    pub slowest: Option<SlowestRequest>,
    /// Accepted requests whose response never came back (always 0 unless
    /// the response accounting is broken).
    pub dropped_responses: u64,
    /// Responses with a confirmed-attack verdict.
    pub confirmed: u64,
    /// Responses carrying a verdict explanation (a gateway started with
    /// `--explain`).
    pub explained: u64,
    /// Wall time of the soak, seconds.
    pub wall_s: f64,
    /// Median round-trip latency of completed requests, microseconds: the
    /// upper edge of its power-of-two bucket (0 with no samples).
    pub p50_us: u64,
    /// 90th-percentile round-trip latency, microseconds (bucket edge).
    pub p90_us: u64,
    /// 99th-percentile round-trip latency, microseconds (bucket edge).
    pub p99_us: u64,
    /// Responses served from the gateway's profile cache
    /// (`profile_cache_hit: true`).
    pub cache_hits: u64,
    /// Responses that trained their profile (`profile_cache_hit:
    /// false`): with single-flight training, one per training.
    pub cache_misses: u64,
    /// The gateway's own windowed stats report, fetched with a final
    /// `{"cmd":"stats"}` after the soak (before any drain). `None` when
    /// the fetch failed.
    pub gateway_stats: Option<crate::stats::StatsReport>,
}

impl LoadgenSummary {
    /// The summary as pretty JSON (the `--json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("loadgen summary serializes")
    }
}

impl fmt::Display for LoadgenSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loadgen: {} requests in {:.2}s — {:.0} req/s ({} completed, {} shed, \
             {} refused, {} transport errors, {} dropped responses, {} confirmed attacks)",
            self.requests,
            self.wall_s,
            self.completed as f64 / self.wall_s,
            self.completed,
            self.shed,
            self.refused,
            self.transport_errors,
            self.dropped_responses,
            self.confirmed
        )?;
        if self.explained > 0 {
            writeln!(f, "explained responses: {}", self.explained)?;
        }
        if self.transport_errors > 0 {
            let b = &self.transport_error_breakdown;
            writeln!(
                f,
                "transport errors: {} connect, {} read, {} decode, {} protocol",
                b.connect, b.read, b.decode, b.protocol
            )?;
        }
        if let Some(s) = &self.slowest {
            writeln!(
                f,
                "slowest request: id {} at {}us{}",
                s.id,
                s.latency_us,
                match &s.trace {
                    Some(t) => format!(" (trace {t})"),
                    None => String::new(),
                }
            )?;
        }
        writeln!(
            f,
            "profile cache: {} hits / {} misses",
            self.cache_hits, self.cache_misses
        )?;
        if let Some(gs) = &self.gateway_stats {
            if let Some(w) = gs.window(10).or_else(|| gs.windows.first()) {
                writeln!(
                    f,
                    "gateway ({}s window): {:.0} rps, p99 {}us, shed {:.1}%, {} shards",
                    w.window_s,
                    w.throughput_rps,
                    w.p99_us,
                    100.0 * w.shed_rate,
                    gs.shards.len()
                )?;
            }
        }
        write!(
            f,
            "latency: p50 < {}us, p90 < {}us, p99 < {}us",
            self.p50_us, self.p90_us, self.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadgenSummary {
        LoadgenSummary {
            kind: "loadgen_summary".to_string(),
            requests: 100,
            completed: 95,
            shed: 2,
            refused: 2,
            transport_errors: 1,
            transport_error_breakdown: TransportErrors {
                decode: 1,
                ..TransportErrors::default()
            },
            slowest: Some(SlowestRequest {
                id: 41,
                latency_us: 900,
                trace: Some("000000000000002a000000000000007b".to_string()),
            }),
            dropped_responses: 0,
            confirmed: 30,
            explained: 98,
            wall_s: 1.25,
            p50_us: 128,
            p90_us: 512,
            p99_us: 1024,
            cache_hits: 7,
            cache_misses: 3,
            gateway_stats: None,
        }
    }

    #[test]
    fn summary_round_trips() {
        let json = sample().to_json();
        let back: LoadgenSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests, 100);
        assert_eq!(back.wall_s, 1.25);
        assert_eq!(back.p99_us, 1024);
        assert_eq!(back.cache_hits, 7);
        assert_eq!(back.cache_misses, 3);
        assert_eq!(back.shed, 2, "service shed kept separate");
        assert_eq!(back.refused, 2, "refusals kept separate");
        assert_eq!(back.transport_errors, 1, "transport failures kept separate");
        assert_eq!(back.transport_error_breakdown.decode, 1);
        assert_eq!(
            back.transport_error_breakdown.total(),
            back.transport_errors,
            "breakdown sums to the lumped counter"
        );
        assert_eq!(back.slowest.unwrap().id, 41);
    }

    #[test]
    fn display_reports_throughput_and_cache() {
        let text = sample().to_string();
        assert!(text.contains("100 requests"), "{text}");
        assert!(text.contains("95 completed, 2 shed, 2 refused"), "{text}");
        assert!(text.contains("7 hits / 3 misses"), "{text}");
        assert!(
            text.contains("latency: p50 < 128us, p90 < 512us, p99 < 1024us"),
            "{text}"
        );
        assert!(text.contains("explained responses: 98"), "{text}");
        assert!(
            text.contains("transport errors: 0 connect, 0 read, 1 decode, 0 protocol"),
            "{text}"
        );
        assert!(
            text.contains(
                "slowest request: id 41 at 900us (trace 000000000000002a000000000000007b)"
            ),
            "{text}"
        );
    }
}
