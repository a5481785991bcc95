//! # sam-scope — live operational observability for the serving tier
//!
//! The serving tier already *measures* everything (the shared
//! `sam-telemetry` registry, the gateway's window ring); this crate is
//! the operator-facing end: a polling client over the gateway's
//! `{"cmd":"stats"}` wire command and the `sam-top` plain-text dashboard
//! that renders it.
//!
//! The crate is deliberately thin — all protocol and report types live
//! in [`sam_serve::stats`] so the dashboard, `loadgen --remote`, and any
//! script speak the same schema. What lives here is presentation: frame
//! layout, column formatting, and a dependency-free Unicode sparkline of
//! recent throughput.
//!
//! ```
//! use sam_scope::Dashboard;
//! # let report = sam_scope::doc_sample_report();
//! let mut dash = Dashboard::new("127.0.0.1:7700");
//! let frame = dash.render(&report);
//! assert!(frame.contains("sam-top"));
//! assert!(frame.contains("shards"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sam_serve::stats::StatsReport;
use std::fmt::Write as _;

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How many throughput samples the dashboard's sparkline remembers.
pub const SPARK_HISTORY: usize = 32;

/// Scale a series to a fixed-height Unicode sparkline. Empty input →
/// empty string; a flat series renders at full height (it is its own
/// maximum).
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARKS[0]
            } else {
                let idx = ((v / max) * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// The `sam-top` frame renderer. Holds the rolling throughput history
/// between polls; everything else is recomputed from each report.
pub struct Dashboard {
    addr: String,
    history: Vec<f64>,
}

impl Dashboard {
    /// A dashboard for the gateway at `addr` (display only — the caller
    /// does the fetching).
    pub fn new(addr: impl Into<String>) -> Self {
        Dashboard {
            addr: addr.into(),
            history: Vec::new(),
        }
    }

    /// Render one frame from a freshly fetched report, folding its
    /// shortest-window throughput into the sparkline history.
    pub fn render(&mut self, report: &StatsReport) -> String {
        let spark_window = report.windows.first();
        if let Some(w) = spark_window {
            self.history.push(w.throughput_rps);
            if self.history.len() > SPARK_HISTORY {
                self.history.remove(0);
            }
        }
        let mut out = String::new();
        let t = &report.totals;
        let _ = writeln!(
            out,
            "sam-top — {}   up {:.1}s   {}",
            self.addr,
            report.uptime_s,
            if report.draining {
                "DRAINING"
            } else {
                "serving"
            }
        );
        let cache_total = t.cache_hits + t.cache_misses;
        let cache_pct = if cache_total == 0 {
            0.0
        } else {
            100.0 * t.cache_hits as f64 / cache_total as f64
        };
        let _ = writeln!(
            out,
            "requests {} served, {} shed | conns {} active / {} accepted ({} shed) | cache {:.1}% hit",
            t.requests, t.request_shed, t.active_conns, t.conns_accepted, t.conn_shed, cache_pct
        );
        if let Some(slo) = report.slo_p99_us {
            let _ = writeln!(
                out,
                "slo p99 <= {}us: {} violations total, {} slow-logged",
                slo, t.slo_violations, t.slow_requests
            );
        }
        if t.traced_requests > 0 {
            let _ = writeln!(
                out,
                "tracing: {} traced, {} exemplars kept, {} audit lines",
                t.traced_requests, t.trace_exemplars, t.audit_records
            );
        }
        let _ = writeln!(
            out,
            "{:<8}{:>10}{:>9}{:>9}{:>9}{:>8}{:>8}{:>9}",
            "window", "rps", "p50us", "p90us", "p99us", "shed%", "cache%", "slo-burn"
        );
        for w in &report.windows {
            let _ = writeln!(
                out,
                "{:<8}{:>10.1}{:>9}{:>9}{:>9}{:>8.1}{:>8.1}{:>9.3}",
                format!("{}s", w.window_s),
                w.throughput_rps,
                w.p50_us,
                w.p90_us,
                w.p99_us,
                100.0 * w.shed_rate,
                100.0 * w.cache_hit_ratio,
                w.slo_burn,
            );
        }
        if let Some(w) = report
            .windows
            .iter()
            .find(|w| w.window_s >= 10)
            .or(spark_window)
        {
            let _ = writeln!(
                out,
                "stages p99 ({}s): queue {}us | compute {}us | serialize {}us",
                w.window_s, w.queue_wait_p99_us, w.compute_p99_us, w.serialize_p99_us
            );
        }
        let mut shard_line = String::from("shards:");
        for s in &report.shards {
            let _ = write!(
                shard_line,
                " {}:[q {}, {} req]",
                s.shard, s.queue_depth, s.requests
            );
        }
        let _ = writeln!(
            out,
            "{}  imbalance {:.2}",
            shard_line,
            report.shard_imbalance()
        );
        if let Some(w) = spark_window {
            let _ = writeln!(
                out,
                "rps ({}s): {} {:.1}",
                w.window_s,
                sparkline(&self.history),
                w.throughput_rps
            );
        }
        out
    }
}

/// A small synthetic report for doc examples and rendering tests.
pub fn doc_sample_report() -> StatsReport {
    use sam_serve::stats::{ShardStats, StatsTotals, WindowStats};
    StatsReport {
        kind: "stats".to_string(),
        uptime_s: 12.5,
        draining: false,
        slo_p99_us: Some(5_000),
        shards: vec![
            ShardStats {
                shard: 0,
                queue_depth: 2,
                requests: 610,
            },
            ShardStats {
                shard: 1,
                queue_depth: 0,
                requests: 590,
            },
        ],
        windows: vec![WindowStats {
            window_s: 10,
            span_s: 10.0,
            completed: 1200,
            throughput_rps: 120.0,
            shed: 12,
            shed_rate: 0.0099,
            cache_hit_ratio: 0.991,
            p50_us: 210,
            p90_us: 480,
            p99_us: 1900,
            queue_wait_p99_us: 120,
            compute_p99_us: 900,
            serialize_p99_us: 8,
            slo_burn: 0.002,
        }],
        totals: StatsTotals {
            requests: 1200,
            request_shed: 12,
            refused: 3,
            failed: 0,
            conns_accepted: 8,
            conn_shed: 0,
            active_conns: 4,
            cache_hits: 1150,
            cache_misses: 10,
            slow_requests: 3,
            slo_violations: 2,
            p99_us: 2048,
            traced_requests: 1200,
            trace_exemplars: 9,
            audit_records: 1200,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_its_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 50.0, 100.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert!(chars[1] > chars[0] && chars[1] < chars[2]);
        // A flat nonzero series is its own maximum.
        assert_eq!(sparkline(&[7.0, 7.0]), "██");
    }

    #[test]
    fn frame_carries_every_section() {
        let mut dash = Dashboard::new("10.0.0.1:7700");
        let frame = dash.render(&doc_sample_report());
        assert!(frame.contains("sam-top — 10.0.0.1:7700"));
        assert!(frame.contains("serving"));
        assert!(frame.contains("requests 1200 served, 12 shed"));
        assert!(frame.contains("cache 99.1% hit"));
        assert!(frame.contains("slo p99 <= 5000us: 2 violations"));
        assert!(frame.contains("tracing: 1200 traced, 9 exemplars kept, 1200 audit lines"));
        assert!(frame.contains("10s"));
        assert!(frame.contains("stages p99 (10s): queue 120us | compute 900us | serialize 8us"));
        assert!(frame.contains("shards: 0:[q 2, 610 req] 1:[q 0, 590 req]"));
        assert!(frame.contains("rps (10s):"));
    }

    #[test]
    fn sparkline_history_is_bounded() {
        let mut dash = Dashboard::new("x");
        let report = doc_sample_report();
        for _ in 0..(SPARK_HISTORY + 10) {
            dash.render(&report);
        }
        assert_eq!(dash.history.len(), SPARK_HISTORY);
    }

    #[test]
    fn draining_gateways_are_flagged() {
        let mut report = doc_sample_report();
        report.draining = true;
        report.slo_p99_us = None;
        let frame = Dashboard::new("x").render(&report);
        assert!(frame.contains("DRAINING"));
        assert!(!frame.contains("slo p99"), "no SLO line without an SLO");
    }
}
