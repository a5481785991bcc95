//! What one benchmark run reports: metrics, checks, and failure counts.
//!
//! The last stdout line is the machine-readable result; everything else
//! (sample counts, per-cell diagnostics, reconciliation, dominant layer)
//! goes to stderr as the human-readable report.

use crate::trace::{self, SpanLog};
use std::time::Instant;

/// Directory (relative to the working directory) for run artefacts:
/// span logs and the evidence workload's audit log.
pub const OUT_DIR: &str = ".perfbench";

/// The accumulating result of one run.
pub struct Outcome {
    started: Instant,
    /// Set-up seconds: process start to the first timed operation.
    pub setup_s: Option<f64>,
    /// Measured-phase seconds.
    measured_s: Option<f64>,
    /// Operations attempted (trials or requests, warm-up included).
    pub attempted: u64,
    /// Operations that failed (see the workload docs for what counts).
    pub failed: u64,
    correct: bool,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    /// A fresh outcome timing from `started` (the process start).
    pub fn new(started: Instant) -> Self {
        Outcome {
            started,
            setup_s: None,
            measured_s: None,
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Mark the end of set-up (the first timed operation starts now).
    pub fn setup_done(&mut self) {
        self.setup_s = Some(self.started.elapsed().as_secs_f64());
    }

    /// Mark the end of the measured phases.
    pub fn measured_done(&mut self) {
        let setup = self.setup_s.unwrap_or(0.0);
        self.measured_s = Some(self.started.elapsed().as_secs_f64() - setup);
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.check(false, format!("metric {name} is not finite ({value})"));
        }
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Order the metrics as `expected` lists them, adding 0 for any a
    /// workload did not exercise; a metric outside the list, or with
    /// another unit, is a bug in the benchmark.
    pub fn complete(&mut self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            match self.metrics.iter().position(|m| m.0 == *name) {
                Some(i) => {
                    let m = self.metrics.swap_remove(i);
                    if m.2 != *unit {
                        return Err(format!("metric {name} in {} instead of {unit}", m.2));
                    }
                    ordered.push(m);
                }
                None => ordered.push((name.to_string(), 0.0, unit.to_string())),
            }
        }
        if let Some(extra) = self.metrics.first() {
            return Err(format!("metric {} is not in the benchmark's list", extra.0));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// A human-readable report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A correctness check: a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.correct && self.failed == 0
    }

    /// Name the layer with the largest summed self time among `names`
    /// and compare it with the predicted one.
    pub fn layer_shares(&mut self, logs: &[SpanLog], names: &[&str], predicted: &str) {
        let totals: Vec<(String, f64)> = names
            .iter()
            .map(|n| {
                let s: f64 = trace::self_us(logs, n).iter().sum::<f64>() / 1e6;
                (n.to_string(), s)
            })
            .collect();
        self.dominant(&totals, &[predicted]);
    }

    /// Report each busy layer's share of `totals` (seconds) and whether
    /// the largest is one of the predicted ones.
    pub fn dominant(&mut self, totals: &[(String, f64)], predicted: &[&str]) {
        let sum: f64 = totals.iter().map(|t| t.1).sum::<f64>().max(1e-12);
        let mut sorted: Vec<(String, f64)> = totals.iter().filter(|t| t.1 > 0.0).cloned().collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.note("layer self time, share of the attributed total:");
        for (name, s) in &sorted {
            self.note(format!(
                "  {name:<34} {s:>9.4} s  {:>5.1}%",
                100.0 * s / sum
            ));
        }
        if let Some((top, _)) = sorted.first() {
            let met = predicted.iter().any(|p| p == top);
            self.note(format!(
                "dominant layer: {top} (predicted {}): prediction {}",
                predicted.join(" + "),
                if met { "met" } else { "NOT met" }
            ));
        }
    }

    /// Write the run's spans to `OUT_DIR/spans-<workload>.jsonl`.
    pub fn write_spans(&mut self, workload: &str, logs: &[SpanLog]) {
        let path = std::path::Path::new(OUT_DIR).join(format!("spans-{workload}.jsonl"));
        match trace::write_jsonl(&path, logs) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("spans not written ({}): {e}", path.display())),
        }
    }

    /// Print the report to stderr and the result line to stdout.
    pub fn print(&self) {
        for line in &self.notes {
            eprintln!("{line}");
        }
        if let (Some(setup), Some(measured)) = (self.setup_s, self.measured_s) {
            eprintln!("this process: set-up {setup:.3} s, measured phases {measured:.3} s");
        }
        for (name, value, unit) in &self.metrics {
            eprintln!("metric {name} = {value} {unit}");
        }
        println!("{}", self.result_json());
    }

    /// The machine-readable result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(Instant::now());
        o.attempted = 10;
        o.metric("p50_ms.low", 1.25, "ms");
        o.metric("setup_s", 0.5, "s");
        let line = o.result_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms.low\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn complete_orders_fills_and_rejects_strays() {
        let mut o = Outcome::new(Instant::now());
        o.metric("b", 2.0, "ms");
        o.complete(&[("a", "s"), ("b", "ms")]).unwrap();
        assert!(o
            .result_json()
            .contains("{\"a\": {\"value\": 0.0, \"unit\": \"s\"}, \"b\""));
        let mut o = Outcome::new(Instant::now());
        o.metric("c", 1.0, "ms");
        assert!(o.complete(&[("a", "s")]).is_err());
        let mut o = Outcome::new(Instant::now());
        o.metric("a", 1.0, "ms");
        assert!(o.complete(&[("a", "s")]).is_err());
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut o = Outcome::new(Instant::now());
        o.failed = 1;
        assert!(!o.correct());
        let mut o = Outcome::new(Instant::now());
        o.check(false, "mismatch".into());
        assert!(!o.correct());
        assert!(o.result_json().starts_with("{\"correct\": false"));
    }
}
