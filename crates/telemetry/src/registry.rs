//! The metrics registry: named counters, gauges, and histograms.
//!
//! All instruments are plain `AtomicU64`s behind `Arc`s, so the hot path
//! (increment, record) never takes a lock. The registry itself is only
//! locked on *registration* — callers fetch an instrument handle once and
//! then update it lock-free. Snapshots are point-in-time, serializable,
//! and deterministically ordered (names sorted), so two identical runs
//! produce byte-identical snapshot JSON.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two histogram buckets: bucket `i` counts samples
/// with `value < 2^i`, so the top bucket covers anything a `u64` holds.
pub const POW2_BUCKETS: usize = 32;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water-mark instrument.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is higher (high-water mark).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with lock-free recording and CDF-walk
/// percentiles (the scheme `sam-serve` has used for latencies since PR 1,
/// generalized so every crate shares one implementation).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A power-of-two histogram (e.g. microsecond latencies): bucket `i`
    /// counts samples with `value < 2^i`, so percentiles are exact to
    /// within one power of two.
    pub fn pow2() -> Self {
        Histogram {
            buckets: (0..POW2_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        // Bucket i holds samples with value < 2^i: index by bit length.
        let idx = (64 - value.leading_zeros() as usize).min(POW2_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of raw recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of raw recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper edge of bucket `i`.
    fn upper_edge(i: usize) -> u64 {
        1u64 << i
    }

    /// The `q`-quantile upper bound, by walking the cumulative
    /// distribution. An empty histogram explicitly reports 0 — there is
    /// no sample to bound, and callers render it as "no data" rather
    /// than the top bucket edge.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_edge(i);
            }
        }
        Self::upper_edge(self.buckets.len() - 1)
    }

    /// Sparse `(upper_edge, count)` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, c)| (Self::upper_edge(i), c.load(Ordering::Relaxed)))
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Snapshot this histogram under `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean of raw recorded values.
    pub mean: f64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// Sparse `(upper_edge, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile upper bound recomputed from the sparse buckets —
    /// the same CDF walk [`Histogram::percentile`] performs on the live
    /// instrument, so delta snapshots (whose `p50`/`p99` fields describe
    /// the *cumulative* distribution they were cut from) can report
    /// percentiles of just their own samples. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(edge, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return edge;
            }
        }
        self.buckets.last().map(|&(edge, _)| edge).unwrap_or(0)
    }

    /// The histogram of samples recorded between `earlier` and `self`
    /// (both cumulative snapshots of the same instrument): per-bucket
    /// saturating subtraction, with `count`/`mean` and the percentile
    /// fields recomputed over the difference alone.
    ///
    /// Saturation (never a panic or a negative) is the registry-reinstall
    /// guard: if the instrument was replaced and its counts restarted
    /// below `earlier`'s, the delta clamps to zero instead of
    /// underflowing.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        for &(edge, count) in &self.buckets {
            let before = earlier
                .buckets
                .iter()
                .find(|&&(e, _)| e == edge)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            let d = count.saturating_sub(before);
            if d > 0 {
                buckets.push((edge, d));
            }
        }
        let count = self.count.saturating_sub(earlier.count);
        // Sums are only carried as means; reconstruct the delta mean from
        // the two (count, mean) pairs.
        let sum = (self.mean * self.count as f64) - (earlier.mean * earlier.count as f64);
        let mut delta = HistogramSnapshot {
            name: self.name.clone(),
            count,
            mean: if count == 0 {
                0.0
            } else {
                (sum / count as f64).max(0.0)
            },
            p50: 0,
            p90: 0,
            p99: 0,
            buckets,
        };
        delta.p50 = delta.percentile(0.50);
        delta.p90 = delta.percentile(0.90);
        delta.p99 = delta.percentile(0.99);
        delta
    }
}

/// A named set of instruments. Cheap to share (`Arc` it); instrument
/// handles are get-or-create by name and independently shareable.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The power-of-two histogram named `name`, created on first use.
    pub fn histogram_pow2(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::pow2());
        map.insert(name.to_string(), h.clone());
        h
    }

    /// Snapshot every instrument, names sorted, for JSONL export.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            kind: "snapshot".to_string(),
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| v.snapshot(k))
                .collect(),
        }
    }
}

/// A serializable point-in-time view of a whole [`Registry`]. Written as
/// the final line of a telemetry JSONL stream (`kind == "snapshot"`).
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct RegistrySnapshot {
    /// Line discriminator: always `"snapshot"`.
    pub kind: String,
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Value of the counter named `name`; 0 when absent (an instrument
    /// that was never touched is indistinguishable from zero).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Value of the gauge named `name`; 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The histogram snapshot named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Everything recorded between `earlier` and `self`: counters and
    /// histogram buckets subtract (saturating — a registry reinstall that
    /// restarted a counter below its old value yields 0, never an
    /// underflow), gauges keep `self`'s last-written value (a gauge is a
    /// level, not a flow), and instruments absent from `earlier` carry
    /// over whole.
    pub fn delta(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            kind: "snapshot".to_string(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| match earlier.histogram(&h.name) {
                    Some(before) => h.delta(before),
                    None => h.clone(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        let g = reg.gauge("hwm");
        g.record_max(7);
        g.record_max(3);
        assert_eq!(reg.gauge("hwm").get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn pow2_percentiles_walk_the_cdf() {
        let h = Histogram::pow2();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.count(), 100);
        assert!(h.percentile(0.50) <= 2, "median in the fast bucket");
        assert!(h.percentile(0.99) >= 1024, "tail in the slow bucket");
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        // The explicit `total == 0` early return: no samples means the
        // percentile is 0, not the top bucket edge the CDF walk would
        // otherwise fall through to.
        let h = Histogram::pow2();
        assert_eq!(h.percentile(0.50), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        reg.gauge("g").set(5);
        reg.histogram_pow2("lat").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.kind, "snapshot");
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g"), 5);
        let h = snap.histogram("lat").expect("lat registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 128);
        // Round-trips through the JSONL wire format.
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
