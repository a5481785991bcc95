//! Exact sample statistics and the benchmark's seeded generator.
//!
//! Percentiles come from raw samples by nearest rank — never from
//! bucketed histograms — and always travel with their sample count and
//! the number of samples ranked beyond them.

/// A nearest-rank percentile over raw samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(q * n)` (1-based).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples ranked after the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, or `None` when
/// there are no samples. Sorts a copy; the input order is kept.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        count: n,
        beyond: n - rank,
    })
}

/// The percentile's value, or 0 for an empty sample (a layer the
/// workload never exercised).
pub fn pct_or_zero(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).map_or(0.0, |p| p.value)
}

/// Arithmetic mean, or 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a small set of repeated measurements (lower middle for an
/// even count), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    pct_or_zero(values, 0.5)
}

/// Render a percentile for the human-readable report.
pub fn describe(name: &str, p: Option<Percentile>, unit: &str) -> String {
    match p {
        Some(p) => format!(
            "{name} = {:.3} {unit} (n = {}, {} beyond)",
            p.value, p.count, p.beyond
        ),
        None => format!("{name} = - (no samples)"),
    }
}

/// splitmix64: the benchmark's only source of randomness. Everything a
/// workload generates is a pure function of `--seed` through this.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Mix two values into one seed (for per-item streams).
pub fn mix(a: u64, b: u64) -> u64 {
    SplitMix::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let max = percentile(&samples, 1.0).unwrap();
        assert_eq!((max.value, max.beyond), (100.0, 0));
    }

    #[test]
    fn nearest_rank_rounds_up_and_handles_tiny_samples() {
        // rank = ceil(0.99 * 10) = 10: with ten samples p99 is the max.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99).unwrap().value, 10.0);
        assert_eq!(percentile(&ten, 0.5).unwrap().value, 5.0);
        assert_eq!(percentile(&[7.0], 0.01).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
        assert_eq!(pct_or_zero(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&samples, 0.99).unwrap();
        assert_eq!((p.value, p.beyond), (989.0, 10));
    }

    #[test]
    fn splitmix_is_seeded_and_shuffle_permutes() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut c = SplitMix::new(8);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
