//! The PMF-profile alternative detector (paper §III, Fig. 5).
//!
//! "An alternative statistic is the probability mass function (PMF) of
//! random variable n/N … The samples collected from the network under
//! normal condition will form the training set … the distribution of n/N
//! obtained using real-time samples will be compared with the profile."
//!
//! We histogram the link relative frequencies into fixed-width bins over
//! `[0, 1]` and compare live histograms to a trained profile. The tail
//! mass above the profile's maximum observed frequency — the "isolated
//! outlier far apart from other links" the paper highlights in Fig. 5 —
//! decides; the total variation distance is reported beside it.

use serde::{Deserialize, Serialize};

/// A binned probability mass function over `[0, 1]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pmf {
    bins: Vec<f64>,
    samples: u64,
}

impl Pmf {
    /// An empty PMF with `bins` equal-width bins over `[0, 1]`.
    pub fn new(bins: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        Pmf {
            bins: vec![0.0; bins],
            samples: 0,
        }
    }

    /// Build from samples (values outside `[0, 1]` clamp to the edge
    /// bins).
    pub fn from_samples(bins: usize, samples: &[f64]) -> Self {
        let mut pmf = Pmf::new(bins);
        for &s in samples {
            pmf.add_sample(s);
        }
        pmf
    }

    /// Add one sample.
    pub fn add_sample(&mut self, v: f64) {
        let idx = self.bin_of(v);
        // Store counts; normalization happens on read.
        self.bins[idx] += 1.0;
        self.samples += 1;
    }

    /// Index of the bin containing `v`.
    pub fn bin_of(&self, v: f64) -> usize {
        let k = self.bins.len();
        let clamped = v.clamp(0.0, 1.0);
        ((clamped * k as f64) as usize).min(k - 1)
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Number of accumulated samples.
    pub fn sample_count(&self) -> u64 {
        self.samples
    }

    /// Probability mass of bin `i`.
    pub fn mass(&self, i: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.bins[i] / self.samples as f64
    }

    /// The full normalized mass vector.
    pub fn masses(&self) -> Vec<f64> {
        (0..self.bins.len()).map(|i| self.mass(i)).collect()
    }

    /// Centre of bin `i` (for plotting/reporting).
    pub fn bin_center(&self, i: usize) -> f64 {
        (i as f64 + 0.5) / self.bins.len() as f64
    }

    /// Largest sample value's bin upper edge — "how far right the support
    /// reaches".
    pub fn support_max(&self) -> f64 {
        match self.bins.iter().rposition(|&c| c > 0.0) {
            Some(i) => (i as f64 + 1.0) / self.bins.len() as f64,
            None => 0.0,
        }
    }

    /// Total variation distance to another PMF with the same binning:
    /// `½ Σ |p_i − q_i|` ∈ `[0, 1]`.
    pub fn total_variation(&self, other: &Pmf) -> f64 {
        assert_eq!(self.bins.len(), other.bins.len(), "PMFs must share binning");
        0.5 * (0..self.bins.len())
            .map(|i| (self.mass(i) - other.mass(i)).abs())
            .sum::<f64>()
    }

    /// Mass at or above frequency `threshold` — the outlier tail.
    pub fn tail_mass(&self, threshold: f64) -> f64 {
        let start = self.bin_of(threshold);
        (start..self.bins.len()).map(|i| self.mass(i)).sum()
    }

    /// Empirical CDF at bin resolution: the mass of all bins up to and
    /// including the one containing `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let end = self.bin_of(x);
        (0..=end).map(|i| self.mass(i)).sum()
    }

    /// The paper's "theoretical analysis since the PMF is available":
    /// the probability that the **maximum** of `n` independent link
    /// frequencies drawn from this (normal-condition) PMF reaches `x` or
    /// beyond — `1 − F(x⁻)ⁿ`, with `F(x⁻)` the mass strictly below `x`'s
    /// bin. Evaluating it at an observed `p_max` with `n` = the number of
    /// distinct links yields a p-value for the null hypothesis "this
    /// route set is normal".
    pub fn max_order_pvalue(&self, x: f64, n: usize) -> f64 {
        if self.samples == 0 || n == 0 {
            return 1.0;
        }
        let below = self.bin_of(x);
        let f_minus: f64 = (0..below).map(|i| self.mass(i)).sum();
        1.0 - f_minus.powi(i32::try_from(n).unwrap_or(i32::MAX))
    }
}

/// Head-room over the trained support, in bins, before the tail rule
/// fires.
const SLACK_BINS: usize = 1;

/// PMF-based anomaly check against a borrowed, trained normal-condition
/// PMF: a live PMF is anomalous if it puts mass beyond the profile's
/// support plus one bin (an isolated high-frequency link).
///
/// Total variation distance is evidence only. Between small-sample
/// histograms it is dominated by how many routes a discovery happened to
/// return, not by attacks; the paper's Fig. 5 signature is the isolated
/// outlier, which the tail rule captures.
#[derive(Clone, Copy, Debug)]
pub struct PmfProfile<'a> {
    profile: &'a Pmf,
}

impl<'a> PmfProfile<'a> {
    /// Check against a trained normal-condition PMF.
    pub fn new(profile: &'a Pmf) -> Self {
        PmfProfile { profile }
    }

    /// Check a live PMF; returns the evidence.
    pub fn check(&self, live: &Pmf) -> PmfVerdict {
        let support = self.profile.support_max();
        let slack = SLACK_BINS as f64 / self.profile.bin_count() as f64;
        let beyond = live.tail_mass((support + slack).min(1.0));
        PmfVerdict {
            outlier_mass: beyond,
            total_variation: self.profile.total_variation(live),
            anomalous: beyond > 0.0,
        }
    }
}

/// Result of a PMF-profile comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PmfVerdict {
    /// Live mass beyond the trained support (plus slack).
    pub outlier_mass: f64,
    /// Total variation distance to the profile (evidence; it does not
    /// decide).
    pub total_variation: f64,
    /// Whether the tail rule fired: `outlier_mass > 0`.
    pub anomalous: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_masses() {
        let pmf = Pmf::from_samples(10, &[0.05, 0.05, 0.15, 0.95]);
        assert_eq!(pmf.sample_count(), 4);
        assert!((pmf.mass(0) - 0.5).abs() < 1e-12);
        assert!((pmf.mass(1) - 0.25).abs() < 1e-12);
        assert!((pmf.mass(9) - 0.25).abs() < 1e-12);
        let total: f64 = pmf.masses().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_values_clamp() {
        let pmf = Pmf::from_samples(4, &[0.0, 1.0, 1.5, -0.2]);
        assert_eq!(pmf.bin_of(0.0), 0);
        assert_eq!(pmf.bin_of(1.0), 3);
        assert!((pmf.mass(0) - 0.5).abs() < 1e-12);
        assert!((pmf.mass(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn support_max_tracks_rightmost_bin() {
        let pmf = Pmf::from_samples(10, &[0.12, 0.31]);
        assert!((pmf.support_max() - 0.4).abs() < 1e-12);
        assert_eq!(Pmf::new(10).support_max(), 0.0);
    }

    #[test]
    fn total_variation_properties() {
        let a = Pmf::from_samples(10, &[0.1, 0.1, 0.2]);
        let b = Pmf::from_samples(10, &[0.9, 0.9, 0.8]);
        assert_eq!(a.total_variation(&a), 0.0);
        assert!(
            (a.total_variation(&b) - 1.0).abs() < 1e-12,
            "disjoint supports"
        );
        assert!((a.total_variation(&b) - b.total_variation(&a)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "share binning")]
    fn tv_requires_same_binning() {
        let _ = Pmf::new(4).total_variation(&Pmf::new(8));
    }

    #[test]
    fn profile_flags_outlier_links() {
        // Normal: frequencies spread below 0.10 (Fig. 5 normal system).
        let normal = Pmf::from_samples(20, &[0.02, 0.04, 0.05, 0.06, 0.09, 0.07, 0.03]);
        let profile = PmfProfile::new(&normal);
        // Attacked: one link at 0.16+ (Fig. 5 under attack).
        let attacked = Pmf::from_samples(20, &[0.02, 0.04, 0.05, 0.06, 0.17, 0.03]);
        let v = profile.check(&attacked);
        assert!(v.anomalous);
        assert!(v.outlier_mass > 0.0);
        // A live set like the training data is clean.
        let live_normal = Pmf::from_samples(20, &[0.03, 0.05, 0.06, 0.08]);
        let v2 = profile.check(&live_normal);
        assert!(!v2.anomalous, "{v2:?}");
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let pmf = Pmf::from_samples(10, &[0.05, 0.25, 0.55]);
        assert!(pmf.cdf(0.0) <= pmf.cdf(0.3));
        assert!((pmf.cdf(1.0) - 1.0).abs() < 1e-12);
        assert!((pmf.cdf(0.3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_order_pvalue_behaves_like_a_p_value() {
        // Normal frequencies live below 0.10.
        let pmf = Pmf::from_samples(20, &[0.02, 0.04, 0.05, 0.06, 0.07, 0.08, 0.03, 0.04]);
        // An observation inside the support is unremarkable.
        let p_inside = pmf.max_order_pvalue(0.06, 20);
        assert!(p_inside > 0.5, "{p_inside}");
        // An observation far beyond the support is (almost) impossible
        // under the null.
        let p_outlier = pmf.max_order_pvalue(0.18, 20);
        assert!(p_outlier < 1e-9, "{p_outlier}");
        // More draws make large maxima more likely: p grows with n.
        assert!(pmf.max_order_pvalue(0.06, 50) >= pmf.max_order_pvalue(0.06, 5));
        // Degenerate cases.
        assert_eq!(Pmf::new(10).max_order_pvalue(0.5, 10), 1.0);
        assert_eq!(pmf.max_order_pvalue(0.5, 0), 1.0);
    }

    #[test]
    fn tail_mass_accumulates_from_threshold() {
        let pmf = Pmf::from_samples(10, &[0.05, 0.55, 0.95]);
        assert!((pmf.tail_mass(0.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((pmf.tail_mass(0.0) - 1.0).abs() < 1e-12);
    }
}
