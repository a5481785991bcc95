//! Normal-condition profiles and their adaptive update.
//!
//! "The nominal values of these statistical features are relative to
//! topology, transmission range and routing algorithm, the system will
//! initially be trained in normal conditions with specific network
//! topology, transmission range and routing algorithm employed in the
//! system." — a [`NormalProfile`] is exactly that training product: sample
//! statistics of `p_max` and `Δ` plus the PMF of link relative
//! frequencies.
//!
//! The paper's equations (8)–(9) update the profile online with a
//! forgetting factor `β` weighted by the soft decision `λ`
//! (`new = λβ·measurement + (1 − λβ)·old`): measurements believed to be
//! attacks (`λ → 0`) are not learned into the profile. That update is
//! [`forgetting_update`] / [`NormalProfile::adapt`].

use crate::pmf::Pmf;
use crate::stats::LinkStats;
use manet_routing::Route;
use serde::{Deserialize, Serialize};

/// Sample statistics of one scalar feature.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeatureStat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form).
    pub std: f64,
    /// Largest training sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

/// Absolute floor applied to `std` when computing z-scores, so a
/// zero-variance training set (e.g. a degenerate topology where every
/// normal discovery is identical) still yields finite scores.
pub const STD_FLOOR: f64 = 1e-3;

/// Relative floor: `std` is never taken below this fraction of the mean.
/// Ten-run training sets (the paper's scale) routinely under-estimate the
/// feature spread; without the floor an honest discovery a few percent
/// above the training mean scores z > 3 and false-alarms.
pub const REL_STD_FLOOR: f64 = 0.25;

impl FeatureStat {
    /// Compute from raw samples; empty input yields the "untrained" stat.
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return FeatureStat {
                mean: 0.0,
                std: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        FeatureStat {
            mean,
            std: var.sqrt(),
            max,
            n,
        }
    }

    /// Z-score of a new measurement against this stat, with the std
    /// floored by [`STD_FLOOR`] and [`REL_STD_FLOOR`]`·|mean|`.
    pub fn z(&self, v: f64) -> f64 {
        self.z_with_rel_floor(v, REL_STD_FLOOR)
    }

    /// Z-score with an explicit relative floor. The right floor depends on
    /// the feature's scale: 0.25 suits the `[0, 1]`-valued `p_max`/`Δ`
    /// (whose ten-run training spread is routinely underestimated), while
    /// the route-length feature — with means around 10 hops and genuine
    /// run-to-run variance — wants a tighter 0.1.
    pub fn z_with_rel_floor(&self, v: f64, rel_floor: f64) -> f64 {
        let floor = STD_FLOOR.max(rel_floor * self.mean.abs());
        (v - self.mean) / self.std.max(floor)
    }
}

/// Eq. (8)/(9): `new = λβ·measurement + (1 − λβ)·old`.
///
/// `lambda` is the soft decision (1 = certainly normal, 0 = certainly
/// attacked); `beta ∈ (0, 1)` the forgetting factor. Attack-suspect
/// measurements barely move the profile.
pub fn forgetting_update(old: f64, measurement: f64, lambda: f64, beta: f64) -> f64 {
    let w = (lambda * beta).clamp(0.0, 1.0);
    w * measurement + (1.0 - w) * old
}

/// The trained normal-condition profile for one (topology, range,
/// protocol) deployment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NormalProfile {
    /// Training statistics of `p_max`.
    pub p_max: FeatureStat,
    /// Training statistics of `Δ`.
    pub delta: FeatureStat,
    /// Training statistics of the mean route length (the extension
    /// feature; see [`LinkStats::mean_hops`]).
    pub hops: FeatureStat,
    /// Trained PMF of link relative frequencies.
    pub pmf: Pmf,
}

impl NormalProfile {
    /// Train from normal-condition route sets (one set per discovery).
    ///
    /// Every set is tabulated into one reused table, and every feature
    /// read is independent of the table's iteration order: the PMF's bins
    /// are counts.
    pub fn train(route_sets: &[Vec<Route>], pmf_bins: usize) -> Self {
        let mut pmaxes = Vec::with_capacity(route_sets.len());
        let mut deltas = Vec::with_capacity(route_sets.len());
        let mut hops = Vec::with_capacity(route_sets.len());
        let mut pmf = Pmf::new(pmf_bins);
        let mut stats = LinkStats::default();
        for set in route_sets {
            stats.tabulate(set.iter().map(Route::nodes));
            let (p_max, delta) = stats.p_max_delta();
            pmaxes.push(p_max);
            deltas.push(delta);
            hops.push(stats.mean_hops());
            for f in stats.frequencies() {
                pmf.add_sample(f);
            }
        }
        NormalProfile {
            p_max: FeatureStat::from_samples(&pmaxes),
            delta: FeatureStat::from_samples(&deltas),
            hops: FeatureStat::from_samples(&hops),
            pmf,
        }
    }

    /// Whether any training data has been absorbed.
    pub fn is_trained(&self) -> bool {
        self.p_max.n > 0
    }

    /// Online profile adaptation per eq. (8)–(9): fold a new measurement's
    /// features into the profile means, weighted by the soft decision
    /// `lambda` and forgetting factor `beta`. The standard deviations are
    /// adapted with the same weight towards the new absolute deviation, so
    /// the profile tracks slow drift while ignoring suspected attacks.
    pub fn adapt(&mut self, measured_p_max: f64, measured_delta: f64, lambda: f64, beta: f64) {
        Self::adapt_stat(&mut self.p_max, measured_p_max, lambda, beta);
        Self::adapt_stat(&mut self.delta, measured_delta, lambda, beta);
    }

    /// Adapt the mean-route-length stat (extension feature) the same way.
    pub fn adapt_hops(&mut self, measured_mean_hops: f64, lambda: f64, beta: f64) {
        Self::adapt_stat(&mut self.hops, measured_mean_hops, lambda, beta);
    }

    fn adapt_stat(stat: &mut FeatureStat, measured: f64, lambda: f64, beta: f64) {
        let dev = (measured - stat.mean).abs();
        stat.mean = forgetting_update(stat.mean, measured, lambda, beta);
        stat.std = forgetting_update(stat.std, dev, lambda, beta);
        if lambda > 0.5 {
            stat.max = stat.max.max(measured);
        }
        stat.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::NodeId;

    fn r(ids: &[u32]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    #[test]
    fn feature_stat_basics() {
        let s = FeatureStat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn z_score_with_absolute_floor() {
        // Zero variance around zero: only the absolute floor applies.
        let s = FeatureStat::from_samples(&[0.0, 0.0, 0.0]);
        let z = s.z(0.05);
        assert!(z.is_finite());
        assert!(z > 10.0);
        assert_eq!(s.z(0.0), 0.0);
    }

    #[test]
    fn z_score_with_relative_floor() {
        // Zero variance around 0.5: the relative floor (0.25·mean = 0.125)
        // keeps small excursions unremarkable.
        let s = FeatureStat::from_samples(&[0.5, 0.5, 0.5]);
        let z = s.z(0.6);
        assert!((z - 0.8).abs() < 1e-9, "z = {z}");
        // A doubling is still clearly anomalous.
        assert!(s.z(1.0) >= 4.0);
    }

    #[test]
    fn untrained_stat() {
        let s = FeatureStat::from_samples(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn forgetting_update_extremes() {
        // λ = 0 (attack): profile frozen.
        assert_eq!(forgetting_update(0.3, 0.9, 0.0, 0.5), 0.3);
        // λ = 1: plain EWMA at rate β.
        let v = forgetting_update(0.3, 0.9, 1.0, 0.5);
        assert!((v - 0.6).abs() < 1e-12);
        // β = 0: never updates.
        assert_eq!(forgetting_update(0.3, 0.9, 1.0, 0.0), 0.3);
    }

    #[test]
    fn train_builds_feature_and_pmf_profiles() {
        let sets = vec![
            vec![r(&[0, 1, 2, 5]), r(&[0, 3, 4, 5])],
            vec![r(&[0, 1, 2, 5]), r(&[0, 1, 4, 5])],
        ];
        let p = NormalProfile::train(&sets, 20);
        assert!(p.is_trained());
        assert_eq!(p.p_max.n, 2);
        assert!(p.p_max.mean > 0.0 && p.p_max.mean < 1.0);
        assert!(p.pmf.sample_count() > 0);
    }

    #[test]
    fn untrained_profile_reports_untrained() {
        let p = NormalProfile::train(&[], 10);
        assert!(!p.is_trained());
    }

    #[test]
    fn adapt_moves_towards_normal_measurements_only() {
        let sets = vec![vec![r(&[0, 1, 2, 5]), r(&[0, 3, 4, 5])]];
        let mut p = NormalProfile::train(&sets, 10);
        let before = p.p_max.mean;
        // Attack measurement (λ ≈ 0): frozen.
        p.adapt(0.9, 0.9, 0.0, 0.2);
        assert_eq!(p.p_max.mean, before);
        // Normal measurement (λ = 1): moves towards it.
        p.adapt(before + 0.1, 0.0, 1.0, 0.2);
        assert!(p.p_max.mean > before);
        assert!(p.p_max.mean < before + 0.1);
    }
}
