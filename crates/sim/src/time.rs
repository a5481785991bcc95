//! Simulation time.
//!
//! Time is kept as an integer number of **microseconds** so that event
//! ordering is exact and runs are bit-for-bit reproducible across platforms
//! (floating-point time would make `BinaryHeap` ordering depend on rounding).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// The instant as microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as (possibly lossy) fractional seconds, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    ///
    /// Negative and non-finite inputs clamp to zero: latency models may
    /// produce tiny negative values from jitter subtraction and a clamped
    /// zero delay is the physically meaningful result.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The span as microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale the span by a non-negative float, rounding to the nearest
    /// microsecond (negative or non-finite factors clamp to zero).
    pub fn mul_f64(self, k: f64) -> Self {
        if !k.is_finite() || k <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Saturating: an earlier minus a later instant is zero, not a panic.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_millis(1) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 1_005);
    }

    #[test]
    fn sub_is_saturating() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(30);
        assert_eq!((a - b).as_micros(), 0);
        assert_eq!((b - a).as_micros(), 20);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(0.001).as_micros(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_micros(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_micros(), 0);
        assert_eq!(SimDuration::from_secs_f64(1.5e-7).as_micros(), 0);
        assert_eq!(SimDuration::from_secs_f64(5.5e-7).as_micros(), 1);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let mut v = vec![
            SimTime::from_micros(3),
            SimTime::from_micros(1),
            SimTime::from_micros(2),
        ];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(2), SimTime(3)]);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn mul_f64_scales_and_clamps() {
        let d = SimDuration::from_micros(1000);
        assert_eq!(d.mul_f64(0.5).as_micros(), 500);
        assert_eq!(d.mul_f64(2.0).as_micros(), 2000);
        assert_eq!(d.mul_f64(-1.0).as_micros(), 0);
        assert_eq!(d.mul_f64(f64::NAN).as_micros(), 0);
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let t = SimTime::MAX + SimDuration::from_micros(1);
        assert_eq!(t, SimTime::MAX);
    }
}
