//! Cycle-granular simulated time.
//!
//! All timing in the simulator is expressed in clock cycles of the simulated
//! chip. The paper's chip runs at 2.0 GHz (Table I), so one microsecond is
//! 2000 cycles. [`Cycle`] is a transparent newtype over `u64` that supports
//! the arithmetic the simulator needs while keeping cycle counts statically
//! distinct from other integer quantities (entry counts, identifiers, ...).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time, or a span of simulated time, in clock cycles.
///
/// `Cycle` is used both as an absolute timestamp (cycles since the start of
/// the simulation) and as a duration; the arithmetic operations below are the
/// ones that make sense for either interpretation.
///
/// # Example
///
/// ```
/// use tdm_sim::clock::Cycle;
///
/// let start = Cycle::new(100);
/// let latency = Cycle::new(16);
/// assert_eq!(start + latency, Cycle::new(116));
/// assert_eq!((start + latency) - start, latency);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero timestamp (start of simulation) / an empty duration.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable cycle count. Used as an "infinitely far in
    /// the future" sentinel by the execution driver.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle count from a raw `u64`.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cycle count as `f64`, for use in rates and averages.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: returns `self - other` or [`Cycle::ZERO`] if
    /// `other` is larger.
    ///
    /// ```
    /// use tdm_sim::clock::Cycle;
    /// assert_eq!(Cycle::new(5).saturating_sub(Cycle::new(9)), Cycle::ZERO);
    /// ```
    #[inline]
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: Cycle) -> Option<Cycle> {
        self.0.checked_add(other.0).map(Cycle)
    }

    /// Returns the larger of the two cycle counts.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the smaller of the two cycle counts.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Multiplies a duration by an integer factor (e.g. `n` structure
    /// accesses of a fixed latency each).
    #[inline]
    pub fn scaled(self, factor: u64) -> Cycle {
        Cycle(self.0.saturating_mul(factor))
    }

    /// Multiplies a duration by a floating-point factor, rounding to the
    /// nearest cycle. Used by the locality model to shrink or stretch task
    /// durations.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scaled_f64(self, factor: f64) -> Cycle {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scaling factor must be finite and non-negative, got {factor}"
        );
        Cycle((self.0 as f64 * factor).round() as u64)
    }

    /// True if this is the zero cycle count.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;

    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, |acc, c| acc + c)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Clock frequency of the simulated chip.
///
/// Conversions between wall-clock time (micro/nanoseconds) and [`Cycle`]
/// counts go through this type, so the 2.0 GHz of Table I appears in exactly
/// one place.
///
/// # Example
///
/// ```
/// use tdm_sim::clock::Frequency;
///
/// let f = Frequency::ghz(2.0);
/// assert_eq!(f.cycles_from_nanos(50.0).raw(), 100);
/// assert!((f.micros_from_cycles(f.cycles_from_micros(183.0)) - 183.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from a value in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn hz(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz > 0.0,
            "frequency must be positive, got {hz}"
        );
        Frequency { hz }
    }

    /// Creates a frequency from a value in gigahertz.
    pub fn ghz(ghz: f64) -> Self {
        Self::hz(ghz * 1e9)
    }

    /// Frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.hz / 1e9
    }

    /// Number of cycles in `micros` microseconds, rounded to the nearest
    /// cycle.
    pub fn cycles_from_micros(self, micros: f64) -> Cycle {
        Cycle::new((micros * 1e-6 * self.hz).round() as u64)
    }

    /// Number of cycles in `nanos` nanoseconds, rounded to the nearest cycle.
    pub fn cycles_from_nanos(self, nanos: f64) -> Cycle {
        Cycle::new((nanos * 1e-9 * self.hz).round() as u64)
    }

    /// Wall-clock microseconds represented by `cycles`.
    pub fn micros_from_cycles(self, cycles: Cycle) -> f64 {
        cycles.as_f64() / self.hz * 1e6
    }

    /// Wall-clock seconds represented by `cycles`.
    pub fn secs_from_cycles(self, cycles: Cycle) -> f64 {
        cycles.as_f64() / self.hz
    }
}

impl Default for Frequency {
    /// The paper's 2.0 GHz chip clock (Table I).
    fn default() -> Self {
        Frequency::ghz(2.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.as_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_roundtrip() {
        let a = Cycle::new(1000);
        let b = Cycle::new(250);
        assert_eq!(a + b, Cycle::new(1250));
        assert_eq!(a - b, Cycle::new(750));
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn cycle_add_assign_and_sub_assign() {
        let mut c = Cycle::new(10);
        c += Cycle::new(5);
        assert_eq!(c, Cycle::new(15));
        c -= Cycle::new(15);
        assert_eq!(c, Cycle::ZERO);
    }

    #[test]
    fn cycle_saturating_sub_clamps_to_zero() {
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(10)), Cycle::ZERO);
        assert_eq!(Cycle::new(10).saturating_sub(Cycle::new(3)), Cycle::new(7));
    }

    #[test]
    fn cycle_scaled_by_integer_factor() {
        assert_eq!(Cycle::new(7).scaled(3), Cycle::new(21));
        assert_eq!(Cycle::new(7).scaled(0), Cycle::ZERO);
    }

    #[test]
    fn cycle_scaled_by_float_rounds() {
        assert_eq!(Cycle::new(100).scaled_f64(0.5), Cycle::new(50));
        assert_eq!(Cycle::new(3).scaled_f64(0.5), Cycle::new(2)); // 1.5 rounds to 2
        assert_eq!(Cycle::new(100).scaled_f64(1.0), Cycle::new(100));
    }

    #[test]
    #[should_panic(expected = "scaling factor")]
    fn cycle_scaled_by_negative_factor_panics() {
        let _ = Cycle::new(1).scaled_f64(-1.0);
    }

    #[test]
    fn cycle_min_max() {
        let a = Cycle::new(4);
        let b = Cycle::new(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn cycle_sum_over_iterator() {
        let total: Cycle = (1..=4u64).map(Cycle::new).sum();
        assert_eq!(total, Cycle::new(10));
    }

    #[test]
    fn cycle_display_is_nonempty() {
        assert_eq!(Cycle::new(42).to_string(), "42 cycles");
    }

    #[test]
    fn cycle_conversions_to_and_from_u64() {
        let c: Cycle = 77u64.into();
        let raw: u64 = c.into();
        assert_eq!(raw, 77);
    }

    #[test]
    fn frequency_default_is_two_ghz() {
        let f = Frequency::default();
        assert!((f.as_ghz() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_micros_to_cycles_at_2ghz() {
        let f = Frequency::ghz(2.0);
        // 183 us Cholesky task -> 366k cycles.
        assert_eq!(f.cycles_from_micros(183.0), Cycle::new(366_000));
        // 27,748 us Dedup task.
        assert_eq!(f.cycles_from_micros(27_748.0), Cycle::new(55_496_000));
    }

    #[test]
    fn frequency_nanos_and_secs() {
        let f = Frequency::ghz(2.0);
        assert_eq!(f.cycles_from_nanos(1.0), Cycle::new(2));
        assert!((f.secs_from_cycles(Cycle::new(2_000_000_000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_roundtrip_micros() {
        let f = Frequency::ghz(2.0);
        let us = 4771.0; // average task duration under TDM, Table II
        let cycles = f.cycles_from_micros(us);
        assert!((f.micros_from_cycles(cycles) - us).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::hz(0.0);
    }
}
