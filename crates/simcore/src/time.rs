//! Simulation clock types.
//!
//! The simulator measures time in integer **nanoseconds** so that event
//! ordering is exact and platform independent: [`SimTime`] and
//! [`SimDuration`] implement total ordering ([`Ord`]) and hashing, which
//! `f64` seconds cannot.
//!
//! Conversions to and from floating-point seconds are provided for the
//! analytical layers (queueing formulas, rate estimation) that naturally
//! work in seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of nanoseconds per second, as used by the clock types.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a monotone, totally ordered instant. Subtracting two
/// instants yields a [`SimDuration`].
///
/// # Example
///
/// ```
/// use simcore::time::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(40);
/// assert_eq!(t1 - t0, SimDuration::from_millis(40));
/// assert!((t1.as_secs_f64() - 0.040).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant; useful as an "infinitely far away"
    /// sentinel for events that are currently unscheduled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from floating-point seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulation time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::time::SimDuration;
///
/// let frame = SimDuration::from_secs_f64(1.0 / 30.0);
/// assert!((frame.as_secs_f64() - 0.0333333).abs() < 1e-6);
/// assert_eq!(frame * 3, SimDuration::from_nanos(99_999_999));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from floating-point seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Whole nanoseconds in this span.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in floating-point seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `true` if this span is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two spans, saturating at [`SimDuration::MAX`].
    #[must_use]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts, saturating at zero.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time in seconds must be finite and non-negative, got {secs}"
    );
    let nanos = secs * NANOS_PER_SEC as f64;
    // `u64::MAX as f64` is 2^64 itself, so the bound is strict.
    assert!(
        nanos < u64::MAX as f64,
        "time in seconds too large to represent: {secs}"
    );
    round_to_u64(nanos)
}

/// `x.round() as u64` for finite `0 <= x < 2^64`, without the libm call
/// `f64::round` costs on baseline x86-64 (which has no rounding
/// instruction). Below 2^52, `whole` converts back to `f64` exactly and
/// `x - whole` is exactly the fractional part; from 2^52 up every double
/// is an integer and the fraction is zero. Ties round away from zero, as
/// `f64::round` does.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole + 1
    } else {
        whole
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs_f64() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_time_duration() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(8)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_sum_and_mul() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
        assert_eq!(
            SimDuration::from_millis(3) * 4,
            SimDuration::from_millis(12)
        );
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimTime::from_secs_f64(0.25).to_string(), "0.250000s");
    }

    #[test]
    fn rounding_matches_f64_round_on_edge_values() {
        let two_52 = 2f64.powi(52);
        let two_53 = 2f64.powi(53);
        let below_2_64 = f64::from_bits(2f64.powi(64).to_bits() - 1);
        let mut values = vec![
            0.0,
            0.5,
            0.499_999_999_999_999_94,
            1.5,
            2.5,
            2f64.powi(63),
            below_2_64,
        ];
        for edge in [two_52, two_53] {
            values.extend([
                f64::from_bits(edge.to_bits() - 1),
                edge,
                f64::from_bits(edge.to_bits() + 1),
            ]);
        }
        for x in values {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn rounding_matches_f64_round_on_a_seeded_sweep() {
        let mut rng = crate::rng::SimRng::seed_from(0x5EC5);
        for _ in 0..200_000 {
            // Uniform bit patterns below 2^64 cover every binade; the
            // scaled uniform draws cover the simulator's range densely.
            let bits = rng.next_u64() % 2f64.powi(64).to_bits();
            let x = f64::from_bits(bits);
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
            let y = rng.next_f64() * 1e12;
            assert_eq!(round_to_u64(y), y.round() as u64, "y = {y:e}");
        }
    }

    #[test]
    #[should_panic(expected = "too large to represent")]
    fn two_to_the_64_nanoseconds_panics() {
        let secs = 2f64.powi(64) / NANOS_PER_SEC as f64;
        assert_eq!(secs * NANOS_PER_SEC as f64, 2f64.powi(64));
        let _ = SimTime::from_secs_f64(secs);
    }

    #[test]
    fn conversion_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1_000), SimDuration::from_millis(1));
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), NANOS_PER_SEC);
    }
}
