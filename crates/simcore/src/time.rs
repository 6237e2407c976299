//! Virtual time for the discrete-event simulations.
//!
//! Time is stored as integer microseconds. The paper's measurements are at
//! 0.25 s granularity and its timers at whole seconds, so a microsecond tick
//! gives us five orders of magnitude of headroom while keeping ordering
//! exact (comparing `f64` timestamps for equality is how simultaneous-event
//! bugs are born).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock, in microseconds since the start of
/// the simulation.
///
/// # Example
///
/// ```
/// use ewb_simcore::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs_f64(1.5) + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 1_750_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
///
/// # Example
///
/// ```
/// use ewb_simcore::SimDuration;
///
/// let d = SimDuration::from_secs(4) + SimDuration::from_millis(500);
/// assert!((d.as_secs_f64() - 4.5).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be a finite non-negative number of seconds, got {secs}"
        );
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// This instant as whole microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be a finite non-negative number of seconds, got {secs}"
        );
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// This duration as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtracts, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
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
        assert!(
            rhs.0 <= self.0,
            "SimDuration subtraction underflow: {self} - {rhs}"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimTime::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_micros(), 1);
    }

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_micros(), 11_500_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_is_ordered() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_backwards() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_panics_on_underflow() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn mul_f64_rounds_to_microsecond() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5).as_micros(), 2); // 1.5 rounds half away from zero
        assert_eq!(d.mul_f64(1.0), d);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_is_nonempty_and_readable() {
        assert_eq!(format!("{}", SimTime::from_millis(250)), "0.250000s");
        assert_eq!(format!("{}", SimDuration::from_secs(4)), "4.000000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
    }
}
