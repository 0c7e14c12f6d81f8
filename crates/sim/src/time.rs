//! Virtual time: nanosecond-resolution instants and durations.
//!
//! `u64` nanoseconds cover ~584 years of virtual time, far beyond any
//! experiment in the paper (the longest runs simulate a few seconds).
//! Integer arithmetic keeps every timestamp exactly reproducible; the
//! simulator never touches floating point for time bookkeeping.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, in nanoseconds.
///
/// Construct via [`Duration::nanos`], [`Duration::micros`],
/// [`Duration::millis`] or [`Duration::secs`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// A duration of `ns` nanoseconds.
    pub const fn nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// A duration of `us` microseconds.
    pub const fn micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// A duration of `ms` milliseconds.
    pub const fn millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// A duration of `s` seconds.
    pub const fn secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// This duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// A duration from fractional seconds, rounding to the nearest
    /// nanosecond. Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Duration {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Duration((s * 1e9).round() as u64)
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by an integer scale factor.
    pub fn checked_mul(self, by: u64) -> Option<Duration> {
        self.0.checked_mul(by).map(Duration)
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;
    /// Ratio of two durations (dimensionless).
    fn div(self, rhs: Duration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl serde::Serialize for Duration {
    /// Wire form: whole nanoseconds, so JSON carries exact virtual time.
    fn to_json(&self) -> serde::json::Value {
        serde::Serialize::to_json(&self.0)
    }
}

impl serde::Deserialize for Duration {
    /// Inverse of the nanosecond wire form: exact round-trip.
    fn from_json(v: &serde::json::Value) -> Result<Duration, serde::DeError> {
        serde::Deserialize::from_json(v).map(Duration)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Duration {
    /// Human-scaled display: picks ns/µs/ms/s by magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// An instant of virtual time, measured in nanoseconds from the start of
/// the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);

    /// A sentinel later than any reachable simulation time.
    pub const MAX: Time = Time(u64::MAX);

    /// The instant `ns` nanoseconds after simulation start.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`. Panics (in debug builds) if `earlier`
    /// is in the future.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(self >= earlier, "time went backwards: {self} < {earlier}");
        Duration::nanos(self.0 - earlier.0)
    }

    /// Time elapsed since `earlier`, or `ZERO` if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration::nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.as_nanos())
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl serde::Serialize for Time {
    /// Wire form: nanoseconds since simulation start.
    fn to_json(&self) -> serde::json::Value {
        serde::Serialize::to_json(&self.0)
    }
}

impl serde::Deserialize for Time {
    /// Inverse of the nanosecond wire form: exact round-trip.
    fn from_json(v: &serde::json::Value) -> Result<Time, serde::DeError> {
        serde::Deserialize::from_json(v).map(Time)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration::nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::micros(1), Duration::nanos(1_000));
        assert_eq!(Duration::millis(1), Duration::micros(1_000));
        assert_eq!(Duration::secs(1), Duration::millis(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::micros(3);
        let b = Duration::micros(2);
        assert_eq!(a + b, Duration::micros(5));
        assert_eq!(a - b, Duration::micros(1));
        assert_eq!(a * 2, Duration::micros(6));
        assert_eq!(a / 3, Duration::micros(1));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_ordering_and_elapsed() {
        let t0 = Time::ZERO;
        let t1 = t0 + Duration::micros(7);
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), Duration::micros(7));
        assert_eq!(t1 - t0, Duration::micros(7));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn from_secs_f64_round_trips() {
        let d = Duration::from_secs_f64(0.000123456789);
        assert_eq!(d.as_nanos(), 123_457); // rounded to nearest ns
        assert!((d.as_secs_f64() - 0.000123457).abs() < 1e-12);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Duration::nanos(17).to_string(), "17ns");
        assert_eq!(Duration::micros(100).to_string(), "100.000us");
        assert_eq!(Duration::millis(2).to_string(), "2.000ms");
        assert_eq!(Duration::secs(3).to_string(), "3.000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }
}
