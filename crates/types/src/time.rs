//! Timestamps and durations.
//!
//! The paper's rules observe time through the `f_now()` built-in and
//! through table lifetimes (`materialize(oscill, 120, ...)`). Every
//! quantity that reaches a rule is either a timestamp or a difference of
//! timestamps, so a single monotonic microsecond counter suffices. In the
//! discrete-event simulator this is **virtual time** (fully
//! deterministic); in the threaded runtime it is wall-clock time since
//! node start. Nothing downstream can tell the difference, which is
//! exactly why the simulation substitution in DESIGN.md §2.4 is sound.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time, in microseconds since the epoch of the owning clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Time {
    /// The clock epoch.
    pub const ZERO: Time = Time(0);

    /// Build a timestamp from whole seconds.
    pub fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000)
    }

    /// Build a timestamp from milliseconds.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000)
    }

    /// Microseconds since the epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// Zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Build a span from whole seconds.
    pub const fn from_secs(s: u64) -> TimeDelta {
        TimeDelta(s * 1_000_000)
    }

    /// Build a span from milliseconds.
    pub fn from_millis(ms: u64) -> TimeDelta {
        TimeDelta(ms * 1_000)
    }

    /// Build a span from microseconds.
    pub fn from_micros(us: u64) -> TimeDelta {
        TimeDelta(us)
    }

    /// Build a span from fractional seconds (rounds down to the
    /// microsecond). Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> TimeDelta {
        if s.is_finite() && s > 0.0 {
            TimeDelta((s * 1e6) as u64)
        } else {
            TimeDelta(0)
        }
    }

    /// The span in microseconds.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, d: TimeDelta) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, d: TimeDelta) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    fn sub(self, other: Time) -> TimeDelta {
        self.since(other)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}us", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Time::from_secs(2).micros(), 2_000_000);
        assert_eq!(Time::from_millis(3).micros(), 3_000);
        assert_eq!(TimeDelta::from_secs(1).micros(), 1_000_000);
        assert_eq!(TimeDelta::from_secs_f64(0.5).micros(), 500_000);
        assert_eq!(TimeDelta::from_secs_f64(-1.0).micros(), 0);
        assert_eq!(TimeDelta::from_secs_f64(f64::NAN).micros(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10) + TimeDelta::from_millis(250);
        assert_eq!(t.micros(), 10_250_000);
        assert_eq!((t - Time::from_secs(10)).micros(), 250_000);
        // Saturating: earlier - later == 0.
        assert_eq!((Time::from_secs(1) - Time::from_secs(5)).micros(), 0);
    }

    #[test]
    fn ordering() {
        assert!(Time::from_secs(1) < Time::from_secs(2));
        assert!(TimeDelta::from_millis(999) < TimeDelta::from_secs(1));
    }

    #[test]
    fn display() {
        assert_eq!(Time::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(TimeDelta::from_micros(1).to_string(), "0.000001s");
    }
}
