//! Virtual time.
//!
//! The discrete-event simulator measures everything in integer nanoseconds
//! since the start of the run. Using a plain `u64` newtype keeps event
//! ordering exact and cheap (no floating point in the hot path) and gives
//! ~584 years of range, vastly more than any run needs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A point in virtual time (nanoseconds since the start of the simulation)
/// or a span of virtual time, depending on context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);

    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Nanos(us * NANOS_PER_MICRO)
    }

    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Nanos(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Nanos(s * NANOS_PER_SEC)
    }

    /// Fractional microseconds, rounded to the nearest nanosecond. Handy for
    /// cost-model parameters expressed like the paper's `64 µs`.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0);
        Nanos((us * NANOS_PER_MICRO as f64).round() as u64)
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating subtraction: time never goes negative.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Scale a duration by a dimensionless factor (e.g. a lock-overhead
    /// multiplier), rounding to the nearest nanosecond.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0);
        Nanos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl From<Nanos> for std::time::Duration {
    fn from(n: Nanos) -> Self {
        std::time::Duration::from_nanos(n.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.0 as f64 / NANOS_PER_MILLI as f64)
        } else if self.0 >= NANOS_PER_MICRO {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_micros(64).0, 64_000);
        assert_eq!(Nanos::from_millis(2).0, 2_000_000);
        assert_eq!(Nanos::from_secs(1).0, NANOS_PER_SEC);
        assert_eq!(Nanos::from_micros_f64(0.5).0, 500);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(b.saturating_sub(a), Nanos(0));
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos(140));
    }

    #[test]
    fn scaling() {
        assert_eq!(Nanos(1000).scale(1.132), Nanos(1132));
        assert_eq!(Nanos(1000).scale(0.0), Nanos(0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos(5_000).to_string(), "5.000µs");
        assert_eq!(Nanos(5_000_000).to_string(), "5.000ms");
        assert_eq!(Nanos(5_000_000_000).to_string(), "5.000s");
    }

    #[test]
    fn micros_roundtrip() {
        let n = Nanos::from_micros_f64(73.25);
        assert!((n.as_micros_f64() - 73.25).abs() < 1e-9);
    }
}
