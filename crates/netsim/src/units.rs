//! Simulation time and data-rate units, plus the power and length units of
//! the link budget ([`Dbm`], [`Db`], [`Mw`], [`Meters`], re-exported from
//! `scream_topology::units`, which defines their algebra).
//!
//! Simulated time is kept as an integer number of nanoseconds so that event
//! ordering is exact and runs are bit-reproducible; floating-point seconds
//! are only used at the reporting boundary.

use serde::{Deserialize, Serialize};

pub use scream_topology::units::{Db, Dbm, Meters, Mw};

/// A point in simulated time, in integer nanoseconds since the start of the
/// simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// The time as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The time as integer microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor (saturating).
    pub fn saturating_mul(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A radio data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DataRate(u64);

impl DataRate {
    /// The time needed to serialize `bytes` bytes onto the air at this rate.
    ///
    /// ```
    /// use scream_netsim::{DataRate, SimTime};
    /// // 24 bytes at 38.4 kb/s = 192 bits / 38 400 b/s.
    /// assert_eq!(DataRate::MICA2.transmission_time(24), SimTime::from_millis(5));
    /// ```
    pub fn transmission_time(self, bytes: usize) -> SimTime {
        let bits = bytes as u128 * 8;
        let nanos = bits * 1_000_000_000 / self.0 as u128;
        SimTime::from_nanos(nanos as u64)
    }

    /// The IEEE 802.11b-era 11 Mb/s rate used as the default mesh backbone
    /// rate in this reproduction.
    pub(crate) const MBPS_11: DataRate = DataRate(11_000_000);

    /// The Mica2 CC1000 radio rate (~38.4 kb/s) used by the mote experiment.
    pub const MICA2: DataRate = DataRate(38_400);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn simtime_from_secs_f64_saturates_on_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b * 4, SimTime::from_millis(12));
        assert_eq!(a.saturating_sub(SimTime::from_millis(1_000)), SimTime::ZERO);
    }

    #[test]
    fn simtime_roundtrips_to_seconds() {
        let t = SimTime::from_micros(123_456);
        assert!((t.as_secs_f64() - 0.123456).abs() < 1e-12);
        assert_eq!(t.as_micros(), 123_456);
    }

    #[test]
    fn simtime_display_picks_sensible_units() {
        assert_eq!(SimTime::from_millis(2_000).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_micros(7).to_string(), "7.000us");
        assert_eq!(SimTime::from_nanos(9).to_string(), "9ns");
    }

    #[test]
    fn datarate_transmission_time() {
        // 24 bytes at 38.4 kb/s = 192 bits / 38400 bps = 5 ms.
        assert_eq!(
            DataRate::MICA2.transmission_time(24),
            SimTime::from_millis(5)
        );
        // 1500 bytes at 11 Mb/s ~ 1.09 ms.
        let t = DataRate::MBPS_11.transmission_time(1500);
        assert!(t > SimTime::from_micros(1_000) && t < SimTime::from_micros(1_200));
    }
}
