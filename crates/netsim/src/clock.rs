//! Bounded clock skew.
//!
//! The protocols assume "all nodes have their clocks synchronized to a global
//! time, within a reasonable degree of accuracy" (Section II) and the
//! evaluation studies how the execution time degrades as the skew bound grows
//! (Section VI-C, Figure 9). The model is the bound alone: every node's
//! offset from the global clock lies in `[-bound, +bound]`, and protocol slot
//! timings add guard intervals sized from the bound so that slot boundaries
//! never overlap across nodes — the "implementations compensate for the clock
//! skew" behaviour described in the paper.

use serde::{Deserialize, Serialize};

use crate::units::SimTime;

/// Configuration of the clock-skew model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClockSkewConfig {
    /// Maximum absolute offset of any node's clock from global time.
    pub bound: SimTime,
}

impl ClockSkewConfig {
    /// Perfectly synchronized clocks (zero skew).
    pub const PERFECT: ClockSkewConfig = ClockSkewConfig {
        bound: SimTime::ZERO,
    };

    /// Creates a configuration with the given bound.
    pub const fn new(bound: SimTime) -> Self {
        Self { bound }
    }

    /// GPS-grade synchronization (±1 µs), easily achieved by GPS-equipped
    /// mesh routers per the paper's discussion.
    pub fn gps() -> Self {
        Self::new(SimTime::from_micros(1))
    }

    /// Distributed-synchronization grade (±100 µs), achievable with software
    /// sync protocols for typical mesh sizes per the paper's discussion.
    pub fn distributed_sync() -> Self {
        Self::new(SimTime::from_micros(100))
    }

    /// The guard interval that must be added to every synchronized slot so that a
    /// maximally-early node and a maximally-late node still overlap for the
    /// whole nominal slot: twice the bound.
    pub(crate) fn guard_interval(&self) -> SimTime {
        self.bound.saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_interval_is_twice_the_bound() {
        let cfg = ClockSkewConfig::new(SimTime::from_micros(50));
        assert_eq!(cfg.guard_interval(), SimTime::from_micros(100));
        assert_eq!(ClockSkewConfig::PERFECT.guard_interval(), SimTime::ZERO);
    }

    #[test]
    fn named_profiles_match_the_paper_discussion() {
        assert_eq!(ClockSkewConfig::gps().bound, SimTime::from_micros(1));
        assert_eq!(
            ClockSkewConfig::distributed_sync().bound,
            SimTime::from_micros(100)
        );
    }
}
