//! Protocol configuration shared by PDD, FDD and the SCREAM primitive.

use serde::{Deserialize, Serialize};

use scream_netsim::ClockSkewConfig;

use crate::error::ProtocolError;

/// Configuration of a distributed scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Number of SCREAM slots `K` per invocation of the primitive. Must be at
    /// least the interference diameter of the sensitivity graph for the
    /// network-wide OR to be correct; the paper's simulations use `K = 5`.
    pub scream_slots: usize,
    /// Number of bytes transmitted by `Scream()` (`SMBytes`). The paper's
    /// simulations use 15 bytes; the mote experiments show ≥ 15–20 bytes make
    /// detection reliable.
    pub scream_bytes: usize,
    /// Clock-skew bound the protocol must compensate for (guard intervals are
    /// derived from it).
    pub clock_skew: ClockSkewConfig,
    /// Seed for all protocol-level randomness (PDD active selection,
    /// clock-offset draws).
    pub seed: u64,
    /// Safety bound on the number of rounds (slots) before the run is
    /// declared stuck. Defaults to 4× the total demand, which the protocols
    /// can never legitimately exceed because every round schedules at least
    /// the controller's edge.
    pub max_rounds: Option<u64>,
}

impl ProtocolConfig {
    /// The paper's simulation setting: `K = 5`, 15-byte SCREAMs, perfect
    /// clocks, seed 0.
    pub fn paper_default() -> Self {
        Self {
            scream_slots: 5,
            scream_bytes: 15,
            clock_skew: ClockSkewConfig::PERFECT,
            seed: 0,
            max_rounds: None,
        }
    }

    /// Sets the number of SCREAM slots `K`.
    pub fn with_scream_slots(mut self, k: usize) -> Self {
        self.scream_slots = k;
        self
    }

    /// Sets the SCREAM payload size in bytes.
    pub fn with_scream_bytes(mut self, bytes: usize) -> Self {
        self.scream_bytes = bytes;
        self
    }

    /// Sets the clock-skew bound.
    pub fn with_clock_skew(mut self, skew: ClockSkewConfig) -> Self {
        self.clock_skew = skew;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit round limit.
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Validates the structural parameters (those that do not depend on the
    /// radio environment).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `K` is zero or the
    /// SCREAM payload is empty.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.scream_slots == 0 {
            return Err(ProtocolError::InvalidParameter(
                "the SCREAM primitive needs at least one slot (K >= 1)".into(),
            ));
        }
        if self.scream_bytes == 0 {
            return Err(ProtocolError::InvalidParameter(
                "a SCREAM must transmit at least one byte".into(),
            ));
        }
        Ok(())
    }

    /// The effective round limit for a given total demand.
    pub fn round_limit(&self, total_demand: u64) -> u64 {
        self.max_rounds.unwrap_or_else(|| 4 * total_demand.max(1))
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scream_netsim::SimTime;

    #[test]
    fn paper_default_matches_section_vi() {
        let c = ProtocolConfig::paper_default();
        assert_eq!(c.scream_slots, 5);
        assert_eq!(c.scream_bytes, 15);
        assert_eq!(c.clock_skew, ClockSkewConfig::PERFECT);
        assert_eq!(ProtocolConfig::default(), c);
        c.validate().unwrap();
    }

    #[test]
    fn builder_setters_update_fields() {
        let c = ProtocolConfig::paper_default()
            .with_scream_slots(9)
            .with_scream_bytes(24)
            .with_clock_skew(ClockSkewConfig::new(SimTime::from_micros(50)))
            .with_seed(99)
            .with_max_rounds(123);
        assert_eq!(c.scream_slots, 9);
        assert_eq!(c.scream_bytes, 24);
        assert_eq!(c.clock_skew.bound, SimTime::from_micros(50));
        assert_eq!(c.seed, 99);
        assert_eq!(c.max_rounds, Some(123));
        assert_eq!(c.round_limit(1000), 123);
    }

    #[test]
    fn default_round_limit_scales_with_demand() {
        let c = ProtocolConfig::paper_default();
        assert_eq!(c.round_limit(100), 400);
        assert_eq!(c.round_limit(0), 4);
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(ProtocolConfig::paper_default()
            .with_scream_slots(0)
            .validate()
            .is_err());
        assert!(ProtocolConfig::paper_default()
            .with_scream_bytes(0)
            .validate()
            .is_err());
    }
}
