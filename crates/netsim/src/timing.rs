//! Timing model of the distributed protocols.
//!
//! The schedule computed by PDD/FDD is expressed in abstract slots, but the
//! *execution time* of the protocols themselves (Figures 8 and 9 of the
//! paper) is measured in wall-clock seconds and depends on how long each
//! synchronized protocol step takes on the air: how many bytes a SCREAM
//! transmits, how large data packets and ACKs are, the radio data rate, and
//! the guard interval added around every globally synchronized step to
//! compensate for clock skew.

use serde::{Deserialize, Serialize};

use crate::clock::ClockSkewConfig;
use crate::radio::RadioConfig;
use crate::units::SimTime;

/// Durations of the elementary synchronized steps the protocols execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotTiming {
    /// Duration of a single SCREAM slot (one hop of the carrier-sensing
    /// flood): the time to transmit `SMBytes` plus turnaround and guard time.
    pub(crate) scream_slot: SimTime,
    /// Duration of one two-way handshake step: data sub-slot plus ACK
    /// sub-slot plus turnaround and guard time.
    pub(crate) handshake_slot: SimTime,
    /// Fixed overhead charged for every `GlobalSync()` barrier (processing
    /// and radio turnaround), in addition to the guard interval already
    /// folded into the slot durations.
    pub(crate) sync_overhead: SimTime,
}

impl SlotTiming {
    /// Radio/MAC turnaround time between receive and transmit (SIFS-like).
    pub(crate) const TURNAROUND: SimTime = SimTime::from_micros(10);

    /// Derives slot durations from the radio's data rate and frame sizes
    /// ([`RadioConfig`]'s constants), the SCREAM payload size and the
    /// clock-skew guard.
    ///
    /// * a SCREAM slot is `scream_bytes` on the air plus turnaround plus the
    ///   guard interval;
    /// * a handshake slot is a data packet plus an ACK, two turnarounds and
    ///   the guard interval (data and ACK live in separate sub-slots per the
    ///   model of Section II);
    /// * every synchronized step additionally pays `sync_overhead`.
    pub fn derive(scream_bytes: usize, skew: ClockSkewConfig) -> Self {
        let guard = skew.guard_interval();
        let scream_tx = RadioConfig::DATA_RATE.transmission_time(scream_bytes);
        let data_tx = RadioConfig::DATA_RATE.transmission_time(RadioConfig::DATA_PACKET_BYTES);
        let ack_tx = RadioConfig::DATA_RATE.transmission_time(RadioConfig::ACK_BYTES);
        Self {
            scream_slot: scream_tx + Self::TURNAROUND + guard,
            handshake_slot: data_tx + ack_tx + Self::TURNAROUND * 2 + guard,
            sync_overhead: SimTime::from_micros(5) + guard,
        }
    }
}

/// Running tally of synchronized protocol steps, convertible to wall-clock
/// execution time.
///
/// The distributed runtime increments these counters as it executes; the
/// figure-reproduction harness then reads off the execution time exactly the
/// way the paper reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProtocolTiming {
    /// Number of SCREAM slots executed (every node participates in each).
    pub scream_slots: u64,
    /// Number of two-way-handshake steps executed.
    pub handshake_slots: u64,
    /// Number of `GlobalSync()` barriers executed outside SCREAM slots.
    pub sync_steps: u64,
}

impl ProtocolTiming {
    /// A zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` SCREAM slots.
    pub fn add_scream_slots(&mut self, count: u64) {
        self.scream_slots += count;
    }

    /// Records one handshake step.
    pub fn add_handshake_slot(&mut self) {
        self.handshake_slots += 1;
    }

    /// Records one global synchronization barrier.
    pub fn add_sync_step(&mut self) {
        self.sync_steps += 1;
    }

    /// Total number of synchronized steps of any kind.
    pub fn total_steps(&self) -> u64 {
        self.scream_slots + self.handshake_slots + self.sync_steps
    }

    /// Wall-clock execution time under the given slot timing.
    pub fn execution_time(&self, timing: &SlotTiming) -> SimTime {
        timing.scream_slot.saturating_mul(self.scream_slots)
            + timing.handshake_slot.saturating_mul(self.handshake_slots)
            + timing.sync_overhead.saturating_mul(self.sync_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot timing for the paper's default simulation setting: 15-byte
    /// SCREAMs, 11 Mb/s, perfect clocks.
    fn paper_timing() -> SlotTiming {
        SlotTiming::derive(15, ClockSkewConfig::PERFECT)
    }

    #[test]
    fn derived_slots_scale_with_scream_size() {
        let small = SlotTiming::derive(5, ClockSkewConfig::PERFECT);
        let large = SlotTiming::derive(60, ClockSkewConfig::PERFECT);
        assert!(large.scream_slot > small.scream_slot);
        assert_eq!(large.handshake_slot, small.handshake_slot);
    }

    #[test]
    fn derived_slots_scale_with_clock_skew() {
        let tight = SlotTiming::derive(15, ClockSkewConfig::gps());
        let loose = SlotTiming::derive(15, ClockSkewConfig::new(SimTime::from_millis(10)));
        assert!(loose.scream_slot > tight.scream_slot);
        assert!(loose.handshake_slot > tight.handshake_slot);
        assert!(loose.sync_overhead > tight.sync_overhead);
        // The skew contribution dominates for large bounds: 10 ms skew means
        // a 20 ms guard on a ~11 us scream transmission.
        assert!(loose.scream_slot >= SimTime::from_millis(20));
    }

    #[test]
    fn handshake_slot_is_longer_than_scream_slot() {
        // A 1500-byte data packet plus ACK always outweighs a short scream.
        let t = paper_timing();
        assert!(t.handshake_slot > t.scream_slot);
    }

    #[test]
    fn protocol_timing_accumulates_and_converts() {
        let t = paper_timing();
        let mut p = ProtocolTiming::new();
        assert_eq!(p.execution_time(&t), SimTime::ZERO);
        p.add_scream_slots(10);
        p.add_handshake_slot();
        p.add_sync_step();
        assert_eq!(p.total_steps(), 12);
        let expected = t.scream_slot * 10 + t.handshake_slot + t.sync_overhead;
        assert_eq!(p.execution_time(&t), expected);
    }

    #[test]
    fn execution_time_monotone_in_every_counter() {
        let t = paper_timing();
        let base = ProtocolTiming {
            scream_slots: 100,
            handshake_slots: 50,
            sync_steps: 20,
        };
        for (ds, dh, dy) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            let more = ProtocolTiming {
                scream_slots: base.scream_slots + ds,
                handshake_slots: base.handshake_slots + dh,
                sync_steps: base.sync_steps + dy,
            };
            assert!(more.execution_time(&t) > base.execution_time(&t));
        }
    }
}
