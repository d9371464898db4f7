//! Configuration of the mote experiment.

use serde::{Deserialize, Serialize};

use scream_netsim::{DataRate, Db, Dbm, SimTime};

/// Parameters of the simulated Mica2 SCREAM-detection experiment.
///
/// The setup of Section V-A is fixed: 8 motes (1 initiator, 6 relays,
/// 1 monitor), 100 ms SCREAM period, −60 dBm detection threshold,
/// CC1000-class 38.4 kb/s radio, and a monitor whose moving average only
/// consumes every third RSSI sample because of device/UART limitations. Those
/// values are the associated constants; what a run may vary is the SCREAM
/// size (the parameter Figure 4 sweeps), the run length (2000 SCREAMs in the
/// paper) and the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoteExperimentConfig {
    /// SCREAM payload size in bytes (`SMBytes`), the swept parameter of
    /// Figure 4.
    pub(crate) scream_bytes: usize,
    /// Number of SCREAMs the initiator emits during the run.
    pub(crate) scream_count: usize,
    /// Seed for all randomness (turnaround delays, measurement noise).
    pub(crate) seed: u64,
}

impl MoteExperimentConfig {
    /// Number of relay motes (the paper uses 6).
    pub(crate) const RELAY_COUNT: usize = 6;
    /// Period between initiator SCREAMs.
    pub(crate) const SCREAM_INTERVAL: SimTime = SimTime::from_millis(100);
    /// RSSI detection threshold at relays and monitor.
    pub(crate) const RSSI_THRESHOLD_DBM: Dbm = Dbm::new(-60.0);
    /// Received power at the monitor while a single relay transmits (relays
    /// and monitor form a clique a few meters apart).
    pub(crate) const RELAY_RX_POWER_DBM: Dbm = Dbm::new(-40.0);
    /// Received power at the monitor from the initiator. The initiator is
    /// two hops away, so this is below the detection threshold.
    pub(crate) const INITIATOR_RX_POWER_DBM: Dbm = Dbm::new(-75.0);
    /// Receiver noise floor.
    pub(crate) const NOISE_FLOOR_DBM: Dbm = Dbm::new(-95.0);
    /// Standard deviation of the RSSI measurement noise.
    pub(crate) const RSSI_NOISE_SIGMA_DB: Db = Db::new(1.5);
    /// Radio serialization rate (CC1000 ≈ 38.4 kb/s).
    pub(crate) const DATA_RATE: DataRate = DataRate::MICA2;
    /// Interval between raw RSSI samples at the monitor.
    pub(crate) const RSSI_SAMPLE_PERIOD: SimTime = SimTime::from_micros(500);
    /// The monitor only feeds every `MA_SAMPLE_STRIDE`-th RSSI sample into
    /// its moving average (the paper samples every 3rd value owing to device
    /// and UART limitations).
    pub(crate) const MA_SAMPLE_STRIDE: usize = 3;
    /// Number of (strided) samples in the moving-average window.
    pub(crate) const MA_WINDOW: usize = 3;
    /// Minimum relay turnaround: time from detecting activity to starting to
    /// re-scream.
    pub(crate) const RELAY_TURNAROUND_MIN: SimTime = SimTime::from_micros(400);
    /// Maximum relay turnaround (uniform between min and max).
    pub(crate) const RELAY_TURNAROUND_MAX: SimTime = SimTime::from_micros(2_000);
    /// Dead time after a detection during which the monitor does not report
    /// another detection (one SCREAM produces one detection).
    pub(crate) const DETECTION_HOLDOFF: SimTime = SimTime::from_millis(50);
    /// Relative tolerance on the inter-detection interval: an interval is an
    /// error if it deviates from the SCREAM period by more than this fraction
    /// (the paper uses ±5 %).
    pub(crate) const INTERVAL_TOLERANCE: f64 = 0.05;

    /// The configuration of Section V-A with the paper's 2000-SCREAM run
    /// length.
    pub fn paper_default() -> Self {
        Self {
            scream_bytes: 24,
            scream_count: 2000,
            seed: 0,
        }
    }

    /// Sets the SCREAM size in bytes.
    pub fn with_scream_bytes(mut self, bytes: usize) -> Self {
        self.scream_bytes = bytes;
        self
    }

    /// Sets how many SCREAMs the initiator emits.
    pub fn with_scream_count(mut self, count: usize) -> Self {
        self.scream_count = count;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Time the radio needs to serialize one SCREAM onto the air.
    pub(crate) fn scream_air_time(&self) -> SimTime {
        Self::DATA_RATE.transmission_time(self.scream_bytes)
    }

    /// Validates what a caller can set; the constants are checked at compile
    /// time.
    ///
    /// # Panics
    ///
    /// Panics on a zero-size SCREAM or fewer than two SCREAMs.
    pub(crate) fn validate(&self) {
        assert!(
            self.scream_bytes > 0,
            "a SCREAM must contain at least one byte"
        );
        assert!(
            self.scream_count > 1,
            "need at least two SCREAMs to measure an interval"
        );
    }
}

const _: () = {
    type C = MoteExperimentConfig;
    assert!(
        C::RELAY_COUNT > 0,
        "the experiment needs at least one relay"
    );
    assert!(
        C::INITIATOR_RX_POWER_DBM.get() < C::RSSI_THRESHOLD_DBM.get(),
        "the initiator must not be directly detectable at the monitor (it is two hops away)"
    );
    assert!(
        C::RELAY_RX_POWER_DBM.get() > C::RSSI_THRESHOLD_DBM.get(),
        "relays must be detectable at the monitor"
    );
    assert!(C::INTERVAL_TOLERANCE > 0.0 && C::INTERVAL_TOLERANCE < 1.0);
    assert!(C::MA_WINDOW > 0 && C::MA_SAMPLE_STRIDE > 0);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_v() {
        let c = MoteExperimentConfig::paper_default();
        c.validate();
        assert_eq!(MoteExperimentConfig::RELAY_COUNT, 6);
        assert_eq!(
            MoteExperimentConfig::SCREAM_INTERVAL,
            SimTime::from_millis(100)
        );
        assert_eq!(c.scream_count, 2000);
        assert_eq!(MoteExperimentConfig::RSSI_THRESHOLD_DBM.get(), -60.0);
        assert_eq!(MoteExperimentConfig::MA_SAMPLE_STRIDE, 3);
        assert_eq!(MoteExperimentConfig::INTERVAL_TOLERANCE, 0.05);
    }

    #[test]
    fn scream_air_time_scales_with_size() {
        let c = MoteExperimentConfig::paper_default();
        // 24 bytes at 38.4 kb/s = 5 ms.
        assert_eq!(c.scream_air_time(), SimTime::from_millis(5));
        assert_eq!(
            c.with_scream_bytes(48).scream_air_time(),
            SimTime::from_millis(10)
        );
    }

    #[test]
    fn builder_setters_work() {
        let c = MoteExperimentConfig::paper_default()
            .with_scream_bytes(10)
            .with_scream_count(500)
            .with_seed(7);
        assert_eq!(c.scream_bytes, 10);
        assert_eq!(c.scream_count, 500);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_scream_is_rejected() {
        let mut c = MoteExperimentConfig::paper_default();
        c.scream_bytes = 0;
        c.validate();
    }
}
