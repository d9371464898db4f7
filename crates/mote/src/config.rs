//! Configuration of the mote experiment.

use serde::{Deserialize, Serialize};

use scream_netsim::{DataRate, Db, Dbm, SimTime};

/// Parameters of the simulated Mica2 SCREAM-detection experiment.
///
/// The defaults reproduce the setup of Section V-A: 8 motes (1 initiator,
/// 6 relays, 1 monitor), 100 ms SCREAM period, 2000 SCREAMs per run,
/// −60 dBm detection threshold, CC1000-class 38.4 kb/s radio, and a monitor
/// whose moving average only consumes every third RSSI sample because of
/// device/UART limitations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoteExperimentConfig {
    /// SCREAM payload size in bytes (`SMBytes`), the swept parameter of
    /// Figure 4.
    pub scream_bytes: usize,
    /// Number of relay motes (the paper uses 6).
    pub relay_count: usize,
    /// Period between initiator SCREAMs.
    pub scream_interval: SimTime,
    /// Number of SCREAMs the initiator emits during the run.
    pub scream_count: usize,
    /// RSSI detection threshold at relays and monitor.
    pub rssi_threshold_dbm: Dbm,
    /// Received power at the monitor while a single relay transmits (relays
    /// and monitor form a clique a few meters apart).
    pub relay_rx_power_dbm: Dbm,
    /// Received power at the monitor from the initiator. The initiator is
    /// two hops away, so this is below the detection threshold.
    pub initiator_rx_power_dbm: Dbm,
    /// Receiver noise floor.
    pub noise_floor_dbm: Dbm,
    /// Standard deviation of the RSSI measurement noise.
    pub rssi_noise_sigma_db: Db,
    /// Radio serialization rate (CC1000 ≈ 38.4 kb/s).
    pub data_rate: DataRate,
    /// Interval between raw RSSI samples at the monitor.
    pub rssi_sample_period: SimTime,
    /// The monitor only feeds every `ma_sample_stride`-th RSSI sample into
    /// its moving average (the paper samples every 3rd value owing to device
    /// and UART limitations).
    pub ma_sample_stride: usize,
    /// Number of (strided) samples in the moving-average window.
    pub ma_window: usize,
    /// Minimum relay turnaround: time from detecting activity to starting to
    /// re-scream.
    pub relay_turnaround_min: SimTime,
    /// Maximum relay turnaround (uniform between min and max).
    pub relay_turnaround_max: SimTime,
    /// Dead time after a detection during which the monitor does not report
    /// another detection (one SCREAM produces one detection).
    pub detection_holdoff: SimTime,
    /// Relative tolerance on the inter-detection interval: an interval is an
    /// error if it deviates from the SCREAM period by more than this fraction
    /// (the paper uses ±5 %).
    pub interval_tolerance: f64,
    /// Seed for all randomness (turnaround delays, measurement noise).
    pub seed: u64,
}

impl MoteExperimentConfig {
    /// The configuration of Section V-A with the paper's 2000-SCREAM run
    /// length.
    pub fn paper_default() -> Self {
        Self {
            scream_bytes: 24,
            relay_count: 6,
            scream_interval: SimTime::from_millis(100),
            scream_count: 2000,
            rssi_threshold_dbm: Dbm::new(-60.0),
            relay_rx_power_dbm: Dbm::new(-40.0),
            initiator_rx_power_dbm: Dbm::new(-75.0),
            noise_floor_dbm: Dbm::new(-95.0),
            rssi_noise_sigma_db: Db::new(1.5),
            data_rate: DataRate::MICA2,
            rssi_sample_period: SimTime::from_micros(500),
            ma_sample_stride: 3,
            ma_window: 3,
            relay_turnaround_min: SimTime::from_micros(400),
            relay_turnaround_max: SimTime::from_micros(2_000),
            detection_holdoff: SimTime::from_millis(50),
            interval_tolerance: 0.05,
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
    pub fn scream_air_time(&self) -> SimTime {
        self.data_rate.transmission_time(self.scream_bytes)
    }

    /// Validates the structural constraints of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero relays,
    /// zero screams, zero-size scream, an initiator audible at the monitor,
    /// or a non-positive tolerance).
    pub fn validate(&self) {
        assert!(
            self.scream_bytes > 0,
            "a SCREAM must contain at least one byte"
        );
        assert!(
            self.relay_count > 0,
            "the experiment needs at least one relay"
        );
        assert!(
            self.scream_count > 1,
            "need at least two SCREAMs to measure an interval"
        );
        assert!(
            self.initiator_rx_power_dbm < self.rssi_threshold_dbm,
            "the initiator must not be directly detectable at the monitor (it is two hops away)"
        );
        assert!(
            self.relay_rx_power_dbm > self.rssi_threshold_dbm,
            "relays must be detectable at the monitor"
        );
        assert!(self.interval_tolerance > 0.0 && self.interval_tolerance < 1.0);
        assert!(self.ma_window > 0 && self.ma_sample_stride > 0);
    }
}

impl Default for MoteExperimentConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_v() {
        let c = MoteExperimentConfig::paper_default();
        c.validate();
        assert_eq!(c.relay_count, 6);
        assert_eq!(c.scream_interval, SimTime::from_millis(100));
        assert_eq!(c.scream_count, 2000);
        assert_eq!(c.rssi_threshold_dbm.get(), -60.0);
        assert_eq!(c.ma_sample_stride, 3);
        assert_eq!(c.interval_tolerance, 0.05);
        assert_eq!(MoteExperimentConfig::default(), c);
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
    #[should_panic(expected = "two hops away")]
    fn initiator_must_stay_below_threshold_at_the_monitor() {
        let mut c = MoteExperimentConfig::paper_default();
        c.initiator_rx_power_dbm = Dbm::new(-50.0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_scream_is_rejected() {
        let mut c = MoteExperimentConfig::paper_default();
        c.scream_bytes = 0;
        c.validate();
    }
}
