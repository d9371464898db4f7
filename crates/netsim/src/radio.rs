//! Radio front-end configuration: noise floor, SINR threshold, carrier-sense
//! threshold, data rate and frame sizes.

use serde::{Deserialize, Serialize};

use crate::units::DataRate;

/// Identifier of one orthogonal frequency channel.
///
/// The physical interference model is per-channel: transmissions on
/// different channels do not interfere, so interference sums (and hence
/// SINR feasibility) only accrue among links assigned to the same channel.
/// Channel 0 is the single shared channel of the original SCREAM setting;
/// multi-channel scenarios index channels `0..channel_count` (see
/// [`RadioConfig::channel_count`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// The default (single-channel) channel.
    pub const ZERO: ChannelId = ChannelId(0);

    /// Creates a channel id.
    pub fn new(id: u16) -> Self {
        ChannelId(id)
    }

    /// The channel id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Physical-layer parameters shared by all nodes in a radio environment.
///
/// The SINR threshold `β` is the constant from the physical interference
/// model of Section II ("a constant that depends on the desired data rate,
/// modulation scheme, etc."). The carrier-sense threshold is the energy level
/// above which a listening radio reports channel activity — the mechanism
/// SCREAM builds its network-wide OR on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Background noise power `N`, in dBm (thermal noise plus receiver noise
    /// figure over the channel bandwidth).
    pub noise_floor_dbm: f64,
    /// SINR threshold `β`, in dB. A transmission is decodable iff its SINR is
    /// at least this value.
    pub sinr_threshold_db: f64,
    /// Carrier-sense (energy-detection) threshold, in dBm. A listening node
    /// detects activity iff the total received power exceeds this value.
    pub carrier_sense_threshold_dbm: f64,
    /// Link data rate used for data packets and ACKs.
    pub data_rate: DataRate,
    /// Size of a data packet, in bytes (payload plus headers).
    pub data_packet_bytes: usize,
    /// Size of a link-layer ACK, in bytes.
    pub ack_bytes: usize,
    /// Number of orthogonal frequency channels available to the schedulers.
    /// Interference only accrues within a channel; the original SCREAM
    /// setting is `1` (a single shared channel).
    pub channel_count: usize,
}

impl RadioConfig {
    /// Default configuration for an 802.11-class mesh backbone:
    /// −100 dBm noise floor, β = 10 dB, −91 dBm carrier-sense threshold,
    /// 11 Mb/s, 1500-byte data packets, 38-byte ACKs.
    pub fn mesh_default() -> Self {
        Self {
            noise_floor_dbm: -100.0,
            sinr_threshold_db: 10.0,
            carrier_sense_threshold_dbm: -91.0,
            data_rate: DataRate::MBPS_11,
            data_packet_bytes: 1500,
            ack_bytes: 38,
            channel_count: 1,
        }
    }

    /// Sets the SINR threshold `β` in dB.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not finite.
    pub fn with_sinr_threshold_db(mut self, beta_db: f64) -> Self {
        assert!(beta_db.is_finite(), "SINR threshold must be finite");
        self.sinr_threshold_db = beta_db;
        self
    }

    /// Sets the noise floor in dBm.
    pub fn with_noise_floor_dbm(mut self, dbm: f64) -> Self {
        self.noise_floor_dbm = dbm;
        self
    }

    /// Sets the number of orthogonal channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero (there must always be at least the one
    /// shared channel) or does not fit a [`ChannelId`].
    pub fn with_channel_count(mut self, channels: usize) -> Self {
        assert!(channels >= 1, "at least one channel is required");
        assert!(
            channels <= u16::MAX as usize + 1,
            "channel count {channels} exceeds the ChannelId range"
        );
        self.channel_count = channels;
        self
    }

    /// Noise power in milliwatts.
    pub fn noise_floor_mw(&self) -> f64 {
        dbm_to_mw(self.noise_floor_dbm)
    }

    /// SINR threshold as a linear ratio.
    pub fn sinr_threshold_linear(&self) -> f64 {
        10f64.powf(self.sinr_threshold_db / 10.0)
    }

    /// Carrier-sense threshold in milliwatts.
    pub fn carrier_sense_threshold_mw(&self) -> f64 {
        dbm_to_mw(self.carrier_sense_threshold_dbm)
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self::mesh_default()
    }
}

// Re-exported here so the crate is usable without `scream-topology` in scope.
pub use scream_topology::node::{dbm_to_mw, mw_to_dbm};

/// Converts a relative dB quantity (path loss, fading margin, gain) to the
/// equivalent linear power *ratio*. Numerically identical to [`dbm_to_mw`],
/// but dimensionally distinct: dB is a ratio, dBm an absolute power. Use
/// this for `-loss_db`-style arguments so the units stay honest.
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to relative dB. Non-positive ratios map to
/// negative infinity, mirroring [`mw_to_dbm`].
// lint:allow(S1.caller, reason = "the inverse U1.conv tells callers to use for a linear ratio; its property pins it to mw_to_dbm bit for bit")
pub fn linear_to_db(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * ratio.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_mesh_default() {
        assert_eq!(RadioConfig::default(), RadioConfig::mesh_default());
    }

    #[test]
    fn linear_conversions_are_consistent() {
        let c = RadioConfig::mesh_default();
        assert!((mw_to_dbm(c.noise_floor_mw()) - c.noise_floor_dbm).abs() < 1e-9);
        assert!((c.sinr_threshold_linear() - 10.0).abs() < 1e-9);
        assert!(
            (mw_to_dbm(c.carrier_sense_threshold_mw()) - c.carrier_sense_threshold_dbm).abs()
                < 1e-9
        );
    }

    mod conversion_properties {
        use super::*;
        use crate::case_stream;
        use rand::Rng;

        const CASES: u32 = 256;

        /// dBm↔mW round-trips: the refactor that introduced the
        /// dB-ratio helpers must keep the absolute-power pair exact.
        #[test]
        fn dbm_mw_round_trip() {
            for case in 0..CASES {
                let x = case_stream("dbm_mw_round_trip", case).gen_range(-120.0f64..60.0);
                let back = mw_to_dbm(dbm_to_mw(x));
                assert!(
                    (back - x).abs() < 1e-9,
                    "property 'dbm_mw_round_trip' failed at case {case}: {x} -> {back}"
                );
            }
        }

        /// `db_to_linear` is numerically identical to `dbm_to_mw` (the
        /// distinction is dimensional, not arithmetic), so migrating
        /// `dbm_to_mw(-loss_db)` call sites is behavior-preserving.
        #[test]
        fn db_to_linear_matches_dbm_to_mw() {
            for case in 0..CASES {
                let x =
                    case_stream("db_to_linear_matches_dbm_to_mw", case).gen_range(-200.0f64..60.0);
                assert_eq!(
                    db_to_linear(x).to_bits(),
                    dbm_to_mw(x).to_bits(),
                    "property 'db_to_linear_matches_dbm_to_mw' failed at case {case}: {x}"
                );
            }
        }

        /// And the inverse pair agrees wherever both are defined.
        #[test]
        fn linear_to_db_matches_mw_to_dbm() {
            for case in 0..CASES {
                let r =
                    case_stream("linear_to_db_matches_mw_to_dbm", case).gen_range(1e-20f64..1e6);
                assert_eq!(
                    linear_to_db(r).to_bits(),
                    mw_to_dbm(r).to_bits(),
                    "property 'linear_to_db_matches_mw_to_dbm' failed at case {case}: {r}"
                );
                let back = db_to_linear(linear_to_db(r));
                assert!(
                    (back - r).abs() <= 1e-9 * r,
                    "property 'linear_to_db_matches_mw_to_dbm' failed at case {case}: {r} -> {back}"
                );
            }
        }
    }

    #[test]
    fn builder_style_setters_update_fields() {
        let c = RadioConfig::mesh_default()
            .with_sinr_threshold_db(6.0)
            .with_noise_floor_dbm(-95.0);
        assert_eq!(c.sinr_threshold_db, 6.0);
        assert_eq!(c.noise_floor_dbm, -95.0);
    }

    #[test]
    fn default_channel_count_is_single_channel() {
        assert_eq!(RadioConfig::mesh_default().channel_count, 1);
        let c = RadioConfig::mesh_default().with_channel_count(4);
        assert_eq!(c.channel_count, 4);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_are_rejected() {
        let _ = RadioConfig::mesh_default().with_channel_count(0);
    }

    #[test]
    fn channel_ids_order_index_and_display() {
        assert_eq!(ChannelId::ZERO, ChannelId::new(0));
        assert_eq!(ChannelId::default(), ChannelId::ZERO);
        assert!(ChannelId::new(1) > ChannelId::ZERO);
        assert_eq!(ChannelId::new(3).index(), 3);
        assert_eq!(ChannelId::new(2).to_string(), "ch2");
    }

    #[test]
    fn carrier_sense_threshold_is_below_decoding_requirement() {
        // Energy detection must trigger on signals too weak to decode,
        // otherwise SCREAM relaying would be no more robust than decoding.
        let c = RadioConfig::mesh_default();
        assert!(c.carrier_sense_threshold_dbm < c.noise_floor_dbm + c.sinr_threshold_db + 20.0);
    }
}
