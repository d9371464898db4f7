//! Radio front-end configuration: noise floor, SINR threshold and channel
//! count, plus the carrier-sense threshold, data rate and frame sizes every
//! configuration shares.

use serde::{Deserialize, Serialize};

use crate::units::{DataRate, Db, Dbm, Mw};

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
    /// Background noise power `N` (thermal noise plus receiver noise figure
    /// over the channel bandwidth).
    pub noise_floor_dbm: Dbm,
    /// SINR threshold `β`. A transmission is decodable iff its SINR is at
    /// least this value.
    pub sinr_threshold_db: Db,
    /// Number of orthogonal frequency channels available to the schedulers.
    /// Interference only accrues within a channel; the original SCREAM
    /// setting is `1` (a single shared channel).
    pub channel_count: usize,
}

impl RadioConfig {
    /// Carrier-sense (energy-detection) threshold of an 802.11-class radio.
    /// A listening node detects activity iff the total received power
    /// exceeds this value.
    pub const CARRIER_SENSE_THRESHOLD_DBM: Dbm = Dbm::new(-91.0);
    /// Link data rate used for data packets and ACKs.
    pub(crate) const DATA_RATE: DataRate = DataRate::MBPS_11;
    /// Size of a data packet, in bytes (payload plus headers).
    pub(crate) const DATA_PACKET_BYTES: usize = 1500;
    /// Size of a link-layer ACK, in bytes.
    pub(crate) const ACK_BYTES: usize = 38;

    /// Default configuration for an 802.11-class mesh backbone:
    /// −100 dBm noise floor, β = 10 dB, one channel.
    pub fn mesh_default() -> Self {
        Self {
            noise_floor_dbm: Dbm::new(-100.0),
            sinr_threshold_db: Db::new(10.0),
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
        self.sinr_threshold_db = Db::new(beta_db);
        self
    }

    /// Sets the noise floor.
    pub fn with_noise_floor_dbm(mut self, noise: Dbm) -> Self {
        self.noise_floor_dbm = noise;
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
    pub fn noise_floor_mw(&self) -> Mw {
        self.noise_floor_dbm.to_mw()
    }

    /// SINR threshold as a linear ratio.
    pub(crate) fn sinr_threshold_linear(&self) -> f64 {
        self.sinr_threshold_db.to_linear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_conversions_are_consistent() {
        let c = RadioConfig::mesh_default();
        assert!(
            (c.noise_floor_mw().to_dbm() - c.noise_floor_dbm)
                .get()
                .abs()
                < 1e-9
        );
        assert!((c.sinr_threshold_linear() - 10.0).abs() < 1e-9);
    }

    mod conversion_properties {
        use super::*;
        use crate::case_stream;
        use rand::Rng;

        const CASES: u32 = 256;

        /// dBm↔mW round-trips: `Dbm::to_mw` and `Mw::to_dbm` are inverse.
        #[test]
        fn dbm_mw_round_trip() {
            for case in 0..CASES {
                let x = case_stream("dbm_mw_round_trip", case).gen_range(-120.0f64..60.0);
                let back = Dbm::new(x).to_mw().to_dbm().get();
                assert!(
                    (back - x).abs() < 1e-9,
                    "property 'dbm_mw_round_trip' failed at case {case}: {x} -> {back}"
                );
            }
        }

        /// `Db::to_linear` is numerically identical to `Dbm::to_mw` (the
        /// distinction is dimensional, not arithmetic).
        #[test]
        fn db_to_linear_matches_dbm_to_mw() {
            for case in 0..CASES {
                let x =
                    case_stream("db_to_linear_matches_dbm_to_mw", case).gen_range(-200.0f64..60.0);
                assert_eq!(
                    Db::new(x).to_linear().to_bits(),
                    Dbm::new(x).to_mw().get().to_bits(),
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
                    Db::from_linear(r).get().to_bits(),
                    Mw::new(r).to_dbm().get().to_bits(),
                    "property 'linear_to_db_matches_mw_to_dbm' failed at case {case}: {r}"
                );
                let back = Db::from_linear(r).to_linear();
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
            .with_noise_floor_dbm(Dbm::new(-95.0));
        assert_eq!(c.sinr_threshold_db.get(), 6.0);
        assert_eq!(c.noise_floor_dbm.get(), -95.0);
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
        assert!(
            RadioConfig::CARRIER_SENSE_THRESHOLD_DBM
                < c.noise_floor_dbm + c.sinr_threshold_db + Db::new(20.0)
        );
    }
}
