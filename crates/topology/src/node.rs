//! Node identifiers and per-node physical attributes.
//!
//! The paper assumes every node has a globally unique identifier (e.g. its
//! MAC address) which is used for leader election, and a fixed transmit power
//! which may differ between nodes (no power control, Section II).

use serde::{Deserialize, Serialize};

use crate::geometry::Point2;
use crate::units::{Dbm, Mw};

/// Identifier of a mesh node.
///
/// Node ids double as indices into the deployment's node vector, and as the
/// unique ids compared by the bitwise leader-election procedure of
/// Section III-B. Distinct nodes always carry distinct ids.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from its raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Raw index value.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Number of bits needed to represent ids up to `n` distinct nodes
    /// (`id_bits` in the leader-election pseudocode of the paper).
    ///
    /// ```
    /// use scream_topology::NodeId;
    /// assert_eq!(NodeId::id_bits(64), 6);
    /// assert_eq!(NodeId::id_bits(65), 7);
    /// assert_eq!(NodeId::id_bits(1), 1);
    /// ```
    pub fn id_bits(n: usize) -> u32 {
        if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()).max(1)
        }
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Physical attributes of a single mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Unique identifier of the node.
    pub id: NodeId,
    /// Position of the node in the deployment region, in meters.
    pub position: Point2,
    /// Fixed transmit power, in dBm. Nodes may use different powers but a
    /// node never changes its own (no transmit power control, Section II).
    pub tx_power_dbm: f64,
}

impl NodeInfo {
    /// Creates a node with the given id, position and power.
    pub fn new(id: NodeId, position: Point2, tx_power: Dbm) -> Self {
        Self {
            id,
            position,
            tx_power_dbm: tx_power.get(),
        }
    }

    /// Transmit power in milliwatts.
    pub fn tx_power_mw(&self) -> Mw {
        Dbm::new(self.tx_power_dbm).to_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips_through_u32() {
        let id = NodeId::new(17);
        assert_eq!(u32::from(id), 17);
        assert_eq!(NodeId::from(17u32), id);
        assert_eq!(id.index(), 17);
    }

    #[test]
    fn id_bits_matches_ceil_log2() {
        assert_eq!(NodeId::id_bits(0), 1);
        assert_eq!(NodeId::id_bits(1), 1);
        assert_eq!(NodeId::id_bits(2), 1);
        assert_eq!(NodeId::id_bits(3), 2);
        assert_eq!(NodeId::id_bits(4), 2);
        assert_eq!(NodeId::id_bits(5), 3);
        assert_eq!(NodeId::id_bits(64), 6);
        assert_eq!(NodeId::id_bits(100), 7);
        assert_eq!(NodeId::id_bits(128), 7);
        assert_eq!(NodeId::id_bits(129), 8);
    }

    #[test]
    fn every_id_below_n_is_representable_in_id_bits() {
        for n in 1..200usize {
            let bits = NodeId::id_bits(n);
            for raw in 0..n as u32 {
                // The highest set bit of any id must fall within id_bits.
                assert!(
                    raw < (1u32 << bits),
                    "id {raw} not representable in {bits} bits for n={n}"
                );
            }
        }
    }

    #[test]
    fn dbm_mw_conversions_are_inverse() {
        for dbm in [-90.0, -30.0, 0.0, 10.0, 20.0, 30.0] {
            let mw = Dbm::new(dbm).to_mw();
            assert!((mw.to_dbm().get() - dbm).abs() < 1e-9);
        }
        assert!((Dbm::new(0.0).to_mw().get() - 1.0).abs() < 1e-12);
        assert!((Dbm::new(30.0).to_mw().get() - 1000.0).abs() < 1e-9);
        assert_eq!(Mw::new(0.0).to_dbm().get(), f64::NEG_INFINITY);
        let node = NodeInfo::new(NodeId::new(3), Point2::new(1.0, 2.0), Dbm::new(20.0));
        assert!((node.tx_power_mw().get() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn node_id_ordering_follows_raw_value() {
        assert!(NodeId::new(5) > NodeId::new(4));
        assert_eq!(NodeId::new(7).max(NodeId::new(3)), NodeId::new(7));
    }
}
