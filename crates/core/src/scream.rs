//! The SCREAM primitive: a collision-resilient network-wide boolean OR.
//!
//! Every node holds a boolean `var`; after the primitive runs for `K` slots,
//! every node knows `var(1) ∨ var(2) ∨ … ∨ var(n)`. A node whose value (or
//! relayed value) is `true` *screams* — transmits `SMBytes` — in every
//! remaining slot; all other nodes listen and start relaying as soon as they
//! detect any channel activity. Because detection is energy-based carrier
//! sensing, simultaneous screams only reinforce each other, which is what
//! makes the primitive deterministic in time and resilient to collisions
//! (Section III-A; validated on motes in Section V and in `scream-mote`).
//!
//! Correctness requires `K ≥ ID(G_S)`: the OR value spreads at most one hop
//! of the sensitivity graph per slot.
//!
//! [`ScreamChannel::new`] checks that precondition against the environment
//! once. From then on every invocation is what Section III-A proves it to
//! be — `K` slots charged, the exact OR at every node — so the channel reads
//! the OR off its inputs instead of flooding it. The flood itself lives in
//! the integration tests' independent oracle, which detects each slot from
//! its own gains and judges this closed form against it.

use scream_netsim::{ProtocolTiming, RadioEnvironment};
use scream_topology::NodeId;

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;

/// A configured SCREAM channel: how many slots each invocation runs for
/// (`K`), checked against the interference diameter of the environment it
/// was built for. Every slot it executes is accounted into a
/// [`ProtocolTiming`] tally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreamChannel {
    scream_slots: usize,
    node_count: usize,
}

impl ScreamChannel {
    /// Creates a channel, verifying that `K` scream slots are enough for the
    /// network-wide OR to be correct on this environment.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::DisconnectedSensitivityGraph`] if the sensitivity
    ///   graph is not strongly connected (no finite `K` works);
    /// * [`ProtocolError::ScreamSlotsTooSmall`] if `K < ID(G_S)`;
    /// * [`ProtocolError::InvalidParameter`] if the configuration is invalid.
    pub fn new(env: &RadioEnvironment, config: &ProtocolConfig) -> Result<Self, ProtocolError> {
        config.validate()?;
        let id = env.interference_diameter();
        if id == usize::MAX {
            return Err(ProtocolError::DisconnectedSensitivityGraph);
        }
        if config.scream_slots < id {
            return Err(ProtocolError::ScreamSlotsTooSmall {
                configured: config.scream_slots,
                interference_diameter: id,
            });
        }
        Ok(Self {
            scream_slots: config.scream_slots,
            node_count: env.node_count(),
        })
    }

    /// Number of slots each invocation runs for (`K`).
    pub fn scream_slots(&self) -> usize {
        self.scream_slots
    }

    /// Number of nodes on the channel.
    pub(crate) fn node_count(&self) -> usize {
        self.node_count
    }

    /// Runs one invocation of the SCREAM primitive.
    ///
    /// `initial[i]` is node `i`'s local `var`; the returned vector is each
    /// node's view of the network-wide OR after `K` slots — the same OR at
    /// every node, which `K ≥ ID(G_S)` guarantees. Nodes not listed
    /// participate passively (relay-only), as required by the paper. The `K`
    /// executed slots are charged to `timing`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NodeVectorLength`] if `initial.len()` differs from
    /// the number of nodes; nothing is charged then.
    pub fn network_or(
        &self,
        initial: &[bool],
        timing: &mut ProtocolTiming,
    ) -> Result<Vec<bool>, ProtocolError> {
        if initial.len() != self.node_count {
            return Err(ProtocolError::NodeVectorLength {
                nodes: self.node_count,
                len: initial.len(),
            });
        }
        timing.add_scream_slots(self.scream_slots as u64);
        Ok(vec![initial.contains(&true); self.node_count])
    }

    /// One invocation in which exactly the nodes of `screamers` scream:
    /// whether anyone did, as every node learns it, charged like
    /// [`network_or`](Self::network_or).
    pub(crate) fn any_screams(&self, screamers: &[NodeId], timing: &mut ProtocolTiming) -> bool {
        timing.add_scream_slots(self.scream_slots as u64);
        !screamers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scream_netsim::PropagationModel;
    use scream_topology::GridDeployment;

    fn line_env(count: usize, spacing: f64) -> RadioEnvironment {
        let d = GridDeployment::new(count, 1, spacing).build();
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d)
    }

    fn timing() -> ProtocolTiming {
        ProtocolTiming::new()
    }

    #[test]
    fn construction_checks_k_against_interference_diameter() {
        let env = line_env(6, 150.0);
        let id = env.interference_diameter();
        assert!((2..usize::MAX).contains(&id));

        let ok = ScreamChannel::new(&env, &ProtocolConfig::paper_default().with_scream_slots(id));
        assert!(ok.is_ok());
        let too_small = ScreamChannel::new(
            &env,
            &ProtocolConfig::paper_default().with_scream_slots(id - 1),
        );
        assert!(matches!(
            too_small,
            Err(ProtocolError::ScreamSlotsTooSmall { .. })
        ));
    }

    #[test]
    fn disconnected_network_is_rejected() {
        // Two nodes 100 km apart cannot even carrier-sense each other.
        let env = line_env(2, 100_000.0);
        let err = ScreamChannel::new(&env, &ProtocolConfig::paper_default()).unwrap_err();
        assert_eq!(err, ProtocolError::DisconnectedSensitivityGraph);
    }

    #[test]
    fn ideal_or_matches_boolean_or() {
        let env = line_env(5, 150.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(10);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        let mut t = timing();
        assert_eq!(
            ch.network_or(&[false, false, true, false, false], &mut t),
            Ok(vec![true; 5])
        );
        assert_eq!(ch.network_or(&[false; 5], &mut t), Ok(vec![false; 5]));
    }

    #[test]
    fn the_id_list_form_reads_what_the_flag_form_floods() {
        // Every single screamer, nobody and everybody: the id-list OR equals
        // node 0's view of the per-node OR and charges the same K slots.
        let env = line_env(7, 140.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(env.interference_diameter());
        let ch = ScreamChannel::new(&env, &config).unwrap();
        let mut lists: Vec<Vec<NodeId>> = (0..7).map(|i| vec![NodeId::new(i)]).collect();
        lists.push(Vec::new());
        lists.push((0..7).map(NodeId::new).collect());
        for screamers in lists {
            let mut flags = vec![false; 7];
            for s in &screamers {
                flags[s.index()] = true;
            }
            let (mut by_flags, mut by_ids) = (timing(), timing());
            let views = ch.network_or(&flags, &mut by_flags).unwrap();
            let heard = ch.any_screams(&screamers, &mut by_ids);
            assert_eq!(heard, views[0], "screamers {screamers:?}");
            assert_eq!(heard, !screamers.is_empty());
            assert_eq!(by_ids, by_flags);
        }
    }

    #[test]
    fn every_invocation_costs_k_scream_slots() {
        let env = line_env(5, 150.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(7);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        let mut t = timing();
        ch.network_or(&[false; 5], &mut t).unwrap();
        ch.network_or(&[true, false, false, false, false], &mut t)
            .unwrap();
        assert_eq!(t.scream_slots, 14);
    }

    #[test]
    fn wrong_input_length_is_an_error() {
        let env = line_env(4, 150.0);
        let ch = ScreamChannel::new(&env, &ProtocolConfig::paper_default()).unwrap();
        let mut t = timing();
        let wrong = ProtocolError::NodeVectorLength { nodes: 4, len: 3 };
        assert_eq!(ch.network_or(&[true; 3], &mut t), Err(wrong));
        assert_eq!(t, timing(), "a refused input is not charged");
    }

    #[test]
    fn accessors_report_configuration() {
        let env = line_env(5, 150.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(9);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        assert_eq!(ch.scream_slots(), 9);
        assert_eq!(ch.node_count(), 5);
    }
}
