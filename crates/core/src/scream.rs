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

use scream_netsim::{ProtocolTiming, RadioEnvironment};
use scream_topology::NodeId;

use crate::config::{ProtocolConfig, ScreamFidelity};
use crate::error::ProtocolError;

/// A configured SCREAM channel bound to a radio environment.
///
/// The channel knows how many slots each invocation runs for (`K`), how the
/// flood is simulated ([`ScreamFidelity`]) and the sensitivity structure of
/// the network, and it accounts every slot it executes into a
/// [`ProtocolTiming`] tally.
#[derive(Debug, Clone)]
pub struct ScreamChannel<'a> {
    env: &'a RadioEnvironment,
    scream_slots: usize,
    fidelity: ScreamFidelity,
    interference_diameter: usize,
}

impl<'a> ScreamChannel<'a> {
    /// Creates a channel, verifying that `K` scream slots are enough for the
    /// network-wide OR to be correct on this environment.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::DisconnectedSensitivityGraph`] if the sensitivity
    ///   graph is not strongly connected (no finite `K` works);
    /// * [`ProtocolError::ScreamSlotsTooSmall`] if `K < ID(G_S)`;
    /// * [`ProtocolError::InvalidParameter`] if the configuration is invalid.
    pub fn new(env: &'a RadioEnvironment, config: &ProtocolConfig) -> Result<Self, ProtocolError> {
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
            env,
            scream_slots: config.scream_slots,
            fidelity: config.fidelity,
            interference_diameter: id,
        })
    }

    /// Creates a channel without checking `K` against the interference
    /// diameter. With `K < ID(G_S)` and [`ScreamFidelity::Physical`] the OR
    /// result will be wrong for distant nodes — exactly the failure mode the
    /// paper's correctness condition rules out. Exposed for experiments and
    /// tests that demonstrate that failure.
    // lint:allow(S1.caller, reason = "the only way to build the K < ID(G_S) channel whose flood physical_flood_with_insufficient_k_misses_distant_nodes shows failing")
    pub fn new_unchecked(
        env: &'a RadioEnvironment,
        scream_slots: usize,
        fidelity: ScreamFidelity,
    ) -> Self {
        Self {
            env,
            scream_slots,
            fidelity,
            interference_diameter: env.interference_diameter(),
        }
    }

    /// Number of slots each invocation runs for (`K`).
    pub fn scream_slots(&self) -> usize {
        self.scream_slots
    }

    /// The interference diameter of the underlying sensitivity graph.
    pub fn interference_diameter(&self) -> usize {
        self.interference_diameter
    }

    /// The simulation fidelity in force.
    pub fn fidelity(&self) -> ScreamFidelity {
        self.fidelity
    }

    /// Number of nodes on the channel.
    pub fn node_count(&self) -> usize {
        self.env.node_count()
    }

    /// Runs one invocation of the SCREAM primitive.
    ///
    /// `initial[i]` is node `i`'s local `var`; the returned vector is each
    /// node's view of the network-wide OR after `K` slots. Nodes not listed
    /// participate passively (relay-only), as required by the paper.
    ///
    /// The `K` executed slots are charged to `timing`. Allocates the returned
    /// vector; a caller that screams repeatedly keeps one buffer and uses
    /// [`network_or_in_place`](Self::network_or_in_place).
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the number of nodes.
    pub fn network_or(&self, initial: &[bool], timing: &mut ProtocolTiming) -> Vec<bool> {
        let mut views = initial.to_vec();
        self.network_or_in_place(&mut views, timing);
        views
    }

    /// [`network_or`](Self::network_or) in the caller's buffer: `vars[i]` is
    /// node `i`'s local `var` on entry and its view of the network-wide OR on
    /// return. Under [`ScreamFidelity::Ideal`] it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len()` differs from the number of nodes.
    pub fn network_or_in_place(&self, vars: &mut [bool], timing: &mut ProtocolTiming) {
        assert_eq!(
            vars.len(),
            self.env.node_count(),
            "SCREAM needs one boolean per node"
        );
        timing.add_scream_slots(self.scream_slots as u64);
        match self.fidelity {
            ScreamFidelity::Ideal => {
                let any = vars.iter().any(|&v| v);
                vars.fill(any);
            }
            ScreamFidelity::Physical => self.flood(vars),
        }
    }

    /// Physical-layer simulation of the flood: in every slot the current
    /// relay set transmits and every silent node performs energy detection
    /// against the aggregate received power.
    fn flood(&self, relay: &mut [bool]) {
        let mut transmitters: Vec<NodeId> = Vec::with_capacity(relay.len());
        for _slot in 0..self.scream_slots {
            transmitters.clear();
            transmitters.extend(
                (0..relay.len() as u32)
                    .map(NodeId::new)
                    .filter(|id| relay[id.index()]),
            );
            if transmitters.is_empty() {
                break;
            }
            // A listener that detects the scream relays from the next slot
            // on: this slot's transmitter set is already fixed, so the relay
            // flags can be raised in place.
            for (listener, relaying) in relay.iter_mut().enumerate() {
                *relaying = *relaying
                    || self
                        .env
                        .carrier_sense(NodeId::new(listener as u32), &transmitters);
            }
        }
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
            vec![true; 5]
        );
        assert_eq!(ch.network_or(&[false; 5], &mut t), vec![false; 5]);
    }

    #[test]
    fn physical_flood_reaches_everyone_when_k_is_large_enough() {
        let env = line_env(8, 150.0);
        let id = env.interference_diameter();
        let config = ProtocolConfig::paper_default()
            .with_scream_slots(id)
            .with_fidelity(ScreamFidelity::Physical);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        let mut t = timing();
        // A single screamer at one end must be heard by the far end.
        let mut initial = vec![false; 8];
        initial[0] = true;
        assert_eq!(ch.network_or(&initial, &mut t), vec![true; 8]);
        // No screamer: everyone stays false.
        assert_eq!(ch.network_or(&[false; 8], &mut t), vec![false; 8]);
    }

    #[test]
    fn physical_flood_with_insufficient_k_misses_distant_nodes() {
        let env = line_env(8, 150.0);
        let id = env.interference_diameter();
        assert!(
            id >= 3,
            "line of 8 nodes should have a multi-hop sensitivity graph"
        );
        let ch = ScreamChannel::new_unchecked(&env, 1, ScreamFidelity::Physical);
        let mut t = timing();
        let mut initial = vec![false; 8];
        initial[0] = true;
        let result = ch.network_or(&initial, &mut t);
        assert!(result[1], "direct sensitivity neighbors hear one slot");
        assert!(
            !result[7],
            "the far end cannot learn the OR in a single slot (K < ID)"
        );
    }

    #[test]
    fn physical_and_ideal_agree_when_the_precondition_holds() {
        let env = line_env(7, 140.0);
        let id = env.interference_diameter();
        let physical = ScreamChannel::new(
            &env,
            &ProtocolConfig::paper_default()
                .with_scream_slots(id)
                .with_fidelity(ScreamFidelity::Physical),
        )
        .unwrap();
        let ideal = ScreamChannel::new(
            &env,
            &ProtocolConfig::paper_default()
                .with_scream_slots(id)
                .with_fidelity(ScreamFidelity::Ideal),
        )
        .unwrap();
        let mut t = timing();
        for start in 0..7 {
            let mut initial = vec![false; 7];
            initial[start] = true;
            assert_eq!(
                physical.network_or(&initial, &mut t),
                ideal.network_or(&initial, &mut t),
                "divergence for screamer {start}"
            );
        }
    }

    #[test]
    fn every_invocation_costs_k_scream_slots() {
        let env = line_env(5, 150.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(7);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        let mut t = timing();
        ch.network_or(&[false; 5], &mut t);
        ch.network_or(&[true, false, false, false, false], &mut t);
        assert_eq!(t.scream_slots, 14);
    }

    #[test]
    #[should_panic(expected = "one boolean per node")]
    fn wrong_input_length_panics() {
        let env = line_env(4, 150.0);
        let ch = ScreamChannel::new(&env, &ProtocolConfig::paper_default()).unwrap();
        let mut t = timing();
        let _ = ch.network_or(&[true; 3], &mut t);
    }

    #[test]
    fn accessors_report_configuration() {
        let env = line_env(5, 150.0);
        let config = ProtocolConfig::paper_default().with_scream_slots(9);
        let ch = ScreamChannel::new(&env, &config).unwrap();
        assert_eq!(ch.scream_slots(), 9);
        assert_eq!(ch.node_count(), 5);
        assert_eq!(ch.fidelity(), ScreamFidelity::Ideal);
        assert!(ch.interference_diameter() <= 9);
    }
}
