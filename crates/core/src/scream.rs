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
    /// # Errors
    ///
    /// [`ProtocolError::NodeVectorLength`] if `initial.len()` differs from
    /// the number of nodes; nothing is charged then.
    pub fn network_or(
        &self,
        initial: &[bool],
        timing: &mut ProtocolTiming,
    ) -> Result<Vec<bool>, ProtocolError> {
        let mut views = initial.to_vec();
        self.network_or_in_place(&mut views, timing)?;
        Ok(views)
    }

    /// [`network_or`](Self::network_or) in the caller's buffer: `vars[i]` is
    /// node `i`'s local `var` on entry and its view of the network-wide OR on
    /// return. Under [`ScreamFidelity::Ideal`] it allocates nothing.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NodeVectorLength`] if `vars.len()` differs from the
    /// number of nodes; `vars` is untouched and nothing is charged then.
    pub fn network_or_in_place(
        &self,
        vars: &mut [bool],
        timing: &mut ProtocolTiming,
    ) -> Result<(), ProtocolError> {
        if vars.len() != self.node_count() {
            return Err(ProtocolError::NodeVectorLength {
                nodes: self.node_count(),
                len: vars.len(),
            });
        }
        self.invoke(vars, timing);
        Ok(())
    }

    /// One invocation in which exactly the nodes of `screamers` — ascending
    /// ids — scream: the network-wide OR as node 0 learns it, which is every
    /// node's view when `K ≥ ID(G_S)`. Charged like
    /// [`network_or_in_place`](Self::network_or_in_place). Under
    /// [`ScreamFidelity::Ideal`] the OR of a set is whether it is empty, read
    /// in O(1); under [`ScreamFidelity::Physical`] one flag per node is
    /// filled from the list and flooded.
    pub(crate) fn any_screams(&self, screamers: &[NodeId], timing: &mut ProtocolTiming) -> bool {
        if !self.simulates_flood() {
            timing.add_scream_slots(self.scream_slots as u64);
            return !screamers.is_empty();
        }
        let mut vars = vec![false; self.node_count()];
        for &screamer in screamers {
            vars[screamer.index()] = true;
        }
        self.invoke(&mut vars, timing);
        vars.first() == Some(&true)
    }

    /// Whether invocations are simulated slot by slot
    /// ([`ScreamFidelity::Physical`]). Otherwise every invocation returns
    /// the plain OR of its inputs at every node — the paper's guarantee under
    /// `K ≥ ID(G_S)`, which [`new`](Self::new) checked — so a caller may read
    /// a sequence of invocations off their inputs, charging `K` slots for
    /// each as if it had run.
    pub(crate) fn simulates_flood(&self) -> bool {
        self.fidelity == ScreamFidelity::Physical
    }

    /// One invocation over `vars`, one per node: `K` slots charged to
    /// `timing`, then each node's view of the OR written back.
    pub(crate) fn invoke(&self, vars: &mut [bool], timing: &mut ProtocolTiming) {
        timing.add_scream_slots(self.scream_slots as u64);
        if self.simulates_flood() {
            self.flood(vars);
        } else {
            let any = vars.contains(&true);
            vars.fill(any);
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
            Ok(vec![true; 5])
        );
        assert_eq!(ch.network_or(&[false; 5], &mut t), Ok(vec![false; 5]));
    }

    #[test]
    fn the_id_list_form_reads_what_the_flag_form_floods() {
        // Both fidelities, every single screamer, nobody and everybody: the
        // id-list OR equals node 0's view of the per-node OR and charges the
        // same K slots.
        let env = line_env(7, 140.0);
        let id = env.interference_diameter();
        for fidelity in [ScreamFidelity::Ideal, ScreamFidelity::Physical] {
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(id)
                .with_fidelity(fidelity);
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
                assert_eq!(heard, views[0], "{fidelity:?}, screamers {screamers:?}");
                assert_eq!(heard, !screamers.is_empty());
                assert_eq!(by_ids, by_flags);
            }
        }
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
        assert_eq!(ch.network_or(&initial, &mut t), Ok(vec![true; 8]));
        // No screamer: everyone stays false.
        assert_eq!(ch.network_or(&[false; 8], &mut t), Ok(vec![false; 8]));
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
        let result = ch.network_or(&initial, &mut t).unwrap();
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
        assert_eq!(ch.network_or(&[true; 3], &mut t), Err(wrong.clone()));
        let mut vars = [true, false, true];
        assert_eq!(ch.network_or_in_place(&mut vars, &mut t), Err(wrong));
        assert_eq!(vars, [true, false, true], "a refused input is untouched");
        assert_eq!(t, timing(), "a refused input is not charged");
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
