//! Leader election on top of the SCREAM primitive (Section III-B).
//!
//! Every node has a unique id; the election selects the *highest* id among
//! the candidates by iterating over the id bits from the most significant
//! downwards. In each iteration the candidates whose current bit is 1 (and
//! who have not been voted out) scream; the network-wide OR tells everyone
//! whether any such candidate exists, and candidates whose bit is 0 are voted
//! out whenever it does. After `id_bits` iterations exactly one candidate —
//! the one with the highest id — survives.
//!
//! Cost: `id_bits` SCREAM invocations, i.e. `O(K · log n)` slots.
//!
//! A [`ScreamChannel`] exists only where `K ≥ ID(G_S)`, so every one of
//! those ORs is exact and the loop provably leaves the highest-id candidate:
//! the election reads it off the candidate flags and charges the `id_bits × K`
//! slots the loop takes (saturating). The loop itself is the integration
//! tests' oracle, run over its own flood.

use scream_netsim::ProtocolTiming;
use scream_topology::NodeId;

use crate::error::ProtocolError;
use crate::scream::ScreamChannel;

/// The distributed leader-election procedure.
///
/// Stateless: the home of the flag form below, which charges a
/// [`ProtocolTiming`] as it goes. The distributed runtime does not call it;
/// its elections (every hand-over, and FDD's `SelectActive`) count their
/// SCREAMs in its `RunStats`. AFDD's `SelectActive` is one SCREAM, no election.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaderElection;

impl LeaderElection {
    /// Creates the election procedure.
    pub fn new() -> Self {
        Self
    }

    /// Runs one election among the nodes flagged in `candidates`
    /// (`candidates[i] == true` means node `i` competes; all other nodes
    /// participate passively, relaying screams).
    ///
    /// Returns the winner — the highest-id candidate — or `None` if there are
    /// no candidates. The SCREAM slots consumed are charged to `timing`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NodeVectorLength`] if `candidates.len()` differs from
    /// the channel's node count; nothing is charged then.
    pub fn elect(
        &self,
        channel: &ScreamChannel,
        candidates: &[bool],
        timing: &mut ProtocolTiming,
    ) -> Result<Option<NodeId>, ProtocolError> {
        if candidates.len() != channel.node_count() {
            return Err(ProtocolError::NodeVectorLength {
                nodes: channel.node_count(),
                len: candidates.len(),
            });
        }
        let bits = NodeId::id_bits(channel.node_count());
        timing.add_scream_slots(u64::from(bits).saturating_mul(channel.scream_slots() as u64));
        let winner = candidates.iter().rposition(|&competes| competes);
        Ok(winner.map(|at| NodeId::new(at as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use scream_netsim::{PropagationModel, RadioEnvironment};
    use scream_topology::GridDeployment;

    fn grid_env(side: usize, spacing: f64) -> RadioEnvironment {
        let d = GridDeployment::new(side, side, spacing).build();
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d)
    }

    fn channel(env: &RadioEnvironment) -> ScreamChannel {
        let id = env.interference_diameter();
        ScreamChannel::new(
            env,
            &ProtocolConfig::paper_default().with_scream_slots(id.max(1)),
        )
        .unwrap()
    }

    #[test]
    fn elects_the_highest_id_candidate() {
        let env = grid_env(4, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        let mut candidates = vec![false; 16];
        for i in [3usize, 7, 11] {
            candidates[i] = true;
        }
        assert_eq!(
            LeaderElection::new().elect(&ch, &candidates, &mut t),
            Ok(Some(NodeId::new(11)))
        );
    }

    #[test]
    fn single_candidate_wins_and_no_candidate_returns_none() {
        let env = grid_env(3, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        let mut candidates = vec![false; 9];
        candidates[4] = true;
        assert_eq!(
            LeaderElection::new().elect(&ch, &candidates, &mut t),
            Ok(Some(NodeId::new(4)))
        );
        assert_eq!(
            LeaderElection::new().elect(&ch, &[false; 9], &mut t),
            Ok(None)
        );
    }

    #[test]
    fn all_candidates_yields_the_maximum_id() {
        let env = grid_env(4, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        assert_eq!(
            LeaderElection::new().elect(&ch, &[true; 16], &mut t),
            Ok(Some(NodeId::new(15)))
        );
    }

    #[test]
    fn election_cost_is_id_bits_times_k() {
        let env = grid_env(4, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        LeaderElection::new()
            .elect(&ch, &[true; 16], &mut t)
            .unwrap();
        // 16 nodes -> 4 id bits.
        assert_eq!(t.scream_slots, 4 * ch.scream_slots() as u64);
    }

    #[test]
    fn repeated_elections_with_shrinking_candidate_sets_enumerate_ids_in_decreasing_order() {
        // This is exactly how FDD walks through the nodes.
        let env = grid_env(3, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        let mut candidates = vec![true; 9];
        let mut order = Vec::new();
        while let Some(winner) = LeaderElection::new()
            .elect(&ch, &candidates, &mut t)
            .unwrap()
        {
            order.push(winner.0);
            candidates[winner.index()] = false;
        }
        assert_eq!(order, (0..9u32).rev().collect::<Vec<_>>());
    }

    #[test]
    fn wrong_candidate_vector_length_is_an_error() {
        let env = grid_env(3, 150.0);
        let ch = channel(&env);
        let mut t = ProtocolTiming::new();
        assert_eq!(
            LeaderElection::new().elect(&ch, &[true; 4], &mut t),
            Err(ProtocolError::NodeVectorLength { nodes: 9, len: 4 })
        );
        assert_eq!(t, ProtocolTiming::new(), "a refused input is not charged");
    }
}
