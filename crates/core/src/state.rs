//! Per-node protocol states (Figure 1 of the paper).

use serde::{Deserialize, Serialize};

/// The mutually exclusive states a node moves through while PDD or FDD
/// executes (Section III-C and Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// The node has not yet been picked into any active subset of the
    /// current slot.
    Dormant,
    /// Controller of the current slot (winner of the round's leader
    /// election); its edge is guaranteed a place in the slot.
    Control,
    /// The node's edge is tentatively included in the current slot and is
    /// being checked by the two-way handshake.
    Active,
    /// The node's edge has been confirmed into the current slot.
    Allocated,
    /// The node was active in this round but its handshake failed; it may be
    /// re-tried only in the next round.
    Tried,
    /// The node's demand has been fully satisfied.
    Complete,
    /// The whole algorithm has terminated (every node is complete).
    Terminate,
}

impl NodeState {
    // Note for readers of the paper's Figure 1: handshake participation
    // (CONTROL/ALLOCATED/ACTIVE transmit) and veto power (CONTROL/ALLOCATED
    // scream on a failed handshake) are no longer dispatched through
    // per-state predicates here — the runtime tracks the slot's confirmed
    // edges in a `ChannelSlotLedger` and prices tentative actives with
    // its `probe_claims`, which encodes exactly those two roles. Per node it
    // keeps only the DORMANT flag (the one state the protocol's SCREAMs and
    // elections read); the other states are implied by the controller, the
    // ledger and the remaining demand.

    /// Whether a node in this state still has pending demand to schedule in
    /// future rounds (i.e. it competes in the next leader election).
    pub fn competes_for_control(self) -> bool {
        !matches!(self, NodeState::Complete | NodeState::Terminate)
    }

    /// Whether this is a terminal state for the whole protocol.
    pub fn is_terminal(self) -> bool {
        matches!(self, NodeState::Terminate)
    }
}

impl std::fmt::Display for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NodeState::Dormant => "DORMANT",
            NodeState::Control => "CONTROL",
            NodeState::Active => "ACTIVE",
            NodeState::Allocated => "ALLOCATED",
            NodeState::Tried => "TRIED",
            NodeState::Complete => "COMPLETE",
            NodeState::Terminate => "TERMINATE",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [NodeState; 7] = [
        NodeState::Dormant,
        NodeState::Control,
        NodeState::Active,
        NodeState::Allocated,
        NodeState::Tried,
        NodeState::Complete,
        NodeState::Terminate,
    ];

    #[test]
    fn complete_and_terminate_do_not_compete_for_control() {
        assert!(!NodeState::Complete.competes_for_control());
        assert!(!NodeState::Terminate.competes_for_control());
        assert!(NodeState::Dormant.competes_for_control());
        assert!(NodeState::Tried.competes_for_control());
    }

    #[test]
    fn only_terminate_is_terminal() {
        for s in ALL {
            assert_eq!(s.is_terminal(), s == NodeState::Terminate);
        }
    }

    #[test]
    fn display_uses_the_paper_names() {
        assert_eq!(NodeState::Dormant.to_string(), "DORMANT");
        assert_eq!(NodeState::Control.to_string(), "CONTROL");
        assert_eq!(NodeState::Terminate.to_string(), "TERMINATE");
    }
}
