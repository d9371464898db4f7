//! Execution statistics of a distributed scheduling run.

use serde::{Deserialize, Serialize};

/// Counters describing how a PDD/FDD/AFDD run unfolded.
///
/// These are the quantities behind the complexity analysis of Theorem 5 and
/// the execution-time figures (Figures 8 and 9): the wall-clock cost of a run
/// is fully determined by the number of SCREAM slots, handshake steps and
/// synchronization barriers it executed, which in turn are determined by the
/// counters recorded here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of rounds executed (one slot is sealed per round).
    pub rounds: u64,
    /// Number of slot-construction iterations across all rounds (each
    /// iteration is one `SelectActive` + handshake + verification cycle).
    pub slot_iterations: u64,
    /// Number of full leader elections run (one per control hand-over, plus
    /// one per iteration for FDD).
    pub elections: u64,
    /// Number of SCREAM-primitive invocations of any kind.
    pub scream_invocations: u64,
    /// Number of two-way handshake time steps executed.
    pub handshake_steps: u64,
    /// Number of iterations in which a previously scheduled edge vetoed the
    /// tentative active set.
    pub vetoes: u64,
    /// Number of ACTIVE → TRIED transitions (active edges discarded from the
    /// slot under construction).
    pub tried_transitions: u64,
    /// Whether the run terminated normally with every demand satisfied.
    pub terminated: bool,
}

impl RunStats {
    /// Fraction of active attempts that were discarded (TRIED) rather than
    /// allocated. A rough measure of how much work the randomized selection
    /// of PDD wastes compared to FDD.
    pub fn tried_fraction(&self) -> f64 {
        let attempts = self.tried_transitions + self.allocations_lower_bound();
        if attempts == 0 {
            0.0
        } else {
            self.tried_transitions as f64 / attempts as f64
        }
    }

    /// Lower bound on the number of successful allocations: every round
    /// allocates at least the controller's edge.
    fn allocations_lower_bound(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_zero_denominators() {
        let s = RunStats::default();
        assert_eq!(s.tried_fraction(), 0.0);
    }

    #[test]
    fn tried_fraction_reflects_wasted_attempts() {
        let s = RunStats {
            rounds: 10,
            tried_transitions: 30,
            ..RunStats::default()
        };
        assert!((s.tried_fraction() - 0.75).abs() < 1e-12);
    }
}
