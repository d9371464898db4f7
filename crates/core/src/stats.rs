//! Execution statistics of a distributed scheduling run.

use serde::{Deserialize, Serialize};

/// Counters describing how a PDD/FDD/AFDD run unfolded: the run's one tally.
///
/// They determine the complexity of Theorem 5 and the execution time of
/// Figures 8 and 9: the runtime derives the run's
/// [`ProtocolTiming`](scream_netsim::ProtocolTiming) from them once, at the
/// end — `K` slots per SCREAM invocation, one handshake slot per handshake
/// step, one barrier per sync step.
///
/// # Cost laws
///
/// With `C` channels, `h = elections − [FDD]·slot_iterations` hand-over
/// elections (the last, empty one included), `id_bits = ⌈log₂ n⌉` and
/// `transmissions` the schedule's `(slot, link)` allocations:
///
/// ```text
/// handshake_steps    = C·slot_iterations
/// sync_steps         = 2h + 3·slot_iterations + rounds
/// scream_invocations = h·(id_bits + 1) + rounds + 2·slot_iterations
///                      + [FDD]·id_bits·slot_iterations + [AFDD]·slot_iterations
///                      + ⌈log₂ C⌉·transmissions
/// ```
///
/// `tests/properties.rs` states them independently of the runtime.
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
    /// Number of two-way handshake time steps executed (one sub-slot per
    /// channel in every iteration).
    pub handshake_steps: u64,
    /// Number of `GlobalSync()` barriers executed outside SCREAM slots: two
    /// per hand-over election, three per iteration (handshake, verification,
    /// still-active check) and one per round (the control-release check).
    pub sync_steps: u64,
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

    /// Charges `round` `repeat` times, saturating: a run whose demand is
    /// near `u64::MAX` pins its counts at the maximum instead of wrapping.
    pub(crate) fn add_repeated(&mut self, round: &RunStats, repeat: u64) {
        let RunStats {
            rounds,
            slot_iterations,
            elections,
            scream_invocations,
            handshake_steps,
            sync_steps,
            vetoes,
            tried_transitions,
            terminated: _,
        } = *round;
        let charge = |total: &mut u64, count: u64| {
            *total = total.saturating_add(count.saturating_mul(repeat));
        };
        charge(&mut self.rounds, rounds);
        charge(&mut self.slot_iterations, slot_iterations);
        charge(&mut self.elections, elections);
        charge(&mut self.scream_invocations, scream_invocations);
        charge(&mut self.handshake_steps, handshake_steps);
        charge(&mut self.sync_steps, sync_steps);
        charge(&mut self.vetoes, vetoes);
        charge(&mut self.tried_transitions, tried_transitions);
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
