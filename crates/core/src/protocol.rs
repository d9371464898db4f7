//! Protocol variants: PDD, FDD and the AFDD extension.

use serde::{Deserialize, Serialize};

use crate::error::ProtocolError;

/// Which distributed scheduling protocol a runtime executes.
///
/// All three variants share the same round structure (leader election, then
/// iterative slot construction guarded by handshakes and SCREAM vetoes); they
/// differ only in how the `SelectActive()` function chooses which dormant
/// nodes to try next (Section III-C/III-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Partially Deterministic Distributed protocol: every dormant node joins
    /// the active set independently with probability `probability` in each
    /// iteration. Faster than FDD (no per-step election) but the schedule is
    /// randomized and slightly longer on average.
    Pdd {
        /// Activation probability `p` (the paper evaluates 0.2, 0.6 and 0.8).
        probability: f64,
    },
    /// Fully Deterministic Distributed protocol: exactly one new node is
    /// selected per iteration, through a network-wide leader election over
    /// the dormant nodes. Provably recreates the centralized GreedyPhysical
    /// schedule (Theorem 4) and therefore inherits its approximation bound.
    Fdd,
    /// Adaptive FDD — mentioned but not specified in the paper's evaluation
    /// section; implemented here as FDD with a cheaper active-selection
    /// step: the next active node is still the highest-id dormant node,
    /// but the selection is announced with a single SCREAM invocation
    /// instead of a full `id_bits`-round election, modelling nodes
    /// caching the candidate order from previous rounds. The schedule is
    /// identical to FDD; only the execution time differs.
    Afdd,
}

impl ProtocolKind {
    /// PDD with the given activation probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if the probability is not
    /// in `(0, 1]` (NaN included) — library code must not panic on a
    /// caller-supplied parameter. Call sites outside the library with
    /// compile-time-constant probabilities (benches, examples, tests) can
    /// use [`pdd_unchecked`](Self::pdd_unchecked) instead.
    pub fn pdd(probability: f64) -> Result<Self, ProtocolError> {
        if probability > 0.0 && probability <= 1.0 {
            Ok(ProtocolKind::Pdd { probability })
        } else {
            Err(ProtocolError::InvalidParameter(format!(
                "PDD activation probability must be in (0, 1], got {probability}"
            )))
        }
    }

    /// PDD with the given activation probability, panicking on out-of-range
    /// values — the infallible variant for constant probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the probability is not in `(0, 1]`.
    #[expect(
        clippy::panic,
        reason = "the documented panicking twin of `pdd`, for constant probabilities in benches, examples and tests; library code calls `pdd`"
    )]
    pub fn pdd_unchecked(probability: f64) -> Self {
        Self::pdd(probability).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The FDD protocol.
    pub fn fdd() -> Self {
        ProtocolKind::Fdd
    }

    /// The AFDD extension.
    pub fn afdd() -> Self {
        ProtocolKind::Afdd
    }

    /// Short human-readable name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            ProtocolKind::Pdd { probability } => format!("PDD(p={probability})"),
            ProtocolKind::Fdd => "FDD".to_string(),
            ProtocolKind::Afdd => "AFDD".to_string(),
        }
    }

    /// Whether the schedule this protocol produces is a deterministic
    /// function of the instance (FDD and AFDD) or depends on random
    /// activation draws (PDD).
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, ProtocolKind::Pdd { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_names() {
        assert_eq!(ProtocolKind::fdd().name(), "FDD");
        assert_eq!(ProtocolKind::afdd().name(), "AFDD");
        assert_eq!(ProtocolKind::pdd(0.2).unwrap().name(), "PDD(p=0.2)");
        assert_eq!(ProtocolKind::pdd_unchecked(0.2).name(), "PDD(p=0.2)");
    }

    #[test]
    fn determinism_flags() {
        assert!(ProtocolKind::fdd().is_deterministic());
        assert!(ProtocolKind::afdd().is_deterministic());
        assert!(!ProtocolKind::pdd_unchecked(0.5).is_deterministic());
    }

    #[test]
    fn out_of_range_probabilities_are_errors_not_panics() {
        for bad in [0.0, -0.3, 1.5, f64::NAN, f64::INFINITY] {
            let err = ProtocolKind::pdd(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter(_)),
                "expected InvalidParameter for {bad}, got {err:?}"
            );
            assert!(err.to_string().contains("probability"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn unchecked_constructor_still_panics_out_of_range() {
        let _ = ProtocolKind::pdd_unchecked(1.5);
    }

    #[test]
    fn probability_one_is_allowed() {
        // p = 1 makes PDD try every dormant node at once, a useful stress
        // case in tests.
        assert_eq!(
            ProtocolKind::pdd(1.0).unwrap(),
            ProtocolKind::Pdd { probability: 1.0 }
        );
    }
}
