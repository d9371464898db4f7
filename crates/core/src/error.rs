//! Error types for the distributed protocols.

/// Errors produced while configuring or running PDD/FDD.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The configured number of SCREAM slots `K` is smaller than the
    /// network's interference diameter, so the SCREAM primitive cannot
    /// implement a network-wide OR and the protocols would compute wrong
    /// results.
    ScreamSlotsTooSmall {
        /// The configured `K`.
        configured: usize,
        /// The interference diameter `ID(G_S)` of the sensitivity graph.
        interference_diameter: usize,
    },
    /// The sensitivity graph is not strongly connected (infinite interference
    /// diameter), so no finite `K` makes SCREAM correct.
    DisconnectedSensitivityGraph,
    /// The number of nodes in the demand instance does not match the radio
    /// environment.
    NodeCountMismatch {
        /// Nodes in the radio environment.
        environment: usize,
        /// Nodes covered by the demand instance.
        demands: usize,
    },
    /// A per-node input — SCREAM `var`s, election candidacy flags — whose
    /// length is not the channel's node count.
    NodeVectorLength {
        /// Nodes on the channel.
        nodes: usize,
        /// Entries in the input.
        len: usize,
    },
    /// A protocol parameter is outside its valid range.
    InvalidParameter(String),
    /// The protocol would exceed its safety bound on rounds without having
    /// satisfied all demands (this indicates an infeasible instance, e.g. a
    /// demanded link that cannot meet the SINR threshold even alone). The
    /// check fires *before* another round is constructed, so a limit of `k`
    /// permits exactly `k` full rounds and the error reports the progress
    /// made up to the abort.
    RoundLimitExceeded {
        /// The round bound that was hit.
        limit: u64,
        /// Rounds fully executed before the abort (always equal to `limit`
        /// when the error comes from a run).
        rounds_executed: u64,
        /// Demands still unsatisfied when the limit was reached.
        unsatisfied_links: usize,
        /// Slots of the partial schedule built before the abort (one per
        /// executed round).
        slots_built: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::ScreamSlotsTooSmall {
                configured,
                interference_diameter,
            } => write!(
                f,
                "K = {configured} SCREAM slots is below the interference diameter {interference_diameter}; the network-wide OR would be incorrect"
            ),
            ProtocolError::DisconnectedSensitivityGraph => write!(
                f,
                "the sensitivity graph is not strongly connected: the interference diameter is infinite"
            ),
            ProtocolError::NodeCountMismatch {
                environment,
                demands,
            } => write!(
                f,
                "radio environment has {environment} nodes but the demand instance covers {demands}"
            ),
            ProtocolError::NodeVectorLength { nodes, len } => write!(
                f,
                "expected one entry per node ({nodes}), got {len}"
            ),
            ProtocolError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ProtocolError::RoundLimitExceeded {
                limit,
                rounds_executed,
                unsatisfied_links,
                slots_built,
            } => write!(
                f,
                "round limit {limit} reached after {rounds_executed} round(s) ({slots_built} slot(s) built) with {unsatisfied_links} link(s) still unsatisfied"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_the_relevant_numbers() {
        let e = ProtocolError::ScreamSlotsTooSmall {
            configured: 3,
            interference_diameter: 7,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('7'));

        let e = ProtocolError::NodeCountMismatch {
            environment: 64,
            demands: 32,
        };
        assert!(e.to_string().contains("64") && e.to_string().contains("32"));

        let e = ProtocolError::NodeVectorLength { nodes: 16, len: 9 };
        assert!(e.to_string().contains("16") && e.to_string().contains('9'));

        let e = ProtocolError::RoundLimitExceeded {
            limit: 1000,
            rounds_executed: 1000,
            unsatisfied_links: 2,
            slots_built: 1000,
        };
        assert!(e.to_string().contains("1000") && e.to_string().contains('2'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&ProtocolError::DisconnectedSensitivityGraph);
    }
}
