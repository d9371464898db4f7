//! The harness's one error type: everything a scenario, sweep, experiment
//! or figure generator can fail with. Only the `figures` CLI's `main` turns
//! it into an exit code.

use scream_analysis::AnalysisError;
use scream_core::ProtocolError;
use scream_resilience::ResilienceError;
use scream_scheduling::ScheduleViolation;
use scream_topology::TopologyError;
use scream_traffic::TrafficError;

use crate::scenario::Topology;

/// Why a measurement could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// No connected instance of the scenario came up in 64 draws.
    Disconnected {
        /// Topology family of the scenario.
        topology: Topology,
        /// Its node density, in nodes per km².
        density_per_km2: f64,
    },
    /// A schedule failed verification — the measurement would be garbage.
    Verify(ScheduleViolation),
    /// A distributed protocol run refused the instance or did not finish.
    Protocol(ProtocolError),
    /// Routing, demand aggregation, the packet engine or the rescheduler
    /// failed (`ResilienceError` is already the union of the topology and
    /// traffic errors).
    Traffic(ResilienceError),
    /// A theorem check could not build or run its instance.
    Analysis(AnalysisError),
    /// Malformed command-line arguments; the message is the usage line.
    Usage(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected {
                topology,
                density_per_km2: density,
            } => write!(
                f,
                "no connected {topology:?} instance at {density} nodes/km^2"
            ),
            Self::Verify(e) => write!(f, "schedule verification failed: {e}"),
            Self::Protocol(e) => write!(f, "protocol run failed: {e}"),
            Self::Traffic(e) => write!(f, "{e}"),
            Self::Analysis(e) => write!(f, "{e}"),
            Self::Usage(line) => write!(f, "{line}"),
        }
    }
}

impl std::error::Error for BenchError {}

macro_rules! wraps {
    ($($source:ty => $variant:ident),* $(,)?) => {$(
        impl From<$source> for BenchError {
            fn from(e: $source) -> Self {
                Self::$variant(e.into())
            }
        }
    )*};
}
wraps!(
    ScheduleViolation => Verify,
    ProtocolError => Protocol,
    ResilienceError => Traffic,
    TopologyError => Traffic,
    TrafficError => Traffic,
    AnalysisError => Analysis,
);
