//! The pipeline every check in this crate starts from — deployment → radio
//! environment → routing forest → aggregated demands → protocol
//! configuration with `K = ID(G)` — and the one error it can fail with.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream_core::{
    DistributedRun, DistributedScheduler, ProtocolConfig, ProtocolError, ProtocolKind,
};
use scream_netsim::{PropagationModel, RadioConfig, RadioEnvironment};
use scream_topology::{
    DemandConfig, DemandVector, Deployment, LinkDemands, NodeId, RoutingForest, TopologyError,
};

/// Why a theorem could not be checked on the requested instance.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The communication graph is disconnected (a grid step beyond radio
    /// range, or no connected random draw within the attempt budget), so no
    /// routing forest reaches every node.
    Disconnected,
    /// Routing or demand aggregation refused the instance.
    Topology(TopologyError),
    /// A protocol parameter was out of range, or a distributed run refused
    /// the instance or did not finish.
    Protocol(ProtocolError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => write!(f, "the communication graph is disconnected"),
            Self::Topology(e) => write!(f, "topology error: {e}"),
            Self::Protocol(e) => write!(f, "protocol run failed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<TopologyError> for AnalysisError {
    fn from(e: TopologyError) -> Self {
        match e {
            TopologyError::Disconnected { .. } => Self::Disconnected,
            e => Self::Topology(e),
        }
    }
}

impl From<ProtocolError> for AnalysisError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// One schedulable instance: paper demands aggregated along a shortest-path
/// forest over the SINR communication graph of a deployment.
pub(crate) struct Instance {
    pub(crate) env: RadioEnvironment,
    pub(crate) link_demands: LinkDemands,
    /// `ID(G_S)`, which also sizes the SCREAM primitive (`K = ID`).
    pub(crate) interference_diameter: usize,
    seed: u64,
}

impl Instance {
    /// Builds the instance on `deployment` with `channel_count` orthogonal
    /// channels, routing to `gateways`; `seed` drives tie-breaking, the
    /// demand draw and the protocol runs.
    pub(crate) fn build(
        deployment: &Deployment,
        gateways: &[NodeId],
        channel_count: usize,
        seed: u64,
    ) -> Result<Self, AnalysisError> {
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(RadioConfig::mesh_default().with_channel_count(channel_count))
            .build(deployment);
        let forest = RoutingForest::shortest_path(&env.communication_graph(), gateways, seed)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let demands =
            DemandVector::generate(deployment.len(), DemandConfig::PAPER, gateways, &mut rng);
        let link_demands = LinkDemands::aggregate(&forest, &demands)?;
        let interference_diameter = env.interference_diameter();
        Ok(Self {
            env,
            link_demands,
            interference_diameter,
            seed,
        })
    }

    /// Runs `kind` to completion on the instance with `K = ID(G)`.
    pub(crate) fn run(&self, kind: ProtocolKind) -> Result<DistributedRun, AnalysisError> {
        let config = ProtocolConfig::paper_default()
            .with_scream_slots(self.interference_diameter.max(1))
            .with_seed(self.seed);
        Ok(DistributedScheduler::new(kind, config).run(&self.env, &self.link_demands)?)
    }
}
