//! The SCREAM approach: distributed STDMA scheduling with physical
//! interference for wireless mesh networks.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections III–IV):
//!
//! * the [`scream`] module implements the **SCREAM primitive** — a
//!   collision-resilient, carrier-sensing based network-wide boolean OR that
//!   completes in `K ≥ ID(G_S)` globally synchronized slots;
//! * the [`election`] module implements **leader election** on top of SCREAM
//!   (bitwise highest-id election in `O(K · log n)` slots);
//! * the [`protocol`] and [`runtime`] modules implement the two distributed
//!   schedulers built from these primitives: **PDD** (partially randomized)
//!   and **FDD** (fully deterministic), plus the **AFDD** variant mentioned
//!   in the paper's evaluation section (implemented here as an adaptive FDD
//!   extension, see [`ProtocolKind::Afdd`]);
//! * the [`impossibility`] module contains the constructive counterexample
//!   behind Theorem 1 (no *localized* algorithm can guarantee feasible
//!   schedules under physical interference).
//!
//! The protocols run against the radio environment of `scream-netsim`, so
//! handshake successes and the interference diameter emerge from the SINR
//! physics rather than being assumed. The SCREAM OR is the one thing taken
//! from the paper's proof: once `K ≥ ID(G_S)` is checked it is exact at every
//! node, and the runtime reads it instead of flooding it.
//!
//! # Example: scheduling a small mesh with FDD
//!
//! ```
//! use scream_core::prelude::*;
//! use scream_netsim::prelude::*;
//! use scream_scheduling::prelude::*;
//! use scream_topology::prelude::*;
//! use rand::SeedableRng;
//!
//! let deployment = GridDeployment::new(4, 4, 150.0).build();
//! let env = RadioEnvironment::builder().build(&deployment);
//! let graph = env.communication_graph();
//! let gateways = deployment.corner_nodes();
//! let forest = RoutingForest::shortest_path(&graph, &gateways, 1).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let demands = DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
//! let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
//!
//! let run = DistributedScheduler::fdd()
//!     .run(&env, &link_demands)
//!     .unwrap();
//! verify_schedule(&env, &run.schedule, &link_demands).unwrap();
//! assert!(run.execution_time().as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Conventions P1 / D1 / H1 (ROADMAP), carried by clippy; test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

pub mod config;
pub mod election;
pub mod error;
pub mod impossibility;
pub mod protocol;
pub mod runtime;
pub mod scream;
pub mod stats;

pub use config::ProtocolConfig;
pub use election::LeaderElection;
pub use error::ProtocolError;
pub use protocol::ProtocolKind;
pub use runtime::{DistributedRun, DistributedScheduler};
pub use scream::ScreamChannel;
pub use stats::RunStats;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::config::ProtocolConfig;
    pub use crate::election::LeaderElection;
    pub use crate::error::ProtocolError;
    pub use crate::protocol::ProtocolKind;
    pub use crate::runtime::{DistributedRun, DistributedScheduler};
    pub use crate::scream::ScreamChannel;
    pub use crate::stats::RunStats;
}
