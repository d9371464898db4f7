//! STDMA link schedules and centralized scheduling algorithms under the
//! physical interference model.
//!
//! This crate provides:
//!
//! * the [`Schedule`] representation shared by the centralized and
//!   distributed schedulers, along with demand-satisfaction and feasibility
//!   [verification](verify);
//! * the [`SlotFeasibility`] abstraction over interference models (the
//!   physical SINR model of `scream-netsim`, and a protocol-interference
//!   baseline for comparison);
//! * the centralized [`GreedyPhysical`] algorithm
//!   from the authors' earlier work \[4\], which the paper uses as its
//!   baseline and which the FDD protocol provably recreates;
//! * the serialized ("linear") [baseline](linear) that Figures 6 and 7
//!   normalize against, and schedule-quality [metrics].
//!
//! # Example
//!
//! ```
//! use scream_scheduling::prelude::*;
//! use scream_netsim::prelude::*;
//! use scream_topology::prelude::*;
//! use rand::SeedableRng;
//!
//! let deployment = GridDeployment::new(4, 4, 200.0).build();
//! let env = RadioEnvironment::builder().build(&deployment);
//! let graph = env.communication_graph();
//! let gateways = deployment.corner_nodes();
//! let forest = RoutingForest::shortest_path(&graph, &gateways, 1).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let demands = DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
//! let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
//!
//! let schedule = GreedyPhysical::new(EdgeOrdering::DecreasingHeadId)
//!     .schedule(&env, &link_demands);
//! verify_schedule(&env, &schedule, &link_demands).unwrap();
//! assert!(schedule.length() <= link_demands.total_demand() as usize);
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

pub mod feasibility;
pub mod frame;
pub mod greedy;
pub mod linear;
pub mod metrics;
mod placement;
pub mod repair;
pub mod schedule;
pub mod verify;

pub use feasibility::{
    ChannelId, ExactPhysical, LinkSinrMargin, ProtocolModel, SlotAccumulator, SlotFeasibility,
};
pub use frame::{FrameService, NextService, ServiceWindow};
pub use greedy::{EdgeOrdering, GreedyPhysical};
pub use linear::serialized_schedule;
pub use metrics::ScheduleMetrics;
pub use repair::{repair_schedule, RepairOutcome, RepairedSchedule};
pub use schedule::{Schedule, SlotPattern};
pub use verify::{verify_schedule, verify_slots_feasible, ScheduleViolation};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::feasibility::{
        ChannelId, ExactPhysical, LinkSinrMargin, ProtocolModel, SlotAccumulator, SlotFeasibility,
    };
    pub use crate::frame::{FrameService, NextService, ServiceWindow};
    pub use crate::greedy::{EdgeOrdering, GreedyPhysical};
    pub use crate::linear::serialized_schedule;
    pub use crate::metrics::ScheduleMetrics;
    pub use crate::repair::{repair_schedule, RepairOutcome, RepairedSchedule};
    pub use crate::schedule::{Schedule, SlotPattern};
    pub use crate::verify::{verify_schedule, verify_slots_feasible, ScheduleViolation};
}
