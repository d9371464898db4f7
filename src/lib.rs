//! # SCREAM: distributed STDMA scheduling with physical interference
//!
//! A from-scratch Rust reproduction of *"The SCREAM Approach for Efficient
//! Distributed Scheduling with Physical Interference in Wireless Mesh
//! Networks"* (Brar, Blough, Santi — ICDCS 2008 / IIT TR-08/2006).
//!
//! This facade crate re-exports the workspace's building blocks so an
//! application can depend on a single crate:
//!
//! * [`topology`] — deployments, communication/sensitivity graphs, routing
//!   forests and traffic demands (`scream-topology`);
//! * [`netsim`] — propagation, SINR, carrier sensing, clocks and the
//!   discrete-event engine (`scream-netsim`);
//! * [`scheduling`] — schedules, verification, the centralized
//!   GreedyPhysical baseline and the serialized baseline
//!   (`scream-scheduling`);
//! * [`protocols`] — the SCREAM primitive, leader election and the PDD /
//!   FDD / AFDD distributed schedulers (`scream-core`);
//! * [`traffic`] — the packet-level traffic engine: flows, per-link FIFO
//!   queues and delay/throughput/stability metrics over any schedule used as
//!   a repeating TDMA frame (`scream-traffic`);
//! * [`resilience`] — fault injection and online recovery: seeded churn
//!   traces, the epoch rescheduler and graceful-degradation metrics
//!   (`scream-resilience`);
//! * [`mote`] — the Mica2 SCREAM-detection experiment simulation
//!   (`scream-mote`);
//! * [`analysis`] — empirical checks of the paper's theorems
//!   (`scream-analysis`).
//!
//! # Quickstart
//!
//! ```
//! use scream::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Deploy a 4x4 mesh with one gateway and draw per-node demands.
//! let deployment = GridDeployment::new(4, 4, 150.0).build();
//! let env = RadioEnvironment::builder().build(&deployment);
//! let graph = env.communication_graph();
//! let gateways = vec![deployment.corner_nodes()[0]];
//! let forest = RoutingForest::shortest_path(&graph, &gateways, 7).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let demands = DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
//! let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
//!
//! // 2. Run the distributed FDD protocol and the centralized baseline.
//! let config = ProtocolConfig::paper_default()
//!     .with_scream_slots(env.interference_diameter());
//! let fdd = DistributedScheduler::fdd().with_config(config).run(&env, &link_demands).unwrap();
//! let centralized = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
//!
//! // 3. FDD provably recreates the centralized schedule (Theorem 4), and
//! //    both satisfy every demand with SINR-feasible slots.
//! assert_eq!(fdd.schedule, centralized);
//! verify_schedule(&env, &fdd.schedule, &link_demands).unwrap();
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

// The API census's scrub and scan (`tests/api_census.rs`), unit-tested with
// the facade: test code only, nothing of it reaches the library.
#[cfg(test)]
#[path = "../tests/common/lexer.rs"]
mod lexer;
#[cfg(test)]
#[path = "../tests/common/scan.rs"]
mod scan;

/// Node deployments, graphs, routing forests and demands (`scream-topology`).
pub mod topology {
    pub use scream_topology::*;
}

/// Radio-level simulation: propagation, SINR, carrier sensing, clocks and the
/// discrete-event engine (`scream-netsim`).
pub mod netsim {
    pub use scream_netsim::*;
}

/// STDMA schedules, verification and centralized baselines
/// (`scream-scheduling`).
pub mod scheduling {
    pub use scream_scheduling::*;
}

/// The SCREAM primitive, leader election and the distributed PDD/FDD/AFDD
/// schedulers (`scream-core`).
pub mod protocols {
    pub use scream_core::*;
}

/// The packet-level traffic engine: flows, queues and delay/throughput
/// metrics over SCREAM TDMA frames (`scream-traffic`).
pub mod traffic {
    pub use scream_traffic::*;
}

/// Fault injection and online recovery: seeded churn traces, the epoch
/// rescheduler and graceful-degradation metrics (`scream-resilience`).
pub mod resilience {
    pub use scream_resilience::*;
}

/// The simulated Mica2 SCREAM-detection experiment (`scream-mote`).
pub mod mote {
    pub use scream_mote::*;
}

/// Empirical checks of the paper's analytical results (`scream-analysis`).
pub mod analysis {
    pub use scream_analysis::*;
}

/// Deterministic observability: the slot-clock metrics registry, trace ring
/// and no-op-able emission sink (`scream-obs`).
pub mod obs {
    pub use scream_obs::*;
}

/// One-stop import of the most commonly used items across all crates, each
/// named once.
pub mod prelude {
    pub use scream_core::{
        DistributedRun, DistributedScheduler, LeaderElection, ProtocolConfig, ProtocolError,
        ProtocolKind, RunStats, ScreamChannel,
    };
    pub use scream_mote::{
        DetectionErrorPoint, MoteExperiment, MoteExperimentConfig, MoteExperimentResult, RssiTrace,
    };
    pub use scream_netsim::{
        ChannelId, ChannelSlotLedger, ClockSkewConfig, DataRate, EventQueue, LinkSinrMargin,
        PropagationModel, ProtocolTiming, RadioConfig, RadioEnvironment, RadioEnvironmentBuilder,
        ScheduledEvent, ShadowingField, SimTime, SlotAccumulator, SlotClaims, SlotLedger,
        SlotTiming,
    };
    pub use scream_resilience::{
        ChurnConfig, ChurnTrace, EpochMetrics, FaultEvent, FaultKind, FaultPlan, RepairRecord,
        ReschedulerConfig, ResilienceError, ResilienceHarness, ResilienceReport,
    };
    pub use scream_scheduling::{
        repair_schedule, serialized_schedule, verify_schedule, verify_slots_feasible, EdgeOrdering,
        ExactPhysical, FrameService, GreedyPhysical, NextService, ProtocolModel, RepairOutcome,
        RepairedSchedule, Schedule, ScheduleMetrics, ScheduleViolation, SlotFeasibility,
        SlotPattern,
    };
    pub use scream_topology::{
        density_to_area_m2, Db, Dbm, DemandConfig, DemandVector, Deployment, Graph, GraphKind,
        GridDeployment, InfiniteDensityDeployment, Link, LinkDemands, Meters, Mw, NodeId, NodeInfo,
        Point2, Rect, RoutingForest, TopologyError, UniformDeployment, UnitDiskGraphBuilder,
    };
    pub use scream_traffic::{
        ArrivalProcess, DelayStats, Flow, FlowSet, ForwardingTable, LinkLoad, SegmentReport,
        SessionTotals, Source, StabilityVerdict, TrafficConfig, TrafficEngine, TrafficError,
        TrafficReport, TrafficSession,
    };
}
