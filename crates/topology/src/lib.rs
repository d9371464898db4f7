//! Node deployments, communication/sensitivity graphs, routing forests and
//! traffic demands for wireless mesh scheduling.
//!
//! This crate provides the *network-model* layer of the SCREAM reproduction
//! (Section II of the paper): where the mesh routers are placed, which links
//! exist in the absence of interference, how traffic demands are aggregated
//! along a routing forest towards the gateways, and the graph-theoretic
//! quantities (interference diameter, neighbor density) used by the analysis
//! in Section IV-B.
//!
//! # Quick example
//!
//! ```
//! use scream_topology::{GridDeployment, Meters, RoutingForest, UnitDiskGraphBuilder};
//!
//! // 64 routers in an 8x8 planned grid, 4 gateways at the corners.
//! let deployment = GridDeployment::new(8, 8, 250.0).build();
//! let graph = UnitDiskGraphBuilder::new(Meters::new(260.0)).build(&deployment);
//! assert!(graph.is_connected());
//!
//! let gateways = deployment.corner_nodes();
//! let forest = RoutingForest::shortest_path(&graph, &gateways, 42).unwrap();
//! assert_eq!(forest.tree_edges().count(), deployment.len() - gateways.len());
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

pub mod demand;
pub mod deploy;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod node;
pub mod routing;
pub mod units;

pub use demand::{DemandConfig, DemandVector, LinkDemands};
pub use deploy::{
    density_to_area_m2, Deployment, GridDeployment, InfiniteDensityDeployment, UniformDeployment,
};
pub use error::TopologyError;
pub use geometry::{Point2, Rect};
pub use graph::{Graph, GraphKind, UnitDiskGraphBuilder};
pub use node::{NodeId, NodeInfo};
pub use routing::{Link, RoutingForest};
pub use units::{Db, Dbm, Meters, Mw};
