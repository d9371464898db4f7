//! Empirical verification of the SCREAM paper's analytical results.
//!
//! Section IV of the paper contains four analytical contributions besides the
//! protocols themselves. Each has a module here that checks it on concrete
//! instances:
//!
//! * [`diameter`] — the interference-diameter characterization (Theorems 2
//!   and 3): `ID(G) ≤ √2·diam(R)/r` for square-grid-convex grid deployments,
//!   `ID(G) = Θ(√(n/log n))` for random uniform deployments at the
//!   connectivity threshold, and the general `ID(G) = O(√(n/ρ))` trend.
//! * [`equivalence`] — the Theorem 4 argument that FDD recreates the
//!   centralized GreedyPhysical schedule (and hence inherits its
//!   approximation factor), checked schedule-by-schedule on random instances.
//! * [`complexity`] — the Theorem 5 bound `O(TD · ID(G) · n log n)` on the
//!   number of synchronized steps FDD executes, compared against the measured
//!   step counts of actual runs.
//! * the impossibility construction of Theorem 1 lives in
//!   `scream_core::impossibility` because it is part of the protocol crate's
//!   motivation; its empirical check is exercised from the integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Conventions P1 / D1 / H1 / F1 (ROADMAP), carried by clippy; test code is exempt.
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
        clippy::allow_attributes_without_reason,
        clippy::float_cmp
    )
)]

pub mod complexity;
pub mod diameter;
pub mod equivalence;
mod instance;

pub use complexity::{ComplexityObservation, ComplexityReport};
pub use diameter::DiameterObservation;
pub use equivalence::{EquivalenceOutcome, EquivalenceReport};
pub use instance::AnalysisError;
