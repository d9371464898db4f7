//! Simulation of the Mica2 mote SCREAM-detection experiment (Section V of
//! the paper).
//!
//! The paper validates the SCREAM primitive's core assumption — that
//! energy-detection carrier sensing keeps working under deliberate
//! collisions — on a small Crossbow Mica2 testbed: one *Initiator* emits a
//! SCREAM of `SMBytes` every 100 ms, six *Relays* placed in a clique with the
//! *Monitor* re-scream as soon as they detect channel activity, and the
//! Monitor (which cannot hear the Initiator directly) declares a detection
//! when the moving average of its RSSI samples crosses −60 dBm. The reported
//! metric is the percentage of inter-detection intervals falling outside
//! ±5 % of the expected 100 ms, as a function of the SCREAM size.
//!
//! The physical testbed is not available, so this crate reproduces the
//! experiment as a discrete-event simulation with a byte-timed CC1000-class
//! radio (38.4 kb/s), staggered relay turnaround delays, collision-tolerant
//! energy aggregation and a UART-limited monitor that only consumes every
//! third RSSI sample — the mechanism the paper identifies as the cause of
//! detection lag. Its output is Figs. 4 and 5 of
//! `crates/bench/FIGURES.txt`.
//!
//! # Example
//!
//! ```
//! use scream_mote::{MoteExperiment, MoteExperimentConfig};
//!
//! let config = MoteExperimentConfig::paper_default()
//!     .with_scream_bytes(24)
//!     .with_scream_count(200);
//! let result = MoteExperiment::new(config).run();
//! assert!(result.error_percentage() < 5.0);
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
pub mod experiment;
pub mod rssi;

pub use config::MoteExperimentConfig;
pub use experiment::{DetectionErrorPoint, MoteExperiment, MoteExperimentResult};
pub use rssi::RssiTrace;
