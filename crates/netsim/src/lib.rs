//! Radio-level wireless network simulator for the SCREAM reproduction.
//!
//! The original paper evaluates its protocols inside the Georgia Tech Network
//! Simulator (GTNetS), a C++ packet-level simulator, and validates the SCREAM
//! primitive on Crossbow Mica2 motes. Neither is available here, so this
//! crate implements from scratch the radio-level behaviours the protocols
//! actually depend on:
//!
//! * **propagation** — log-distance path loss with optional log-normal
//!   shadowing (the paper uses a log-normal model with path-loss exponent 3);
//! * **SINR** — received power, noise and interference bookkeeping under the
//!   physical interference model of Section II, including the data/ACK
//!   sub-slot structure;
//! * **carrier sensing** — energy detection above a threshold, the mechanism
//!   the SCREAM primitive relies on. The environment judges it one
//!   transmitter at a time, which is all the sensitivity graph `G_S` of
//!   Definition 1 asks; like the communication graph, `G_S` is one scan over
//!   the node pairs;
//! * **clocks** — per-node bounded clock skew and the guard times the
//!   protocol implementations use to compensate for it (Section VI-C);
//! * **discrete-event engine** — a small deterministic event queue, the
//!   mote experiment's clock (the traffic engine keeps a slot calendar of
//!   its own).
//!
//! # Example: building a radio environment and checking a slot
//!
//! ```
//! use scream_netsim::{PropagationModel, RadioEnvironment};
//! use scream_topology::GridDeployment;
//!
//! let deployment = GridDeployment::new(4, 4, 200.0).build();
//! let env = RadioEnvironment::builder()
//!     .propagation(PropagationModel::log_distance(3.0))
//!     .build(&deployment);
//!
//! // Two far-apart links can share a slot; adjacent links cannot.
//! let g = env.communication_graph();
//! assert!(g.is_connected());
//! ```
//!
//! # What stays inside
//!
//! The spatial pruning kernels behind the ledger's verdict — the endpoint
//! grid, the far-field bound, the squared-distance gain evaluator — are
//! implementation, not API; no path outside this crate names them:
//!
//! ```compile_fail,E0432
//! use scream_netsim::GridGeometry;
//! ```
//!
//! ```compile_fail,E0432
//! use scream_netsim::EndpointBuckets;
//! ```
//!
//! ```compile_fail,E0432
//! use scream_netsim::FarField;
//! ```
//!
//! ```compile_fail,E0432
//! use scream_netsim::GainProfile;
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

pub mod clock;
pub mod des;
pub mod environment;
pub mod ledger;
pub mod propagation;
pub mod radio;
mod refusal;
mod spatial;
pub mod timing;
pub mod units;

pub use clock::ClockSkewConfig;
pub use des::{EventQueue, ScheduledEvent};
pub use environment::{RadioEnvironment, RadioEnvironmentBuilder};
pub use ledger::{ChannelSlotLedger, LinkSinrMargin, SlotAccumulator, SlotClaims, SlotLedger};
pub use propagation::{PropagationModel, ShadowingField};
pub use radio::{ChannelId, RadioConfig};
pub use timing::{ProtocolTiming, SlotTiming};
pub use units::{DataRate, Db, Dbm, Meters, Mw, SimTime};

/// The ChaCha8 stream of case `case` of the seeded-loop property `property`:
/// seeded with FNV-1a(`property`) + `case`, so every property draws its own
/// instances and draws the same ones on every run.
#[cfg(test)]
fn case_stream(property: &str, case: u32) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for byte in property.bytes() {
        seed = (seed ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
    }
    rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_add(case as u64))
}
