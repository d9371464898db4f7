//! Packet-level traffic simulation over SCREAM TDMA schedules.
//!
//! The rest of the workspace judges a schedule by its **length**; this crate
//! judges it by what it was built for — **carrying traffic to the
//! gateways**. A [`TrafficEngine`] takes any run-length [`Schedule`]
//! (centralized GreedyPhysical, distributed FDD/PDD/AFDD, the serialized
//! baseline — anything), treats it as an endlessly repeating TDMA frame,
//! and drives multi-hop packet [flows](FlowSet) through per-link FIFO
//! queues, event by event, on a slot calendar of its own:
//!
//! * **flows** follow routing-forest routes (one per mesh node, ending at
//!   its gateway) or arbitrary explicit routes, with deterministic, Poisson
//!   or bursty on/off [arrival processes](ArrivalProcess), all seeded;
//! * **service** comes from the frame's `(channel, link)` slot entries,
//!   indexed per link by [`FrameService`] straight from the run-length
//!   representation — a million-slot heavy-demand frame is indexed in
//!   pattern time, never slot time;
//! * the [`TrafficReport`] measures sustained throughput, end-to-end delay
//!   percentiles, peak/final backlog, per-link offered-load-vs-share
//!   [utilization](LinkLoad) and the analytic [stability
//!   verdict](StabilityVerdict) — offered load strictly below every link's
//!   per-frame service share sustains the load; anything else saturates.
//!
//! There is one packet model with two front ends: [`TrafficEngine`] runs it
//! to a horizon over fixed source routes, and [`TrafficSession`] runs it in
//! resumable segments over a [`ForwardingTable`], so links can fail, frames
//! be swapped and routes change mid-run. Queues, service cursors, arrival
//! seeding, the event loop and delivery accounting exist once, in the
//! crate-private `sim` module.
//!
//! # Example: the stability knee on a two-slot frame
//!
//! ```
//! use scream_scheduling::Schedule;
//! use scream_topology::{Link, NodeId};
//! use scream_traffic::{ArrivalProcess, FlowSet, TrafficConfig, TrafficEngine};
//!
//! let link = Link::new(NodeId::new(1), NodeId::new(0));
//! // The frame serves the link in 1 of its 2 slots: capacity 0.5 pkt/slot.
//! let frame = Schedule::from_slots(vec![vec![link], vec![]]);
//!
//! let run = |rate: f64| {
//!     let flows = FlowSet::single_hop(vec![(link, ArrivalProcess::deterministic(rate))]);
//!     TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(200))
//!         .unwrap()
//!         .run()
//! };
//! let below = run(0.4); // 80% utilization: stable, load carried
//! let above = run(0.6); // 120% utilization: queues grow without bound
//! assert!(below.verdict.is_stable() && below.sustained_throughput_pct > 99.0);
//! assert!(!above.verdict.is_stable() && above.final_backlog > 10);
//! ```

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

pub mod engine;
pub mod flow;
pub mod report;
pub mod session;
mod sim;

pub use engine::{TrafficConfig, TrafficEngine, TrafficError};
pub use flow::{ArrivalProcess, Flow, FlowSet};
pub use report::{DelayStats, LinkLoad, StabilityVerdict, TrafficReport};
pub use session::{ForwardingTable, SegmentReport, SessionTotals, Source, TrafficSession};

// Re-exported so traffic consumers can build frame indexes without also
// depending on scream-scheduling directly.
pub use scream_scheduling::{FrameService, Schedule};
