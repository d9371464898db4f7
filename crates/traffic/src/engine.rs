//! The packet-level traffic engine: the run-to-a-horizon front end of the
//! packet model (the crate-private `sim` module, `src/sim.rs`).
//!
//! [`TrafficEngine`] drives a [`FlowSet`] over a repeating TDMA frame (any
//! run-length [`Schedule`], indexed by [`FrameService`] so million-slot
//! frames cost nothing per slot). Packets are **source-routed**: each hops
//! along its flow's fixed route and is measured end to end. A run is one
//! uninterrupted segment of the shared simulator over `horizon_frames`
//! frame repetitions; the event structure, the departure rule and the
//! determinism guarantee are documented there, once.

use scream_netsim::SimTime;
use scream_scheduling::{FrameService, Schedule};

use crate::flow::FlowSet;
use crate::report::{LinkLoad, StabilityVerdict, TrafficReport};
use crate::sim::{analytic_loads, Links, NextHop, Router, Sim};

/// Configuration of a traffic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// How many frame repetitions to simulate.
    pub(crate) horizon_frames: u64,
    /// Seed for the arrival processes (each flow derives its own stream).
    pub(crate) seed: u64,
    /// Wall-clock duration of one slot (only used to anchor [`SimTime`]
    /// event timestamps; all report metrics are slot-denominated).
    pub(crate) slot_duration: SimTime,
}

impl TrafficConfig {
    /// A configuration simulating `horizon_frames` frame repetitions with
    /// seed 0 and a 1 ms slot.
    pub fn new(horizon_frames: u64) -> Self {
        Self {
            horizon_frames,
            seed: 0,
            slot_duration: SimTime::from_millis(1),
        }
    }

    /// Overrides the arrival seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the slot duration.
    pub fn with_slot_duration(mut self, slot_duration: SimTime) -> Self {
        self.slot_duration = slot_duration;
        self
    }
}

/// Why a [`TrafficEngine`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficError {
    /// The frame has no slots, so nothing can ever be served.
    EmptyFrame,
    /// The flow set is empty, so there is nothing to simulate.
    NoFlows,
    /// The horizon is zero frames.
    ZeroHorizon,
    /// The slot duration is zero.
    ZeroSlotDuration,
    /// A flow's route has no links ([`Flow`](crate::Flow)'s fields are
    /// public, so a route can bypass [`Flow::new`](crate::Flow::new)).
    EmptyRoute {
        /// Index of the offending flow in the flow set.
        flow: usize,
    },
    /// `horizon_frames × frame length` does not fit in a `u64` slot count.
    HorizonOverflow,
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyFrame => write!(f, "the TDMA frame has no slots"),
            Self::NoFlows => write!(f, "the flow set is empty"),
            Self::ZeroHorizon => write!(f, "the horizon must be at least one frame"),
            Self::ZeroSlotDuration => write!(f, "the slot duration must be positive"),
            Self::EmptyRoute { flow } => write!(f, "flow {flow} has an empty route"),
            Self::HorizonOverflow => write!(f, "the horizon in slots overflows a u64"),
        }
    }
}

impl std::error::Error for TrafficError {}

/// Source routing: `hop_links[f][h]` is the registry index of hop `h` of
/// flow `f`, and a packet's tag is its `(flow, hop)` position.
struct SourceRoutes {
    hop_links: Vec<Vec<u32>>,
}

impl Router for SourceRoutes {
    type Tag = (u32, u32);

    fn first_hop(&mut self, source: u32, _: &mut Links<Self::Tag>) -> Option<(u32, Self::Tag)> {
        let first = *self.hop_links[source as usize].first()?;
        Some((first, (source, 0)))
    }

    fn next_hop(
        &mut self,
        _: u32,
        (flow, hop): Self::Tag,
        _: &mut Links<Self::Tag>,
    ) -> NextHop<Self::Tag> {
        match self.hop_links[flow as usize].get(hop as usize + 1) {
            Some(&next) => NextHop::Forward(next, (flow, hop + 1)),
            None => NextHop::Deliver,
        }
    }
}

/// The packet-level traffic engine. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEngine {
    frame: FrameService,
    flows: FlowSet,
    config: TrafficConfig,
    /// `horizon_frames × frame length`, checked at construction.
    horizon_slots: u64,
}

impl TrafficEngine {
    /// Creates an engine serving `flows` with the repeating frame indexed by
    /// `frame`.
    ///
    /// # Errors
    ///
    /// Rejects empty frames, empty flow sets, flows without a route,
    /// degenerate configurations and horizons whose slot count overflows.
    pub fn new(
        frame: FrameService,
        flows: FlowSet,
        config: TrafficConfig,
    ) -> Result<Self, TrafficError> {
        if frame.is_empty() {
            return Err(TrafficError::EmptyFrame);
        }
        if flows.is_empty() {
            return Err(TrafficError::NoFlows);
        }
        if let Some(flow) = flows.flows().iter().position(|f| f.route.is_empty()) {
            return Err(TrafficError::EmptyRoute { flow });
        }
        if config.horizon_frames == 0 {
            return Err(TrafficError::ZeroHorizon);
        }
        if config.slot_duration == SimTime::ZERO {
            return Err(TrafficError::ZeroSlotDuration);
        }
        let horizon_slots = config
            .horizon_frames
            .checked_mul(frame.frame_slots())
            .ok_or(TrafficError::HorizonOverflow)?;
        Ok(Self {
            frame,
            flows,
            config,
            horizon_slots,
        })
    }

    /// [`new`](Self::new) directly from a schedule (the frame index is built
    /// with [`FrameService::from_schedule`]).
    pub fn on_schedule(
        schedule: &Schedule,
        flows: FlowSet,
        config: TrafficConfig,
    ) -> Result<Self, TrafficError> {
        Self::new(FrameService::from_schedule(schedule), flows, config)
    }

    /// The flows the engine drives.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The per-link offered load vs. service share, and the resulting
    /// analytic stability verdict — computable without simulating. A flow
    /// contributes its rate once per *distinct* link on its route.
    pub(crate) fn link_loads(&self) -> (Vec<LinkLoad>, StabilityVerdict) {
        let paths = self.flows.flows().iter().map(|flow| {
            let distinct = flow
                .route
                .iter()
                .enumerate()
                .filter(|&(hop, link)| !flow.route[..hop].contains(link))
                .map(|(_, &link)| link);
            (flow.arrival.mean_rate(), distinct)
        });
        analytic_loads(paths, |link| self.frame.service_share(link))
    }

    /// Runs the simulation over `horizon_frames` frame repetitions and
    /// returns the measurements. Deterministic: rerunning the same engine
    /// yields an identical report.
    pub fn run(&self) -> TrafficReport {
        let flows = self.flows.flows();
        let mut links = Links::default();
        let hop_links = flows
            .iter()
            .map(|flow| flow.route.iter().map(|&link| links.idx(link)).collect())
            .collect();
        let mut sim = Sim::new(
            SourceRoutes { hop_links },
            links,
            flows.iter().map(|flow| flow.arrival),
            &self.config,
        );
        let run = sim.advance(&self.frame, self.horizon_slots);
        let (link_loads, verdict) = self.link_loads();
        TrafficReport {
            frame_slots: self.frame.frame_slots(),
            horizon_slots: self.horizon_slots,
            flow_count: flows.len(),
            offered_per_slot: self.flows.total_offered(),
            injected: run.injected,
            delivered: run.delivered,
            sustained_throughput_per_slot: run.delivered as f64 / self.horizon_slots as f64,
            sustained_throughput_pct: if run.injected == 0 {
                100.0
            } else {
                100.0 * run.delivered as f64 / run.injected as f64
            },
            delay: run.delay,
            peak_backlog: sim.totals.peak_backlog,
            final_backlog: run.injected - run.delivered,
            link_loads,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{ArrivalProcess, Flow, FlowSet};
    use scream_topology::{Link, NodeId};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// A frame serving `link` in `serve` of `total` slots.
    fn fractional_frame(l: Link, serve: u64, total: u64) -> Schedule {
        let mut s = Schedule::new();
        s.push_slot_run(vec![l], serve);
        s.push_slot_run(vec![], total - serve);
        s
    }

    fn single_hop_engine(rate: f64, serve: u64, total: u64, frames: u64) -> TrafficEngine {
        let l = link(1, 0);
        let flows = FlowSet::single_hop(vec![(l, ArrivalProcess::deterministic(rate))]);
        TrafficEngine::on_schedule(
            &fractional_frame(l, serve, total),
            flows,
            TrafficConfig::new(frames),
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_degenerate_inputs() {
        let l = link(1, 0);
        let flows = FlowSet::single_hop(vec![(l, ArrivalProcess::deterministic(0.1))]);
        let frame = fractional_frame(l, 1, 2);
        assert_eq!(
            TrafficEngine::on_schedule(&Schedule::new(), flows.clone(), TrafficConfig::new(1)),
            Err(TrafficError::EmptyFrame)
        );
        assert_eq!(
            TrafficEngine::on_schedule(&frame, FlowSet::default(), TrafficConfig::new(1)),
            Err(TrafficError::NoFlows)
        );
        assert_eq!(
            TrafficEngine::on_schedule(&frame, flows.clone(), TrafficConfig::new(0)),
            Err(TrafficError::ZeroHorizon)
        );
        assert_eq!(
            TrafficEngine::on_schedule(
                &frame,
                flows,
                TrafficConfig::new(1).with_slot_duration(SimTime::ZERO)
            ),
            Err(TrafficError::ZeroSlotDuration)
        );
    }

    #[test]
    fn a_flow_without_a_route_is_a_typed_error() {
        // `Flow`'s fields are public, so a route can skip `Flow::new`'s checks.
        let l = link(1, 0);
        let routed = Flow::new(l.head, vec![l], ArrivalProcess::deterministic(0.1));
        let unrouted = Flow {
            route: Vec::new(),
            ..routed.clone()
        };
        assert_eq!(
            TrafficEngine::on_schedule(
                &fractional_frame(l, 1, 2),
                FlowSet::new(vec![routed, unrouted]),
                TrafficConfig::new(1)
            ),
            Err(TrafficError::EmptyRoute { flow: 1 })
        );
    }

    #[test]
    fn a_horizon_beyond_the_slot_clock_is_a_typed_error() {
        let l = link(1, 0);
        let flows = FlowSet::single_hop(vec![(l, ArrivalProcess::deterministic(0.1))]);
        assert_eq!(
            TrafficEngine::on_schedule(
                &fractional_frame(l, 1, 2),
                flows,
                TrafficConfig::new(u64::MAX / 2 + 1)
            ),
            Err(TrafficError::HorizonOverflow)
        );
    }

    #[test]
    fn uncontended_single_hop_packets_wait_one_slot() {
        // Every slot serves the link; deterministic arrivals at t = 2, 4, ...
        // slots are served in the slot they become ready in, so the
        // end-to-end delay is exactly one slot (the service time).
        let report = single_hop_engine(0.5, 1, 1, 100).run();
        assert_eq!(report.horizon_slots, 100);
        assert_eq!(report.injected, 49, "arrivals at 2, 4, ..., 98");
        assert_eq!(report.delivered, 49, "all served before the horizon");
        assert_eq!(report.final_backlog, 0);
        assert_eq!(report.peak_backlog, 1);
        assert_eq!(report.delay.count, 49);
        assert_eq!(report.delay.mean_slots, 1.0);
        assert_eq!(report.delay.max_slots, 1.0);
        assert!(report.verdict.is_stable());
        assert_eq!(report.sustained_throughput_pct, 100.0);
    }

    #[test]
    fn multi_hop_pipeline_delay_adds_per_hop_service() {
        // Frame: slot 0 serves 2->1, slot 1 serves 1->0. A packet arriving
        // at an even slot crosses both hops in consecutive slots: delay 2.
        let upstream = link(2, 1);
        let downstream = link(1, 0);
        let frame = Schedule::from_slots(vec![vec![upstream], vec![downstream]]);
        let flows = FlowSet::new(vec![Flow::new(
            NodeId::new(2),
            vec![upstream, downstream],
            ArrivalProcess::deterministic(0.25),
        )]);
        let report = TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(100))
            .unwrap()
            .run();
        assert_eq!(report.injected, 49, "arrivals at 4, 8, ..., 196");
        assert_eq!(report.delivered, 49);
        assert_eq!(report.delay.mean_slots, 2.0);
        assert_eq!(report.delay.max_slots, 2.0);
        assert_eq!(report.link_loads.len(), 2);
        assert!(report.verdict.is_stable());
    }

    #[test]
    fn below_capacity_throughput_sustains_the_offered_load() {
        // 80% utilization of a half-rate link: the queue stays bounded and
        // the carried load equals the offered load (modulo in-flight edge
        // packets).
        let report = single_hop_engine(0.4, 1, 2, 500).run();
        assert!(report.verdict.is_stable());
        let expected = report.offered_per_slot * report.horizon_slots as f64;
        assert!(report.injected as f64 >= expected - 2.0);
        assert!(report.sustained_throughput_pct > 99.0);
        assert!(
            report.final_backlog <= 2,
            "backlog {}",
            report.final_backlog
        );
        let per_slot = report.sustained_throughput_per_slot;
        assert!(
            (per_slot - report.offered_per_slot).abs() < 0.01,
            "sustained {per_slot} vs offered {}",
            report.offered_per_slot
        );
    }

    #[test]
    fn above_capacity_the_verdict_flips_and_delay_grows_with_horizon() {
        // 120% utilization: delivered saturates at the service share, the
        // backlog scales with the horizon and so does the mean delay.
        let short = single_hop_engine(0.6, 1, 2, 100).run();
        let long = single_hop_engine(0.6, 1, 2, 400).run();
        for report in [&short, &long] {
            assert!(!report.verdict.is_stable());
            let StabilityVerdict::Overloaded { bottlenecks } = &report.verdict else {
                panic!("expected overload");
            };
            assert_eq!(bottlenecks.len(), 1);
            assert!((bottlenecks[0].utilization() - 1.2).abs() < 1e-9);
            // Sustained throughput saturates at the 0.5 pkt/slot share.
            assert!((report.sustained_throughput_per_slot - 0.5).abs() < 0.02);
            assert!(report.sustained_throughput_pct < 90.0);
        }
        assert!(long.final_backlog > 3 * short.final_backlog / 2);
        assert!(
            long.delay.mean_slots > 2.0 * short.delay.mean_slots,
            "delay must grow with the horizon in overload: {} vs {}",
            long.delay.mean_slots,
            short.delay.mean_slots
        );
        assert!(long.peak_backlog >= long.final_backlog);
    }

    #[test]
    fn a_link_the_frame_never_serves_is_an_infinite_bottleneck() {
        let served = link(1, 0);
        let orphan = link(3, 2);
        let frame = fractional_frame(served, 1, 1);
        let flows = FlowSet::single_hop(vec![(orphan, ArrivalProcess::deterministic(0.25))]);
        let report = TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(20))
            .unwrap()
            .run();
        assert_eq!(report.delivered, 0);
        assert_eq!(report.final_backlog, report.injected);
        assert!(report.injected > 0);
        let StabilityVerdict::Overloaded { bottlenecks } = &report.verdict else {
            panic!("expected overload");
        };
        assert_eq!(bottlenecks[0].utilization(), f64::INFINITY);
    }

    #[test]
    fn runs_are_deterministic_for_every_arrival_process() {
        let l = link(1, 0);
        let frame = fractional_frame(l, 2, 3);
        for process in [
            ArrivalProcess::deterministic(0.3),
            ArrivalProcess::poisson(0.3),
            ArrivalProcess::on_off(1.0, 8.0, 8.0),
        ] {
            let build = || {
                TrafficEngine::on_schedule(
                    &frame,
                    FlowSet::single_hop(vec![(l, process)]),
                    TrafficConfig::new(60).with_seed(11),
                )
                .unwrap()
            };
            let a = build().run();
            let b = build().run();
            assert_eq!(a, b, "same seed must reproduce byte-identical reports");
            let other_seed = TrafficEngine::on_schedule(
                &frame,
                FlowSet::single_hop(vec![(l, process)]),
                TrafficConfig::new(60).with_seed(12),
            )
            .unwrap()
            .run();
            // Deterministic arrivals ignore the seed; the random ones use it.
            if matches!(process, ArrivalProcess::Deterministic { .. }) {
                assert_eq!(a.injected, other_seed.injected);
            } else {
                assert_ne!(a, other_seed, "different seeds should diverge");
            }
            assert!(a.injected > 0 && a.delivered > 0);
        }
    }

    #[test]
    fn poisson_load_below_capacity_is_stable_in_practice() {
        let l = link(1, 0);
        let frame = fractional_frame(l, 1, 2);
        let flows = FlowSet::single_hop(vec![(l, ArrivalProcess::poisson(0.35))]);
        let report =
            TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(2_000).with_seed(3))
                .unwrap()
                .run();
        assert!(report.verdict.is_stable());
        assert!(report.sustained_throughput_pct > 99.0);
        // M/D-ish queue at 70% utilization: delays are modest but not the
        // deterministic 2-slot floor.
        assert!(
            report.delay.p95_slots < 40.0,
            "p95 {}",
            report.delay.p95_slots
        );
        assert!(report.delay.mean_slots >= 1.0);
    }

    #[test]
    fn million_slot_frames_simulate_in_pattern_time() {
        // A frame of 1M slots serving the link in its first 100k slots: the
        // engine must index and simulate this without per-slot work.
        let l = link(1, 0);
        let frame = fractional_frame(l, 100_000, 1_000_000);
        let flows = FlowSet::single_hop(vec![(l, ArrivalProcess::deterministic(0.05))]);
        let report = TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(1))
            .unwrap()
            .run();
        assert_eq!(report.frame_slots, 1_000_000);
        assert!(report.injected > 40_000);
        // Offered 0.05 < share 0.1, but packets arriving after the service
        // prefix wait for the next frame repetition (which is beyond the
        // horizon), so the bulk of the tail stays queued: the stability
        // verdict is a long-run statement, backlog within one frame is not.
        assert!(report.verdict.is_stable());
        // 0.05 pkt/slot over the 100k-slot service prefix: ~5000 packets go
        // through within the frame; the rest queue for the next repetition.
        assert!(report.delivered >= 4_999, "the prefix is served in-frame");
    }

    #[test]
    fn shared_link_aggregates_two_flows_fifo() {
        // Two deterministic flows share one link at combined utilization 0.9;
        // both are carried and the report sums their loads.
        let l = link(1, 0);
        let frame = fractional_frame(l, 1, 1);
        let flows = FlowSet::new(vec![
            Flow::new(NodeId::new(1), vec![l], ArrivalProcess::deterministic(0.5)),
            Flow::new(NodeId::new(1), vec![l], ArrivalProcess::deterministic(0.4)),
        ]);
        let report = TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(300))
            .unwrap()
            .run();
        assert!(report.verdict.is_stable());
        assert_eq!(report.link_loads.len(), 1);
        assert!((report.link_loads[0].offered_per_slot - 0.9).abs() < 1e-12);
        assert!(report.sustained_throughput_pct > 99.0);
        assert!(report.peak_backlog <= 8);
    }
}
