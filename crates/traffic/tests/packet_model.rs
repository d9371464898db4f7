//! The packet model against references that do not share its code.
//!
//! `TrafficEngine` and `TrafficSession` are two front ends of one simulator,
//! so comparing them with each other no longer checks the model. Two
//! independent references stand in:
//!
//! * a **slot-stepped oracle** (below; no `FrameService`, no `EventQueue`,
//!   nothing from the crate's simulator): it expands the schedule slot by
//!   slot and serves each scheduled entry's FIFO head. Arrivals are
//!   deterministic with periods of `k + 1/1024` slots and the slot lasts
//!   1 024 000 ns, so every instant is an exact integer number of 1/1024-slot
//!   ticks, no arrival coincides with a slot boundary inside the horizon
//!   (where the event order would depend on scheduling history), and every
//!   delay is exact in `f64` — equality below is bit equality;
//! * **values captured at earlier commits**: a seeded Poisson mesh run at
//!   0.9 load (the last commit with two simulators), the same mesh at 1.2
//!   load and a small instance whose arrivals tie with departures on slot
//!   boundaries (the last commit that held one departure event per queued
//!   packet, so same-instant order is pinned where the oracle above avoids
//!   it).

#![expect(
    clippy::disallowed_methods,
    reason = "the slot-stepped oracle expands the schedule on purpose; H1.hot is a rule for library code"
)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream_netsim::{ChannelId, PropagationModel, RadioEnvironment, SimTime};
use scream_scheduling::{FrameService, GreedyPhysical, Schedule, SlotPattern};
use scream_topology::{
    DemandConfig, DemandVector, Graph, GraphKind, GridDeployment, Link, LinkDemands, NodeId,
    RoutingForest,
};
use scream_traffic::{
    ArrivalProcess, DelayStats, Flow, FlowSet, ForwardingTable, Source, TrafficConfig,
    TrafficEngine, TrafficSession,
};

/// Ticks per slot: all oracle time is integer ticks.
const TICKS: u64 = 1024;
const HORIZON_FRAMES: u64 = 75;

fn link(a: u32, b: u32) -> Link {
    Link::new(NodeId::new(a), NodeId::new(b))
}

/// The uplink of `node` on the path 3 → 2 → 1 → 0 (0 is the gateway).
fn uplink(node: NodeId) -> Option<Link> {
    let n = node.index() as u32;
    (n > 0).then(|| link(n, n - 1))
}

/// `(source node, arrival period in ticks)`: 5, 6 and 9 slots plus one tick.
const SOURCES: [(u32, u64); 3] = [(3, 5121), (2, 6145), (1, 9217)];

fn rate(period_ticks: u64) -> f64 {
    let rate = TICKS as f64 / period_ticks as f64;
    // The sampler steps by `1.0 / rate`; the oracle relies on that being the
    // period exactly.
    assert_eq!(1.0 / rate, period_ticks as f64 / TICKS as f64);
    rate
}

struct Reference {
    injected: u64,
    delivered: u64,
    peak_backlog: u64,
    /// `(instant of delivery in slots, delay in slots)`, in delivery order.
    deliveries: Vec<(u64, f64)>,
}

/// Walks `horizon` slots of the repeating `frame`. Iteration `s` covers the
/// instants `(s, s + 1]`: slot `s` serves what was queued at instant `s`,
/// then the arrivals inside the slot join their queues, then — at `s + 1` —
/// the served packets are delivered or join the next queue.
fn reference(frame: &Schedule, horizon: u64) -> Reference {
    let slots: Vec<&SlotPattern> = frame.slots().collect();
    let mut queues: BTreeMap<Link, VecDeque<u64>> = BTreeMap::new();
    let mut next_arrival: Vec<u64> = SOURCES.iter().map(|&(_, period)| period).collect();
    let mut out = Reference {
        injected: 0,
        delivered: 0,
        peak_backlog: 0,
        deliveries: Vec::new(),
    };
    let mut in_flight = 0u64;
    for s in 0..horizon {
        let mut served: Vec<(Link, u64)> = Vec::new();
        for (_, l) in slots[s as usize % slots.len()].entries() {
            if let Some(created) = queues.get_mut(&l).and_then(VecDeque::pop_front) {
                served.push((l, created));
            }
        }
        for (i, &(node, period)) in SOURCES.iter().enumerate() {
            while next_arrival[i] < (s + 1) * TICKS {
                assert_ne!(next_arrival[i] % TICKS, 0, "arrival on a slot boundary");
                let first = uplink(NodeId::new(node)).unwrap();
                queues.entry(first).or_default().push_back(next_arrival[i]);
                out.injected += 1;
                in_flight += 1;
                out.peak_backlog = out.peak_backlog.max(in_flight);
                next_arrival[i] += period;
            }
        }
        for (l, created) in served {
            match uplink(l.tail) {
                Some(next) => queues.entry(next).or_default().push_back(created),
                None => {
                    out.delivered += 1;
                    in_flight -= 1;
                    let delay = ((s + 1) * TICKS - created) as f64 / TICKS as f64;
                    out.deliveries.push((s + 1, delay));
                }
            }
        }
    }
    out
}

/// Nearest-rank statistics of the deliveries at instants in `(from, to]`,
/// in integer arithmetic.
fn stats(reference: &Reference, from: u64, to: u64) -> DelayStats {
    let mut delays: Vec<f64> = reference
        .deliveries
        .iter()
        .filter(|&&(at, _)| from < at && at <= to)
        .map(|&(_, delay)| delay)
        .collect();
    delays.sort_by(f64::total_cmp);
    let n = delays.len();
    if n == 0 {
        return DelayStats::default();
    }
    let rank = |pct: usize| delays[(pct * n).div_ceil(100).max(1) - 1];
    DelayStats {
        count: n as u64,
        mean_slots: delays.iter().sum::<f64>() / n as f64,
        p50_slots: rank(50),
        p95_slots: rank(95),
        p99_slots: rank(99),
        max_slots: delays[n - 1],
    }
}

fn config() -> TrafficConfig {
    TrafficConfig::new(HORIZON_FRAMES).with_slot_duration(SimTime::from_nanos(1000 * TICKS))
}

fn engine_report(frame: &Schedule) -> scream_traffic::TrafficReport {
    let flows = SOURCES
        .iter()
        .map(|&(node, period)| {
            let route: Vec<Link> = (1..=node).rev().map(|n| link(n, n - 1)).collect();
            Flow::new(
                NodeId::new(node),
                route,
                ArrivalProcess::deterministic(rate(period)),
            )
        })
        .collect();
    TrafficEngine::on_schedule(frame, FlowSet::new(flows), config())
        .unwrap()
        .run()
}

fn session(frame: &Schedule) -> TrafficSession {
    let mut g = Graph::new(4, GraphKind::Undirected);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
        g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
    let sources = SOURCES
        .iter()
        .map(|&(node, period)| Source {
            node: NodeId::new(node),
            arrival: ArrivalProcess::deterministic(rate(period)),
        })
        .collect();
    TrafficSession::new(
        FrameService::from_schedule(frame),
        sources,
        ForwardingTable::from_forest(&forest),
        config(),
    )
    .unwrap()
}

/// Engine, then a session in uneven segments, against the oracle.
fn check_against_reference(frame: &Schedule) {
    let horizon = HORIZON_FRAMES * frame.length() as u64;
    let expected = reference(frame, horizon);
    assert!(expected.delivered > 100 && expected.peak_backlog > 3);

    let report = engine_report(frame);
    assert_eq!(report.horizon_slots, horizon);
    assert_eq!(report.injected, expected.injected);
    assert_eq!(report.delivered, expected.delivered);
    assert_eq!(report.peak_backlog, expected.peak_backlog);
    assert_eq!(report.final_backlog, expected.injected - expected.delivered);
    assert_eq!(report.delay, stats(&expected, 0, horizon));

    let mut session = session(frame);
    let mut cuts = vec![1u64, 7, 64, 3, 200];
    cuts.push(horizon - cuts.iter().sum::<u64>());
    let (mut injected, mut delivered) = (0, 0);
    for slots in cuts {
        let segment = session.advance(slots);
        assert_eq!(segment.end_slot - segment.start_slot, slots);
        // A segment's delay block describes exactly the packets it delivered.
        let window = stats(&expected, segment.start_slot, segment.end_slot);
        assert_eq!(segment.delay, window);
        assert_eq!(segment.delay.count, segment.delivered);
        injected += segment.injected;
        delivered += segment.delivered;
    }
    assert_eq!(session.now_slot(), horizon);
    assert_eq!(injected, expected.injected);
    assert_eq!(delivered, expected.delivered);
    let totals = session.totals();
    assert_eq!(totals.injected, expected.injected);
    assert_eq!(totals.delivered, expected.delivered);
    assert_eq!(totals.peak_backlog, expected.peak_backlog);
    assert_eq!(totals.in_flight, expected.injected - expected.delivered);
    assert_eq!(totals.dropped, 0);
    assert_eq!(session.delay(), stats(&expected, 0, horizon));
}

#[test]
fn a_shared_multi_hop_path_matches_the_slot_stepped_reference() {
    // Shares: (3,2) 2/8, (2,1) 3/8, (1,0) 4/8 against offered loads of
    // about 0.20, 0.36 and 0.47 — stable, but queues form on every link.
    let frame = Schedule::from_slots(vec![
        vec![link(3, 2), link(1, 0)],
        vec![link(2, 1)],
        vec![link(1, 0)],
        vec![link(2, 1)],
        vec![link(1, 0)],
        vec![],
        vec![link(2, 1), link(1, 0)],
        vec![link(3, 2)],
    ]);
    check_against_reference(&frame);
}

#[test]
fn a_link_on_two_channels_serves_two_packets_per_slot() {
    // The last hop is carried on both channels of two slots in eight: the
    // only kind of frame in which a service slot has capacity 2, i.e. the
    // only input that takes the cursor's `used < capacity` branch.
    let on = |c: u16, l: Link| (ChannelId::new(c), l);
    let doubled = SlotPattern::from_entries(vec![on(0, link(1, 0)), on(1, link(1, 0))]);
    let frame = Schedule::from_pattern_runs(vec![
        (SlotPattern::from_links(vec![link(3, 2)]), 2),
        (SlotPattern::from_links(vec![link(2, 1)]), 3),
        (doubled, 2),
        (SlotPattern::new(), 1),
    ]);
    assert_eq!(
        FrameService::from_schedule(&frame)
            .next_service_slot(link(1, 0), 0)
            .unwrap()
            .capacity,
        2
    );
    check_against_reference(&frame);
}

/// The seeded 5×5 Poisson mesh on its greedy frame at `load` times the
/// frame's capacity, 300 frames.
fn poisson_mesh_engine(load: f64) -> TrafficEngine {
    let d = GridDeployment::new(5, 5, 150.0).build();
    let env = RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .build(&d);
    let gateways = d.corner_nodes();
    let forest = RoutingForest::shortest_path(&env.communication_graph(), &gateways, 3).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
    let schedule = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
    let unit = load / schedule.length() as f64;
    let flows =
        FlowSet::along_forest_with(&forest, &demands, unit, |_, r| ArrivalProcess::poisson(r));
    TrafficEngine::on_schedule(&schedule, flows, TrafficConfig::new(300).with_seed(42)).unwrap()
}

#[test]
fn a_seeded_poisson_mesh_report_is_bit_identical_to_the_parent_commit() {
    // Captured at ae1eebc, the last commit where the engine had a simulator
    // of its own. Covers the greedy frame too, so the shared placement loop
    // is pinned by the same numbers.
    let r = poisson_mesh_engine(0.9).run();
    assert_eq!((r.frame_slots, r.flow_count), (121, 21));
    assert_eq!((r.injected, r.delivered), (32_636, 32_528));
    assert_eq!((r.peak_backlog, r.final_backlog), (215, 108));
    assert_eq!(r.delay.count, 32_528);
    assert!(r.verdict.is_stable());
    assert_eq!(r.delay.mean_slots.to_bits(), 0x4060_d037_eec5_d431);
    assert_eq!(r.delay.p50_slots.to_bits(), 0x405a_40f2_dc2b_0ea2);
    assert_eq!(r.delay.p95_slots.to_bits(), 0x4075_f16c_b966_be7b);
    assert_eq!(r.delay.max_slots.to_bits(), 0x4093_b6d0_1216_82f9);
    assert_eq!(
        r.sustained_throughput_per_slot.to_bits(),
        0x3fec_acc1_109d_8567
    );
    assert_eq!(r.sustained_throughput_pct.to_bits(), 0x4058_ead2_28b9_ffd0);
}

#[test]
fn a_seeded_overloaded_poisson_mesh_report_is_bit_identical_to_the_parent_commit() {
    // The same mesh at 1.2 times capacity: queues grow to thousands of
    // packets, so almost every departure waits behind a backlog. Captured at
    // de488f1, where every queued packet held its own departure event.
    let r = poisson_mesh_engine(1.2).run();
    assert_eq!((r.frame_slots, r.flow_count), (121, 21));
    assert_eq!((r.injected, r.delivered), (43_446, 36_488));
    assert_eq!((r.peak_backlog, r.final_backlog), (6_958, 6_958));
    assert_eq!(r.delay.count, 36_488);
    let scream_traffic::StabilityVerdict::Overloaded { bottlenecks } = &r.verdict else {
        panic!("1.2 times capacity must be overloaded");
    };
    assert_eq!(bottlenecks.len(), 21);
    assert_eq!(r.offered_per_slot.to_bits(), 0x3ff3_5bd2_4d02_f643);
    assert_eq!(r.delay.mean_slots.to_bits(), 0x40a6_9d0f_1393_53e0);
    assert_eq!(r.delay.p50_slots.to_bits(), 0x40a3_9ccb_736c_df26);
    assert_eq!(r.delay.p95_slots.to_bits(), 0x40bb_0213_fb69_984a);
    assert_eq!(r.delay.p99_slots.to_bits(), 0x40c0_2f8f_d966_3843);
    assert_eq!(r.delay.max_slots.to_bits(), 0x40c1_8c66_95bf_f045);
    assert_eq!(
        r.sustained_throughput_per_slot.to_bits(),
        0x3ff0_1536_a43c_2472
    );
    assert_eq!(r.sustained_throughput_pct.to_bits(), 0x4054_ff05_9906_6024);
}

#[test]
fn the_event_queue_holds_one_departure_per_link_not_one_per_packet() {
    // Thousands of packets queue at 1.2 times capacity, but only each
    // queue's head has its departure in the event queue, beside one pending
    // arrival per source. When every queued packet held its own departure
    // (de488f1) the pending peak was 5 774.
    let engine = poisson_mesh_engine(1.2);
    let flows = engine.flows().flows();
    let links: BTreeSet<Link> = flows.iter().flat_map(|f| f.route.iter().copied()).collect();
    scream_obs::install();
    let report = engine.run();
    let trace = scream_obs::uninstall().unwrap().snapshot;
    assert_eq!(report.peak_backlog, 6_958);
    let pending_peak = trace.gauges["traffic.events.pending_peak"];
    assert!(
        pending_peak <= (links.len() + flows.len()) as u64,
        "{pending_peak} events pending at once for {} links and {} sources",
        links.len(),
        flows.len()
    );
    // Every event popped at the parent commit is popped here.
    assert_eq!(trace.counter("traffic.events"), 94_605);
}

/// Delays in whole slots: `count` packets whose delays sum to `sum`, with
/// the given p50 / p95 (= p99 = max) order statistics.
fn whole_slot_delays(count: u64, sum: u64, p50: u64, p95: u64) -> DelayStats {
    DelayStats {
        count,
        mean_slots: sum as f64 / count as f64,
        p50_slots: p50 as f64,
        p95_slots: p95 as f64,
        p99_slots: p95 as f64,
        max_slots: p95 as f64,
    }
}

#[test]
fn a_departure_and_arrivals_on_one_instant_keep_the_parent_commits_order() {
    // Three sources of period 2 share one link served every slot, so at
    // every even instant three arrivals and one departure coincide behind a
    // growing queue. The departure was booked when its packet joined the
    // queue, before the three arrivals were armed, so it leaves first; a
    // departure booked later (when its predecessor left, at the odd instant
    // before) would leave after them and raise the peak backlog by one.
    // Captured at de488f1, where every queued packet held its own event.
    let l = link(1, 0);
    let frame = Schedule::from_slots(vec![vec![l]]);
    let arrival = ArrivalProcess::deterministic(0.5);
    let flows = FlowSet::single_hop(vec![(l, arrival); 3]);
    let r = TrafficEngine::on_schedule(&frame, flows, TrafficConfig::new(40))
        .unwrap()
        .run();
    assert_eq!((r.injected, r.delivered), (57, 38));
    assert_eq!((r.peak_backlog, r.final_backlog), (21, 19));
    assert_eq!(r.delay, whole_slot_delays(38, 297, 8, 14));

    // The same through a session cut into segments, so that queues of two
    // to six packets are re-booked at segment starts.
    let mut g = Graph::new(2, GraphKind::Undirected);
    g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
    let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
    let source = Source {
        node: NodeId::new(1),
        arrival,
    };
    let mut session = TrafficSession::new(
        FrameService::from_schedule(&frame),
        vec![source; 3],
        ForwardingTable::from_forest(&forest),
        TrafficConfig::new(1),
    )
    .unwrap();
    let expected = [
        (3, (3, 1, 2), whole_slot_delays(1, 1, 1, 1)),
        (6, (9, 6, 5), whole_slot_delays(6, 17, 3, 4)),
        (2, (3, 2, 6), whole_slot_delays(2, 9, 4, 5)),
        (29, (42, 29, 19), whole_slot_delays(29, 270, 9, 14)),
    ];
    for (slots, counts, delay) in expected {
        let segment = session.advance(slots);
        assert_eq!(
            (segment.injected, segment.delivered, segment.backlog_end),
            counts
        );
        assert_eq!(segment.delay, delay);
    }
    let totals = session.totals();
    assert_eq!((totals.injected, totals.delivered), (57, 38));
    assert_eq!((totals.peak_backlog, totals.in_flight), (21, 19));
    assert_eq!(session.delay(), whole_slot_delays(38, 297, 8, 14));
}

/// A 17 000-slot frame on the path 3 → 2 → 1 → 0: each link is served in
/// one long window, and gaps of 5 000 – 6 000 idle slots separate them.
fn long_frame() -> Schedule {
    let run = |links: Vec<Link>, slots| (SlotPattern::from_links(links), slots);
    Schedule::from_pattern_runs(vec![
        run(vec![link(3, 2)], 200),
        run(vec![], 5_000),
        run(vec![link(2, 1)], 300),
        run(vec![], 5_000),
        run(vec![link(1, 0)], 500),
        run(vec![], 6_000),
    ])
}

/// Node 3 Poisson, node 2 bursty, node 1 one packet per 1 500.3 slots.
fn long_frame_arrivals() -> [(u32, ArrivalProcess); 3] {
    [
        (3, ArrivalProcess::poisson(0.01)),
        (2, ArrivalProcess::on_off(0.05, 200.0, 2_000.0)),
        (1, ArrivalProcess::deterministic(1.0 / 1_500.3)),
    ]
}

#[test]
fn a_frame_longer_than_the_event_calendar_keeps_the_parent_commits_report() {
    // The frame spans more than four times the packet model's slot ring, so
    // most departures are booked thousands of slots ahead and node 1's
    // arrivals come more than a ring apart. Captured at d05740a, where one
    // binary heap held every pending event.
    let frame = long_frame();
    assert_eq!(frame.length(), 17_000);
    let flows = long_frame_arrivals()
        .into_iter()
        .map(|(node, arrival)| {
            let route: Vec<Link> = (1..=node).rev().map(|n| link(n, n - 1)).collect();
            Flow::new(NodeId::new(node), route, arrival)
        })
        .collect();
    let config = TrafficConfig::new(20).with_seed(11);
    let engine = TrafficEngine::on_schedule(&frame, FlowSet::new(flows), config).unwrap();
    scream_obs::install();
    let r = engine.run();
    let trace = scream_obs::uninstall().unwrap().snapshot;
    assert_eq!((r.frame_slots, r.horizon_slots), (17_000, 340_000));
    assert_eq!((r.injected, r.delivered), (4_875, 4_689));
    assert_eq!((r.peak_backlog, r.final_backlog), (424, 186));
    assert_eq!(r.delay.count, 4_689);
    assert!(r.verdict.is_stable());
    assert_eq!(r.offered_per_slot.to_bits(), 0x3f8f_2776_747d_08c9);
    assert_eq!(r.delay.mean_slots.to_bits(), 0x40d0_ab71_ec16_5cba);
    assert_eq!(r.delay.p50_slots.to_bits(), 0x40d0_677e_3d18_8f43);
    assert_eq!(r.delay.p95_slots.to_bits(), 0x40d9_710b_8f36_6949);
    assert_eq!(r.delay.p99_slots.to_bits(), 0x40da_7fb0_8438_0885);
    assert_eq!(r.delay.max_slots.to_bits(), 0x40da_bed6_ba0e_8427);
    assert_eq!(
        r.sustained_throughput_per_slot.to_bits(),
        0x3f8c_3e8c_5f50_faf7
    );
    assert_eq!(r.sustained_throughput_pct.to_bits(), 0x4058_0bd0_bd0b_d0bd);
    assert_eq!(trace.counter("traffic.events"), 17_290);
    assert_eq!(trace.gauges["traffic.events.pending_peak"], 6);

    // The same flows through a session cut into segments shorter and
    // longer than the ring, so far-booked queues are re-booked at each cut.
    let mut g = Graph::new(4, GraphKind::Undirected);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
        g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
    let sources = long_frame_arrivals()
        .into_iter()
        .map(|(node, arrival)| Source {
            node: NodeId::new(node),
            arrival,
        })
        .collect();
    let mut session = TrafficSession::new(
        FrameService::from_schedule(&frame),
        sources,
        ForwardingTable::from_forest(&forest),
        config,
    )
    .unwrap();
    // `(slots, injected, delivered, backlog_end)` per segment.
    let expected = [
        (1, 0, 0, 0),
        (700, 20, 0, 20),
        (5_000, 54, 0, 74),
        (1_023, 14, 0, 88),
        (1_025, 11, 0, 99),
        (40_000, 653, 530, 222),
        (292_251, 4_123, 4_159, 186),
    ];
    for (slots, injected, delivered, backlog) in expected {
        let s = session.advance(slots);
        assert_eq!(
            (s.injected, s.delivered, s.backlog_end),
            (injected, delivered, backlog)
        );
    }
    let totals = session.totals();
    assert_eq!(
        (totals.injected, totals.delivered),
        (r.injected, r.delivered)
    );
    assert_eq!((totals.peak_backlog, totals.in_flight), (424, 186));
    assert_eq!(session.delay(), r.delay);
}
