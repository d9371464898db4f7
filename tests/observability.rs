//! Integration tests for the `scream-obs` layer: same instance + seed must
//! yield byte-identical metrics snapshots and slot-clock traces across
//! schedulers and churn runs, and a disabled (or zero-capacity) sink must
//! leave every schedule and report byte-identical to the uninstrumented run.

use std::collections::BTreeSet;

use rand::Rng;

use scream::obs;
use scream::prelude::*;
use scream_bench::{PaperScenario, RecoveryExperiment, ScenarioInstance};

#[path = "common/cases.rs"]
mod cases;
use cases::for_cases;

/// The 16-node paper grid at 2000 nodes/km² — the same world the unit tests
/// and `trace_schedule` exercise, small enough to schedule in milliseconds.
fn paper_instance(seed: u64) -> ScenarioInstance {
    PaperScenario::grid(2_000.0)
        .with_node_count(16)
        .instantiate(seed)
        .unwrap()
}

/// Run `work` with the sink installed and hand back its output together
/// with everything the instrumentation saw.
fn observed<T>(work: impl FnOnce() -> T) -> (T, obs::ObsReport) {
    assert!(
        !obs::is_installed(),
        "tests must not leak an installed sink"
    );
    obs::install();
    let out = work();
    let report = obs::uninstall().expect("the sink was installed above");
    (out, report)
}

/// Every rendering of two reports must match byte-for-byte: the structured
/// snapshot (PartialEq), the Debug renderings, the JSONL trace export and
/// the snapshot JSON.
fn assert_byte_identical(a: &obs::ObsReport, b: &obs::ObsReport) {
    assert_eq!(a.snapshot, b.snapshot, "metrics snapshots diverged");
    assert_eq!(a, b, "trace rings or drop counts diverged");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "Debug renderings diverged"
    );
    assert_eq!(a.trace_jsonl(), b.trace_jsonl(), "JSONL exports diverged");
    assert_eq!(
        a.snapshot.to_json(),
        b.snapshot.to_json(),
        "snapshot JSON diverged"
    );
}

#[test]
fn greedy_tracing_is_deterministic() {
    let instance = paper_instance(7);
    let (schedule_a, report_a) = observed(|| instance.run_centralized());
    let (schedule_b, report_b) = observed(|| instance.run_centralized());
    assert_eq!(
        schedule_a, schedule_b,
        "the schedule itself is deterministic"
    );
    assert_byte_identical(&report_a, &report_b);
    // The run must actually have been instrumented, or the comparison above
    // proves nothing.
    assert!(report_a.snapshot.counter("greedy.links") > 0);
    assert!(!report_a.trace.is_empty());
    assert_eq!(
        report_a.dropped_events, 0,
        "the default ring holds this run"
    );
}

#[test]
fn fdd_tracing_is_deterministic() {
    let instance = paper_instance(11);
    let (run_a, report_a) = observed(|| instance.run_protocol(ProtocolKind::Fdd).unwrap());
    let (run_b, report_b) = observed(|| instance.run_protocol(ProtocolKind::Fdd).unwrap());
    assert_eq!(run_a.schedule, run_b.schedule);
    assert_eq!(run_a.stats, run_b.stats);
    assert_byte_identical(&report_a, &report_b);
    assert!(!report_a.snapshot.counters.is_empty());
}

/// The runtime's counters are logical — one per round the protocol
/// executed, however few the host simulated — and `runtime.rounds.executed`
/// shows the saving: a deterministic protocol simulates each distinct round
/// once (one per pattern of the schedule), PDD every round.
#[test]
fn runtime_counters_stay_logical_and_report_the_rounds_simulated() {
    let instance = paper_instance(11);
    for kind in [
        ProtocolKind::Fdd,
        ProtocolKind::Afdd,
        ProtocolKind::pdd(0.6).expect("p is in (0, 1]"),
    ] {
        let (run, report) = observed(|| instance.run_protocol(kind).unwrap());
        let counter = |name| report.snapshot.counter(name);
        assert_eq!(counter("runtime.rounds"), run.stats.rounds);
        assert_eq!(counter("runtime.vetoes"), run.stats.vetoes);
        assert_eq!(
            counter("runtime.claims"),
            run.schedule.total_transmissions()
        );
        let executed = if kind.is_deterministic() {
            run.schedule.pattern_count() as u64
        } else {
            run.stats.rounds
        };
        assert_eq!(counter("runtime.rounds.executed"), executed, "{kind:?}");
        if kind.is_deterministic() {
            assert!(executed < run.stats.rounds, "{kind:?} replayed nothing");
        }

        // One `runtime.round` event per simulated round, the slot clock
        // advanced by its multiplicity.
        assert_eq!(report.dropped_events, 0, "the default ring holds this run");
        let rounds: Vec<_> = report
            .trace
            .iter()
            .filter(|e| e.name == "runtime.round")
            .collect();
        assert_eq!(rounds.len() as u64, executed);
        let mut slot = 0;
        for event in rounds {
            slot += event.field("repeat").expect("the event carries its repeat");
            assert_eq!((event.slot, event.round), (slot, slot));
        }
        assert_eq!(slot, run.stats.rounds);
    }
}

#[test]
fn churn_tracing_is_deterministic() {
    let instance = paper_instance(3);
    let experiment = RecoveryExperiment::from_instance(&instance);
    let f0 = experiment.initial_frame_slots(0.7).unwrap();
    let trace = FaultPlan::new()
        .link_down(experiment.failed_link().unwrap(), 5 * f0)
        .build();
    let run = || {
        experiment
            .harness(0.7)
            .run(&trace, 20 * f0, 3)
            .expect("the churn run completes")
    };
    let (resilience_a, report_a) = observed(run);
    let (resilience_b, report_b) = observed(run);
    assert_eq!(resilience_a, resilience_b, "resilience reports diverged");
    assert_byte_identical(&report_a, &report_b);
    assert!(
        report_a.snapshot.counter("resilience.epochs") > 0
            || !report_a.snapshot.counters.is_empty(),
        "the churn run must emit into the sink"
    );
}

/// The recovery loop's counter laws, each read off `ResilienceHarness::run`:
/// - every in-horizon trace event is applied once (`resilience.faults`);
/// - a batch of events on one slot is rescheduled once, and the baseline
///   never reschedules (`resilience.reschedules`);
/// - a reschedule either calls `repair_schedule` once, which books exactly
///   one outcome, or skips it and books `resilience.repairs_skipped`: it
///   skips when its batch left the target, the routes and the environment
///   as they were (the repair would hand the frame back unchanged) or left
///   no demand, and a skip installs nothing, so it takes no repair record;
/// - one `resilience.epochs` per flushed epoch, horizon remainder included;
/// - `traffic.rescued` is the report's `totals.rescued`;
/// - a frame is swapped only with a repair record, so `traffic.frame_swaps`
///   is at most `report.repairs.len()` (a record may change routes only);
/// - every epoch conserves packets, `injected + backlog_start == delivered +
///   dropped + backlog_end`, and the epochs' drops are the run's:
///   `Σ dropped == totals.dropped == traffic.dropped +
///   traffic.rescue_dropped`, rescue drops included (the runs drop some).
///
/// Each trace carries a three-event batch on one slot, a flow stop alone
/// on another (a reschedule that changes neither frame nor routes, and
/// skips its repair) and events past the horizon.
#[test]
fn the_recovery_loop_counters_obey_their_laws() {
    let deployment = GridDeployment::new(5, 5, 180.0).build();
    let env = RadioEnvironment::builder().build(&deployment);
    let gateways = deployment.corner_nodes();
    let demands = DemandVector::from_vec(
        (0..deployment.len() as u32)
            .map(|i| u32::from(!gateways.contains(&NodeId::new(i))))
            .collect(),
    );
    let graph = env.communication_graph();
    let links: Vec<Link> = graph.edges().map(|(u, v)| Link::new(u, v)).collect();
    let nodes: Vec<NodeId> = (0..deployment.len() as u32)
        .map(NodeId::new)
        .filter(|v| !gateways.contains(v))
        .collect();
    let churn = ChurnConfig {
        horizon_slots: 3_000,
        link_failures: 3,
        node_failures: 2,
        flow_churns: 2,
        fades: 1,
        mean_outage_slots: 300.0,
        fade_sigma_db: 4.0,
    };
    let horizon = 2_400;
    let (mut rescued, mut rescue_dropped, mut unchanged_reschedules) = (0, 0, 0);
    for seed in 0..4u64 {
        let i = seed as usize;
        let trace = FaultPlan::new()
            .random_churn(churn, &links, &nodes, seed)
            .at(700, FaultKind::LinkDown(links[i]))
            .at(700, FaultKind::NodeDown(nodes[i + 4]))
            .at(700, FaultKind::FlowStop(nodes[i]))
            .at(1_111, FaultKind::FlowStop(nodes[i + 8]))
            .build();
        let mut slots: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| e.slot)
            .filter(|&slot| slot < horizon)
            .collect();
        let faults = slots.len() as u64;
        assert!(
            faults < trace.events().len() as u64,
            "nothing past the horizon"
        );
        slots.dedup();
        let batches = slots.len() as u64;
        assert!(batches < faults, "no two faults share a slot");

        for config in [ReschedulerConfig::default(), ReschedulerConfig::baseline()] {
            let harness =
                ResilienceHarness::new(env.clone(), gateways.clone(), demands.clone(), 0.8)
                    .with_config(config);
            let (report, obs) = observed(|| harness.run(&trace, horizon, seed).unwrap());
            let counter = |name| obs.snapshot.counter(name);
            let skipped = counter("resilience.repairs_skipped");
            let reschedules = if config == ReschedulerConfig::baseline() {
                0
            } else {
                batches
            };
            assert_eq!(counter("resilience.faults"), faults, "seed {seed}");
            assert_eq!(
                counter("resilience.reschedules"),
                reschedules,
                "seed {seed}"
            );
            assert_eq!(
                counter("repair.outcome.incremental") + counter("repair.outcome.rebuilt") + skipped,
                reschedules,
                "seed {seed}"
            );
            assert!(
                report.repairs.len() as u64 <= reschedules - skipped,
                "seed {seed}"
            );
            if config == ReschedulerConfig::default() {
                // The flow stop alone on slot 1 111 is one reschedule, and a
                // skipped one.
                let skipped_before = |horizon| {
                    let (_, obs) = observed(|| harness.run(&trace, horizon, seed).unwrap());
                    obs.snapshot.counter("resilience.repairs_skipped")
                };
                assert_eq!(
                    skipped_before(1_112) - skipped_before(1_111),
                    1,
                    "seed {seed}"
                );
            }
            assert_eq!(counter("resilience.epochs"), report.epochs.len() as u64);
            assert_eq!(counter("traffic.rescued"), report.totals.rescued);
            assert!(counter("traffic.frame_swaps") <= report.repairs.len() as u64);
            for e in &report.epochs {
                assert_eq!(
                    e.injected + e.backlog_start,
                    e.delivered + e.dropped + e.backlog_end,
                    "seed {seed}, epoch {}",
                    e.epoch
                );
            }
            let epoch_drops: u64 = report.epochs.iter().map(|e| e.dropped).sum();
            assert_eq!(epoch_drops, report.totals.dropped, "seed {seed}");
            assert_eq!(
                report.totals.dropped,
                counter("traffic.dropped") + counter("traffic.rescue_dropped"),
                "seed {seed}"
            );
            rescued += report.totals.rescued;
            rescue_dropped += counter("traffic.rescue_dropped");
            unchanged_reschedules += reschedules - report.repairs.len() as u64;
        }
    }
    assert!(rescued > 0, "no packet was ever rescued");
    assert!(rescue_dropped > 0, "no rescue pass ever dropped a packet");
    assert!(
        unchanged_reschedules > 0,
        "every reschedule changed the frame or the routes"
    );
}

/// Three laws of the scheduling counters, over shadowed planned and
/// unplanned paper meshes of 9–25 nodes on one and two channels:
/// - a verification that passes fills each run of the frame once, so
///   `verify.patterns.filled` is `schedule.runs().count()` and
///   `verify.entries.filled` the runs' summed pattern sizes;
/// - `greedy.schedule.length` is the returned schedule's `length()`;
/// - first-fit rejects only runs it probed: `greedy.runs.probed ≥
///   greedy.runs.rejected`, and passes by unscreened only runs it skipped:
///   `greedy.runs.skipped ≥ greedy.runs.dropped`.
#[test]
fn the_scheduling_counters_obey_their_laws() {
    for_cases("the_scheduling_counters_obey_their_laws", 16, |draw| {
        let instance = drawn_paper_mesh(draw);

        let (schedule, build) = observed(|| instance.run_centralized());
        let length = build.snapshot.gauges.get("greedy.schedule.length");
        assert_eq!(length, Some(&(schedule.length() as u64)));
        let counter = |name| build.snapshot.counter(name);
        assert!(counter("greedy.runs.probed") >= counter("greedy.runs.rejected"));
        assert!(counter("greedy.runs.skipped") >= counter("greedy.runs.dropped"));

        let (verdict, verify) =
            observed(|| verify_schedule(&instance.env, &schedule, &instance.link_demands));
        verdict.expect("a greedy frame verifies");
        let counter = |name| verify.snapshot.counter(name);
        let entries: u64 = schedule
            .runs()
            .map(|(pattern, _)| pattern.len() as u64)
            .sum();
        assert_eq!(
            counter("verify.patterns.filled"),
            schedule.runs().count() as u64
        );
        assert_eq!(counter("verify.entries.filled"), entries);
    });
}

/// A shadowed planned or unplanned paper mesh of 9–25 nodes on one or two
/// channels, drawn from `draw`.
fn drawn_paper_mesh(draw: &mut impl Rng) -> ScenarioInstance {
    let density = draw.gen_range(1_000.0..4_000.0);
    let scenario = if draw.gen_bool(0.5) {
        PaperScenario::grid(density)
    } else {
        PaperScenario::uniform(density)
    };
    scenario
        .with_node_count(draw.gen_range(9usize..=25))
        .with_shadowing(Db::new(draw.gen_range(2.0..8.0)))
        .with_channel_count(draw.gen_range(1usize..=2))
        .instantiate(draw.gen_range(0u64..1_000))
        .expect("dense paper meshes connect")
}

/// A jittered three-row lattice of 600–800 columns at a 10 m step, −10 dBm,
/// streamed gains: 6–8 km long against a 1 km far-field cutoff, so a probe
/// has far links to bound as well as near ones to scan.
fn drawn_lattice(draw: &mut impl Rng) -> RadioEnvironment {
    let columns = draw.gen_range(600usize..=800);
    let positions: Vec<Point2> = (0..3 * columns)
        .map(|i| {
            let (dx, dy) = (draw.gen_range(-0.1..0.1), draw.gen_range(-0.1..0.1));
            Point2::new(
                ((i % columns) as f64 + dx) * 10.0,
                ((i / columns) as f64 + dy) * 10.0,
            )
        })
        .collect();
    let region = Rect::new(
        Point2::new(0.0, 0.0),
        Point2::new(columns as f64 * 10.0, 30.0),
    );
    let deployment = Deployment::from_positions(&positions, -10.0, region).expect("node ids");
    RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .streamed_gains()
        .build(&deployment)
}

/// The pruned probe's counter laws, over a pruned ledger on a drawn lattice
/// that is fed random candidates, mostly one-hop (every probe after the first
/// link sees a non-empty pruned slot, so every one that passes the endpoint
/// and binding-victim screens enters the pruned body):
/// - the body rejects on the candidate's signal alone, rejects in a ring
///   scan, or books exactly one of `ledger.farfield.accept` and
///   `ledger.exact.fallback`: `accept + fallback + scan_reject +
///   signal_reject` is `probe.accept + probe.reject − reject_endpoint −
///   victim.reject − victim.memo_reject`;
/// - every candidate that then passes its own handshake books exactly one of
///   `ledger.farfield.skip_existing` and `ledger.exact.fallback_existing`.
///   Those are every bound accept and the fallbacks whose exact handshake
///   passes, which no counter books, so the law is the inequality
///   `farfield.accept ≤ skip + fallback_existing ≤ farfield.accept +
///   exact.fallback`; every accept went through one of the two, so
///   `probe.accept ≤ skip + fallback_existing` too.
#[test]
fn the_pruned_probe_counters_obey_their_laws() {
    let (mut bodies, mut existing_fallbacks, mut signal_rejects) = (0, 0, 0);
    for_cases("the_pruned_probe_counters_obey_their_laws", 16, |draw| {
        let env = drawn_lattice(draw);
        let n = env.node_count() as u32;
        // A one-hop first link in the first row decodes: the slot is open.
        let first = draw.gen_range(0..n / 3 - 1);
        let candidates: Vec<Link> = [Link::new(NodeId::new(first), NodeId::new(first + 1))]
            .into_iter()
            .chain((0..3_000).map(|_| {
                let head = draw.gen_range(0..n);
                let hop = if draw.gen_bool(0.8) {
                    1
                } else {
                    draw.gen_range(1..n)
                };
                Link::new(NodeId::new(head), NodeId::new((head + hop) % n))
            }))
            .collect();
        let (accepted, report) = observed(|| {
            let mut ledger = SlotLedger::new(&env);
            assert!(ledger.is_pruned());
            ledger.assign(candidates[0]);
            let mut accepted = 0;
            for &candidate in &candidates[1..] {
                if ledger.can_add(candidate) {
                    ledger.assign(candidate);
                    accepted += 1;
                }
            }
            accepted
        });
        let counter = |name| report.snapshot.counter(name);
        let (accept, fallback) = (
            counter("ledger.farfield.accept"),
            counter("ledger.exact.fallback"),
        );
        let body = counter("ledger.probe.accept") + counter("ledger.probe.reject")
            - counter("ledger.probe.reject_endpoint")
            - counter("ledger.victim.reject")
            - counter("ledger.victim.memo_reject");
        assert_eq!(counter("ledger.probe.accept"), accepted);
        assert_eq!(
            accept
                + fallback
                + counter("ledger.prune.scan_reject")
                + counter("ledger.prune.signal_reject"),
            body
        );
        let existing =
            counter("ledger.farfield.skip_existing") + counter("ledger.exact.fallback_existing");
        assert!(accept <= existing && existing <= accept + fallback);
        assert!(counter("ledger.probe.accept") <= existing);
        bodies += body;
        existing_fallbacks += counter("ledger.exact.fallback_existing");
        signal_rejects += counter("ledger.prune.signal_reject");
    });
    // The candidate's own fallback is rarer still: the far-field ring test
    // in `netsim::ledger` is where it is forced, and its law checked.
    assert!(
        bodies > 10_000 && existing_fallbacks > 0 && signal_rejects > 0,
        "{bodies} bodies, {existing_fallbacks} existing-links fallbacks, \
         {signal_rejects} signal rejects"
    );
}

/// The distributed runtime's counter laws, read off `DistributedScheduler::run`
/// (one emission per simulated round, each scaled by the round's `repeat`):
/// - `runtime.rounds` is `run.stats.rounds` (both add `repeat`);
/// - `runtime.rounds.executed` counts simulated rounds, so it is at most
///   `runtime.rounds`, and equal under PDD, whose `repeat` is always 1;
/// - `runtime.claims` is the schedule's `total_transmissions()` (each round
///   pushes its pattern `repeat` times and books `len × repeat` claims);
/// - `runtime.vetoes` is `run.stats.vetoes`.
#[test]
fn the_runtime_counters_obey_their_laws() {
    for_cases("the_runtime_counters_obey_their_laws", 12, |draw| {
        let instance = drawn_paper_mesh(draw);
        let pdd = ProtocolKind::pdd(draw.gen_range(0.3..1.0)).expect("p is in (0, 1]");
        for kind in [ProtocolKind::Fdd, ProtocolKind::Afdd, pdd] {
            let (run, report) = observed(|| instance.run_protocol(kind).unwrap());
            let counter = |name| report.snapshot.counter(name);
            assert_eq!(counter("runtime.rounds"), run.stats.rounds, "{kind:?}");
            let executed = counter("runtime.rounds.executed");
            assert!(executed <= counter("runtime.rounds"), "{kind:?}");
            if !kind.is_deterministic() {
                assert_eq!(executed, counter("runtime.rounds"), "{kind:?}");
            }
            assert_eq!(
                counter("runtime.claims"),
                run.schedule.total_transmissions(),
                "{kind:?}"
            );
            assert_eq!(counter("runtime.vetoes"), run.stats.vetoes, "{kind:?}");
        }
    });
}

/// Packet conservation, read off the packet model's counters for one front
/// end at a time: every injected packet was delivered, dropped by a segment
/// (no route on arrival or at a hop), dropped by a rescue pass, or is still
/// queued when the last segment ends, so `traffic.injected =
/// traffic.delivered + traffic.dropped + traffic.rescue_dropped +
/// traffic.backlog` (the last a gauge, set at each segment's end). Checked
/// for a `TrafficEngine` run below and above saturation, and for a
/// `TrafficSession` that cuts the busiest node off mid-run: its links die,
/// the table routes around it (its own arrivals and the packets that reach
/// it drop), and a rescue pass re-homes or drops what its links held.
#[test]
fn the_packet_model_conserves_packets() {
    let (mut dropped, mut rescue_dropped) = (0, 0);
    for_cases("the_packet_model_conserves_packets", 8, |draw| {
        let instance = drawn_paper_mesh(draw);
        let conserved = |report: &obs::ObsReport| {
            let counter = |name| report.snapshot.counter(name);
            let backlog = report.snapshot.gauges.get("traffic.backlog").copied();
            assert_eq!(
                counter("traffic.injected"),
                counter("traffic.delivered")
                    + counter("traffic.dropped")
                    + counter("traffic.rescue_dropped")
                    + backlog.expect("every segment sets the backlog")
            );
        };
        let schedule = instance.run_centralized();
        let rho = draw.gen_range(0.6..1.4);
        let (traffic, engine) = observed(|| instance.run_traffic(&schedule, rho, 200).unwrap());
        assert!(traffic.injected > 0);
        conserved(&engine);

        let frame_slots = schedule.length() as u64;
        let (mut session, victim) = session_with_busiest_node(&instance, &schedule, rho);
        let ((), report) = observed(|| {
            session.advance(20 * frame_slots);
            cut_off(&mut session, &instance, victim);
            session.advance(5 * frame_slots);
            session.rescue_stranded();
            session.advance(20 * frame_slots);
        });
        conserved(&report);
        dropped += report.snapshot.counter("traffic.dropped");
        rescue_dropped += report.snapshot.counter("traffic.rescue_dropped");
    });
    assert!(
        dropped > 0 && rescue_dropped > 0,
        "every term was exercised"
    );
}

/// A `TrafficSession` over `schedule` with a Poisson source at load `rho` on
/// every non-gateway node of the instance's forest, and the node whose
/// subtree is largest — the one the packet-model tests cut off mid-run.
fn session_with_busiest_node(
    instance: &ScenarioInstance,
    schedule: &Schedule,
    rho: f64,
) -> (TrafficSession, NodeId) {
    let forest = &instance.forest;
    let sources: Vec<Source> = (0..instance.deployment.len() as u32)
        .map(NodeId::new)
        .filter(|&v| !forest.is_gateway(v))
        .map(|node| Source {
            node,
            arrival: ArrivalProcess::poisson(rho / schedule.length() as f64),
        })
        .collect();
    let victim = sources
        .iter()
        .map(|s| s.node)
        .max_by_key(|&v| (forest.subtree(v).len(), std::cmp::Reverse(v)))
        .expect("a mesh has non-gateway nodes");
    let session = TrafficSession::new(
        FrameService::from_schedule(schedule),
        sources,
        ForwardingTable::from_forest(forest),
        TrafficConfig::new(1).with_seed(instance.seed),
    )
    .unwrap();
    (session, victim)
}

/// Cuts `victim` off: its links die both ways, and the table routes around
/// it (its own arrivals and the packets that reach it drop).
fn cut_off(session: &mut TrafficSession, instance: &ScenarioInstance, victim: NodeId) {
    let graph = instance.env.communication_graph();
    for &u in graph.neighbors(victim) {
        session.fail_link(Link::new(victim, u));
        session.fail_link(Link::new(u, victim));
    }
    let (rerouted, _) = RoutingForest::shortest_path_masked(
        &graph,
        instance.forest.gateways(),
        instance.seed,
        |u, v| u != victim && v != victim,
    )
    .unwrap();
    session.set_routes(ForwardingTable::from_forest(&rerouted));
}

/// The event queue's bound, read off `traffic.events.pending_peak` (a gauge
/// each segment sets): only the head of a link's queue has its departure
/// pending, beside at most one arrival per source, so the peak is at most
/// the links the routes use plus the sources. Checked for a `TrafficEngine`
/// run (the report's `link_loads` are its route links) and for each segment
/// of a `TrafficSession` that cuts the busiest node off mid-run, where the
/// links are both tables' routes: packets stranded on the old routes keep
/// their queues until the rescue pass. Drawn meshes on one or two channels,
/// at load 0.6–1.4.
#[test]
fn the_event_queue_holds_one_event_per_link_and_source() {
    for_cases(
        "the_event_queue_holds_one_event_per_link_and_source",
        8,
        |draw| {
            let instance = drawn_paper_mesh(draw);
            let schedule = instance.run_centralized();
            let rho = draw.gen_range(0.6..1.4);
            let peak =
                |report: &obs::ObsReport| report.snapshot.gauges["traffic.events.pending_peak"];

            let (traffic, engine) = observed(|| instance.run_traffic(&schedule, rho, 200).unwrap());
            let bound = traffic.link_loads.len() + traffic.flow_count;
            assert!(
                peak(&engine) <= bound as u64,
                "engine: {} > {bound}",
                peak(&engine)
            );

            let frame_slots = schedule.length() as u64;
            let (mut session, victim) = session_with_busiest_node(&instance, &schedule, rho);
            let sources = instance.deployment.len() - instance.forest.gateways().len();
            let mut links = BTreeSet::new();
            let mut route_links = |table: &ForwardingTable| {
                for v in 0..instance.deployment.len() as u32 {
                    links.extend(table.path_links(NodeId::new(v)));
                }
                links.len()
            };
            let mut bound = route_links(session.routes()) + sources;
            for segment in 0..3 {
                let ((), report) = observed(|| {
                    session.advance(10 * frame_slots);
                });
                assert!(
                    peak(&report) <= bound as u64,
                    "session segment {segment}: {} > {bound}",
                    peak(&report)
                );
                if segment == 0 {
                    cut_off(&mut session, &instance, victim);
                    bound = route_links(session.routes()) + sources;
                } else {
                    session.rescue_stranded();
                }
            }
        },
    );
}

/// Every metric name product code emits, counter, gauge or histogram. A name
/// the sink sees that is missing here (new, renamed or misspelt) fails
/// [`the_sink_sees_only_documented_names`]: list it in the change that emits it.
const METRIC_NAMES: &str = "\
    ledger.channel.reject_radio ledger.exact.fallback ledger.exact.fallback_existing \
    ledger.farfield.accept ledger.farfield.skip_existing ledger.probe.accept \
    ledger.probe.reject ledger.probe.reject_endpoint ledger.prune.scan_reject \
    ledger.prune.signal_reject \
    ledger.scan.entries ledger.victim.memo_reject ledger.victim.reject \
    greedy.firstfit.depth greedy.links greedy.runs.dropped greedy.runs.probed \
    greedy.runs.rejected greedy.runs.skipped greedy.schedule.length \
    greedy.schedule.patterns greedy.solo_runs \
    greedy.splits verify.entries.filled verify.patterns.filled \
    repair.added_allocation repair.outcome.incremental repair.outcome.rebuilt \
    repair.refill.links repair.refill.solo_runs repair.runs.dropped repair.runs.filled \
    repair.runs.probed repair.runs.rejected repair.runs.skipped repair.stripped_allocation \
    runtime.announcement_bits runtime.claims runtime.rounds runtime.rounds.executed \
    runtime.vetoes traffic.backlog traffic.delivered traffic.dropped traffic.events \
    traffic.events.pending_peak traffic.frame_swaps traffic.injected traffic.link_failures \
    traffic.rescue_dropped traffic.rescued resilience.epochs resilience.faults \
    resilience.repairs_skipped resilience.reschedules";

/// The names a build, its verification, a fade and its repair, an FDD and a
/// PDD run, a traffic run and a churn run leave in the sink, on one channel
/// and on two, are all in [`METRIC_NAMES`], and every layer emitted some.
#[test]
fn the_sink_sees_only_documented_names() {
    let documented: BTreeSet<&str> = METRIC_NAMES.split_whitespace().collect();
    let mut seen = BTreeSet::new();
    for channels in [1, 2] {
        let instance = PaperScenario::grid(2_000.0)
            .with_node_count(16)
            .with_channel_count(channels)
            .instantiate(7)
            .unwrap();
        let experiment = RecoveryExperiment::from_instance(&instance);
        let f0 = experiment.initial_frame_slots(0.7).unwrap();
        let trace = FaultPlan::new()
            .link_down(experiment.failed_link().unwrap(), 5 * f0)
            .build();
        let ((), report) = observed(|| {
            let schedule = instance.run_centralized();
            verify_schedule(&instance.env, &schedule, &instance.link_demands).unwrap();
            let faded = instance.env.refaded(Db::new(6.0), 11).expect("dense gains");
            repair_schedule(&faded, &schedule, &instance.link_demands);
            instance.run_protocol(ProtocolKind::Fdd).unwrap();
            instance
                .run_protocol(ProtocolKind::pdd(0.6).unwrap())
                .unwrap();
            instance.run_traffic(&schedule, 0.8, 50).unwrap();
            experiment.harness(0.7).run(&trace, 20 * f0, 3).unwrap();
        });
        let snapshot = report.snapshot;
        seen.extend(snapshot.counters.keys().chain(snapshot.gauges.keys()));
        seen.extend(snapshot.histograms.keys());
    }
    let undocumented: Vec<&str> = seen.difference(&documented).copied().collect();
    assert!(
        undocumented.is_empty(),
        "emitted but not in METRIC_NAMES: {undocumented:?}"
    );
    for layer in [
        "ledger",
        "greedy",
        "verify",
        "repair",
        "runtime",
        "traffic",
        "resilience",
    ] {
        let prefix = format!("{layer}.");
        assert!(
            seen.iter().any(|name| name.starts_with(&prefix)),
            "nothing from {layer}"
        );
    }
}

/// Emission lives in the shared packet model, so an engine run is observable
/// like a session: the counters are the report's own counts, two runs
/// snapshot byte-identically, and the report is the one an uninstalled sink
/// produces.
#[test]
fn engine_runs_emit_their_counts_into_the_sink() {
    let instance = paper_instance(7);
    let schedule = instance.run_centralized();
    let run = || instance.run_traffic(&schedule, 0.8, 50).unwrap();

    assert!(!obs::is_installed());
    let plain = run();
    let (traced_a, report_a) = observed(run);
    let (traced_b, report_b) = observed(run);
    assert_eq!(plain, traced_a, "the sink must not change the report");
    assert_eq!(traced_a, traced_b);
    assert_byte_identical(&report_a, &report_b);
    assert!(plain.injected > 0 && plain.delivered > 0);
    assert_eq!(
        report_a.snapshot.counter("traffic.injected"),
        plain.injected
    );
    assert_eq!(
        report_a.snapshot.counter("traffic.delivered"),
        plain.delivered
    );
}

/// With no sink installed, emission is a no-op: the schedules and reports
/// produced are byte-identical to the instrumented ones, so observability
/// can never change a verdict.
#[test]
fn a_disabled_sink_changes_nothing() {
    let instance = paper_instance(7);

    assert!(!obs::is_installed());
    let plain_schedule = instance.run_centralized();
    let (traced_schedule, _) = observed(|| instance.run_centralized());
    assert_eq!(plain_schedule, traced_schedule);
    assert_eq!(
        format!("{plain_schedule:?}"),
        format!("{traced_schedule:?}"),
        "Debug renderings diverged"
    );

    let experiment = RecoveryExperiment::from_instance(&instance);
    let f0 = experiment.initial_frame_slots(0.7).unwrap();
    let trace = FaultPlan::new()
        .link_down(experiment.failed_link().unwrap(), 5 * f0)
        .build();
    let run = || {
        experiment
            .harness(0.7)
            .run(&trace, 20 * f0, 7)
            .expect("the churn run completes")
    };
    assert!(!obs::is_installed());
    let plain_report = run();
    let (traced_report, _) = observed(run);
    assert_eq!(plain_report, traced_report);
    assert_eq!(
        format!("{plain_report:?}"),
        format!("{traced_report:?}"),
        "Debug renderings diverged"
    );
}

/// A zero-capacity ring keeps the registry but retains no events: same
/// snapshot as a full-capacity run, empty trace, every event counted as
/// dropped — the O(1)-memory mode `bench_summary` profiles with.
#[test]
fn a_zero_capacity_ring_drops_events_but_keeps_the_registry() {
    let instance = paper_instance(7);

    let (_, full) = observed(|| instance.run_centralized());

    assert!(!obs::is_installed());
    obs::install_with_capacity(0);
    let schedule = instance.run_centralized();
    let lean = obs::uninstall().expect("the sink was installed above");

    assert_eq!(schedule, instance.run_centralized());
    assert_eq!(
        full.snapshot, lean.snapshot,
        "the registry is ring-independent"
    );
    assert!(lean.trace.is_empty(), "capacity 0 retains nothing");
    assert_eq!(
        lean.dropped_events,
        full.trace.len() as u64 + full.dropped_events,
        "every event the full ring saw is counted as dropped"
    );
}

/// A 100 × 40 lattice (250 m step, ± 10 % jitter from a local SplitMix64
/// stream, 32 dBm, streamed gains) carrying 2 000 endpoint-disjoint
/// unit-demand links: 25 km wide, so its diagonal clears the 25.1 km
/// far-field cutoff and `GreedyPhysical` probes through the pruned ledger.
/// Everything in it is IEEE add/mul/div/sqrt over locally generated
/// positions, so the counters below do not depend on the machine.
fn jittered_lattice_2k() -> (RadioEnvironment, LinkDemands) {
    let (columns, rows, step_m) = (100usize, 40usize, 250.0);
    let mut state = 0x5c4e_a11a_771c_e000u64;
    let mut jitter = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.2
    };
    let positions: Vec<Point2> = (0..columns * rows)
        .map(|i| {
            let (dx, dy) = (jitter(), jitter());
            Point2::new(
                ((i % columns) as f64 + 0.5 + dx) * step_m,
                ((i / columns) as f64 + 0.5 + dy) * step_m,
            )
        })
        .collect();
    let region = Rect::new(
        Point2::new(0.0, 0.0),
        Point2::new(columns as f64 * step_m, rows as f64 * step_m),
    );
    let deployment =
        Deployment::from_positions(&positions, 32.0, region).expect("contiguous node ids");
    let env = RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .streamed_gains()
        .build(&deployment);
    let links: Vec<(Link, u64)> = (0..columns * rows / 2)
        .map(|pair| {
            let tail = 2 * pair as u32;
            (Link::new(NodeId::new(tail + 1), NodeId::new(tail)), 1)
        })
        .collect();
    let demands =
        LinkDemands::from_links(deployment.len(), &links).expect("distinct in-range links");
    (env, demands)
}

/// The refusal screen changes *who answers* for a run, never which runs
/// first-fit visits: probed + skipped is the `greedy.runs.probed` of the
/// screenless placement loop on this instance (61 379), rejected + skipped its
/// `greedy.runs.rejected` (59 443), and the skips are exactly the rejections
/// the binding-victim screen inside `can_add` used to book
/// (`ledger.victim.reject`, 50 277 with the repair of the next test). The
/// exact O(k) fallbacks are 0: the victim screen brought them from 38 374 to
/// 24, and the exact slack screen for far links, which fires wherever the
/// old min-SINR headroom did and more often, took the last 24 (every one of
/// them an existing-links fallback). A run latched closed keeps counting its
/// pairs as skipped, and `greedy.runs.dropped` (35 694) counts the skips no
/// screen was asked for: re-reading the closed flag on every visit instead
/// of latching it on the first refusal moves that count. All of these are
/// logical counts, so a change that silently disables either screen or the
/// latch — or perturbs the schedule — fails here on any machine.
#[test]
fn the_refusal_screen_answers_for_most_visited_runs_and_keeps_the_visits() {
    let (env, demands) = jittered_lattice_2k();
    let (schedule, report) = observed(|| GreedyPhysical::paper_baseline().schedule(&env, &demands));
    let counter = |name| report.snapshot.counter(name);

    assert_eq!(counter("greedy.links"), 2_000);
    assert_eq!(schedule.length(), 64);
    let (probed, rejected, skipped) = (
        counter("greedy.runs.probed"),
        counter("greedy.runs.rejected"),
        counter("greedy.runs.skipped"),
    );
    assert_eq!((probed, rejected, skipped), (11_150, 9_214, 50_229));
    assert_eq!(probed + skipped, 61_379, "the visits are the parent's");
    assert_eq!(rejected + skipped, 59_443, "and so are the refusals");
    // Of the skips, the runs latched closed answered without a screen.
    let dropped = counter("greedy.runs.dropped");
    assert_eq!(dropped, 35_694);
    assert!(dropped <= skipped, "{dropped} dropped of {skipped} skipped");
    assert_eq!(
        counter("ledger.probe.reject"),
        rejected,
        "every rejected run is one rejected ledger probe, screen or no screen"
    );
    assert_eq!(
        counter("ledger.exact.fallback") + counter("ledger.exact.fallback_existing"),
        0,
        "exact O(k) fallbacks came back"
    );
    assert_eq!(
        counter("ledger.victim.reject"),
        0,
        "a binding victim the refusal screen saw refuse was probed anyway"
    );
    assert!(
        skipped * 4 >= (probed + skipped) * 3,
        "the screen answered for only {skipped} of {} visits",
        probed + skipped
    );
    // Each of those rejections names the link and direction that decided it.
    let reject = report
        .trace
        .iter()
        .find(|event| event.name == "ledger.reject")
        .expect("the ring keeps the first rejections");
    let victim = Link::new(
        NodeId::new(reject.field("victim_head").expect("victim head") as u32),
        NodeId::new(reject.field("victim_tail").expect("victim tail") as u32),
    );
    assert!(demands.demand_of_link(victim).is_some());
    assert!(reject.field("victim_data").is_some_and(|data| data <= 1));
    assert!(reject.field("head").is_some() && reject.field("tail").is_some());
}

/// Every counter one build, one repair and one verification of the lattice
/// leave behind, captured at the commit before a slot's occupancy state
/// shrank from two per-node tables to bitsets (PR 18). The repair fails the
/// first link and moves its unit of demand onto a new link (2 → 1) that
/// shares node 2 with the surviving (3 → 2), so the endpoint screen rejects
/// once as well. A change to what the ledger stores may move none of these:
/// they are the verdicts, the screens that decided them and the probes
/// first-fit made.
/// The refusal screen moved four rows and added two, under one conservation
/// law: the runs first-fit visits are the parent's (61 379 + 56), and what it
/// skips is what `ledger.victim.reject` used to count (50 277, now absent).
/// Fill-and-read moved four more under a second one: verification probes
/// nothing, so the accepts that left (3 937 → 1 937, with their far-field
/// screens and six exact fallbacks) are exactly the 2 000 entries the repair
/// used to re-admit one by one inside its closing `verify_schedule` — and an
/// explicit `verify_schedule` of the repaired frame, added to this run, puts
/// none of them back: its work is the three `*.filled` rows.
///
/// Exact fixed-point slack moved five rows and the scan histogram, no verdict:
/// far links are skipped when the binding victims' least slack covers the
/// far-field unit, so in-disc links are re-checked inside the scans where
/// the float headroom used to send 26 candidates to the exact existing-links
/// fallback (`ledger.exact.fallback_existing` 26 → 0). Of those 26, 11 were
/// rejected there (`farfield.accept` − `probe.accept` = 1 948 − 1 937); they
/// are now rejected before the bound, one by a scan (`prune.scan_reject`
/// 4 432 → 4 433) and ten by the memo that failure leaves
/// (`victim.memo_reject` 4 777 → 4 787), so memo + scan rejects + the
/// rejects after the bound stay the parent's 9 220, and every candidate the
/// bound accepts skips the far links (`farfield.skip_existing` 1 922 → 1 937
/// = `farfield.accept`). The ten memo rejects are ten probes that scanned both
/// discs at the parent: the scans move 9 670 → 9 652, and both sides hold
/// `2·(accept + fallback) + scan_reject ≤ scans ≤ 2·(accept + fallback +
/// scan_reject)`.
#[test]
fn a_build_and_a_repair_leave_the_parent_commits_counters() {
    let (env, demands) = jittered_lattice_2k();
    let links: Vec<(Link, u64)> = demands.demanded_links().collect();
    let (&(_, dead_demand), surviving) = links.split_first().expect("2 000 links");
    let mut target = surviving.to_vec();
    target.push((Link::new(NodeId::new(2), NodeId::new(1)), dead_demand));
    let target = LinkDemands::from_links(env.node_count(), &target).expect("distinct heads");
    let (repaired, report) = observed(|| {
        let schedule = GreedyPhysical::paper_baseline().schedule(&env, &demands);
        let repaired = repair_schedule(&env, &schedule, &target);
        verify_schedule(&env, &repaired.schedule, &target).expect("the repaired frame verifies");
        repaired
    });
    assert_eq!(repaired.outcome, RepairOutcome::Incremental);
    let counters: Vec<(&str, u64)> = report
        .snapshot
        .counters
        .iter()
        .map(|(&name, &value)| (name, value))
        .collect();
    assert_eq!(
        counters,
        [
            ("greedy.links", 2_000),
            ("greedy.runs.dropped", 35_694),
            ("greedy.runs.probed", 11_150),
            ("greedy.runs.rejected", 9_214),
            ("greedy.runs.skipped", 50_229),
            ("greedy.solo_runs", 64),
            ("ledger.farfield.accept", 1_937),
            ("ledger.farfield.skip_existing", 1_937),
            ("ledger.probe.accept", 1_937),
            ("ledger.probe.reject", 9_221),
            ("ledger.probe.reject_endpoint", 1),
            ("ledger.prune.scan_reject", 4_433),
            ("ledger.victim.memo_reject", 4_787),
            ("repair.added_allocation", 1),
            ("repair.outcome.incremental", 1),
            ("repair.refill.links", 1),
            ("repair.runs.dropped", 0),
            ("repair.runs.filled", 64),
            ("repair.runs.probed", 8),
            ("repair.runs.rejected", 7),
            ("repair.runs.skipped", 48),
            ("repair.stripped_allocation", 1),
            ("verify.entries.filled", 2_000),
            ("verify.patterns.filled", 64),
        ]
    );
    let scans = &report.snapshot.histograms["ledger.scan.entries"];
    // 13 542 scans over 394 794 entries before verification stopped probing
    // (the 3 872 scans, 130 836 entries, of the verify-time probes); 9 670
    // over 263 958 before the exact slack screen.
    assert_eq!((scans.count, scans.sum), (9_652, 262_574));

    let counter = |name| report.snapshot.counter(name);
    let reached_bound = counter("ledger.farfield.accept") + counter("ledger.exact.fallback");
    let scan_rejects = counter("ledger.prune.scan_reject");
    assert!(2 * reached_bound + scan_rejects <= scans.count);
    assert!(scans.count <= 2 * (reached_bound + scan_rejects));
    assert_eq!(
        counter("ledger.victim.memo_reject") + scan_rejects + reached_bound
            - counter("ledger.probe.accept"),
        4_777 + 4_432 + 11,
        "the parent's rejects, moved between screens"
    );
    let skipped = counter("greedy.runs.skipped") + counter("repair.runs.skipped");
    assert_eq!(
        counter("greedy.runs.probed") + counter("repair.runs.probed") + skipped,
        61_379 + 56
    );
    assert_eq!(
        counter("greedy.runs.rejected") + counter("repair.runs.rejected") + skipped,
        59_443 + 55
    );
    assert_eq!(skipped + counter("ledger.victim.reject"), 50_277);

    // Every accept is a placement: 2 000 − 64 links joined a run first-fit
    // had open (the other 64 opened one) and the repair placed one more.
    // Neither filling a run nor verifying the frame asks `can_add` anything.
    let runs = repaired.schedule.runs();
    let frame_entries: u64 = runs.map(|(pattern, _)| pattern.len() as u64).sum();
    assert_eq!(frame_entries, 2_000);
    assert_eq!(counter("verify.entries.filled"), frame_entries);
    assert_eq!(
        counter("ledger.probe.accept"),
        counter("greedy.links") - counter("greedy.solo_runs") + counter("repair.refill.links"),
    );
    assert_eq!(3_937 - counter("ledger.probe.accept"), frame_entries);
    assert_eq!(
        counter("verify.patterns.filled"),
        repaired.schedule.pattern_count() as u64
    );
}
