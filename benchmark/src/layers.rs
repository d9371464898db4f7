//! Small timed loops over single layers' public functions (traced run only).
//!
//! The pipeline times whole calls such as `GreedyPhysical::schedule`; these
//! loops give the unit costs underneath them — one ledger probe, one event,
//! one SCREAM — so a reviewer can tell "fewer probes" from "faster probes".
//! Each subject is taken from the workload's own instances.

use std::time::Instant;

use scream::netsim::{ChannelId, EventQueue, ProtocolTiming, SimTime, SlotLedger};
use scream::protocols::{LeaderElection, ScreamChannel};
use scream::resilience::ReschedulerConfig;
use scream::scheduling::{FrameService, GreedyPhysical, Schedule};
use scream::topology::{Link, NodeId};
use scream::traffic::{
    ArrivalProcess, FlowSet, ForwardingTable, Source, TrafficConfig, TrafficEngine, TrafficSession,
};

use crate::pipeline::{protocol_config, STABLE_LOAD};
use crate::stats::fastest;
use crate::trace::Tracer;
use crate::workloads::{Spec, World};

/// Each unit cost is the fastest of this many samples …
const SAMPLES: usize = 3;
/// … each lasting at least this long.
const SAMPLE_SECONDS: f64 = 0.02;
/// Frames of the engine-versus-session comparison (capped: it runs twice).
const SESSION_FRAMES_CAP: u64 = 300;

#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub ledger_can_add_ns: f64,
    pub ledger_assign_ns: f64,
    pub ledger_can_add_exact_ns: f64,
    pub ledger_probe_claims_ns: f64,
    pub des_event_ns: f64,
    pub scream_network_or_ns: f64,
    pub election_elect_ns: f64,
    pub frame_build_s: f64,
    pub engine_run_s: f64,
    pub session_advance_s: f64,
    pub churn_baseline_s: f64,
}

/// Nanoseconds per operation of `sweep`, which returns how many operations
/// it performed.
fn ns_per_op(mut sweep: impl FnMut() -> u64) -> f64 {
    fastest((0..SAMPLES).map(|_| {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed().as_secs_f64() < SAMPLE_SECONDS {
            ops += std::hint::black_box(sweep());
        }
        start.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
    }))
}

/// Seconds of the fastest of `SAMPLES` calls of `f`, each recorded as a span.
fn fastest_seconds<T>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    fastest((0..SAMPLES).map(|_| tracer.call(name, &mut f).1))
}

/// Every other link of the frame's fullest slot: a mid-fill slot whose links
/// keep healthy SINR slack. (A greedy-maximal slot leaves the binding link
/// float dust of slack, so every probe against it is a cheap reject.)
fn mid_fill_slot(schedule: &Schedule) -> Vec<Link> {
    schedule
        .runs()
        .max_by_key(|(pattern, _)| pattern.len())
        .map(|(pattern, _)| pattern.links().iter().copied().step_by(2).collect())
        .unwrap_or_default()
}

fn fill(ledger: &mut SlotLedger<'_>, slot: &[Link]) {
    ledger.clear();
    for &link in slot {
        ledger.assign(link);
    }
}

/// Nanoseconds per `can_add` of `probes` against `slot`.
fn can_add_ns(mut ledger: SlotLedger<'_>, slot: &[Link], probes: &[Link]) -> f64 {
    fill(&mut ledger, slot);
    ns_per_op(|| {
        let admitted = probes.iter().filter(|&&link| ledger.can_add(link)).count();
        std::hint::black_box(admitted);
        probes.len() as u64
    })
}

pub fn measure(
    spec: &Spec,
    world: &World,
    subject_schedule: &Schedule,
    tracer: &mut Tracer,
) -> LayerCosts {
    let open = tracer.begin("layers");
    let mut costs = LayerCosts::default();
    let mesh = &world.meshes[0];

    // netsim::ledger on the lattice (`subject_schedule` is its frame).
    let (env, demands) = (&world.lattice.env, &world.lattice.demands);
    let slot = mid_fill_slot(subject_schedule);
    let all: Vec<Link> = demands.demanded_links().map(|(link, _)| link).collect();
    let stride = all.len().div_ceil(4096).max(1);
    let probes: Vec<Link> = all.iter().copied().step_by(stride).collect();
    let mut ledger = SlotLedger::new(env);
    costs.ledger_assign_ns = ns_per_op(|| {
        fill(&mut ledger, &slot);
        slot.len() as u64
    });
    costs.ledger_can_add_ns = can_add_ns(ledger, &slot, &probes);
    costs.ledger_can_add_exact_ns = can_add_ns(SlotLedger::exact(env), &slot, &probes);

    // One protocol round's batched claim probe, on the first mesh.
    let mesh_schedule = GreedyPhysical::paper_baseline().schedule(&mesh.env, &mesh.link_demands);
    let mesh_slot = mid_fill_slot(&mesh_schedule);
    let mut channels = mesh.env.open_channel_ledger();
    for &link in &mesh_slot {
        channels.assign(ChannelId::new(0), link);
    }
    let tentative: Vec<Link> = mesh
        .link_demands
        .demanded_links()
        .map(|(link, _)| link)
        .filter(|link| !mesh_slot.contains(link))
        .take(8)
        .collect();
    costs.ledger_probe_claims_ns = ns_per_op(|| {
        std::hint::black_box(channels.probe_claims(&tentative));
        1
    });

    // netsim::des: schedule then pop, at pseudo-random times.
    costs.des_event_ns = ns_per_op(|| {
        const EVENTS: u64 = 4096;
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for event in 0..EVENTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            queue.schedule(SimTime::from_nanos(x % 1_000_000_000), event as u32);
        }
        while let Some(event) = queue.pop() {
            std::hint::black_box(event);
        }
        EVENTS
    });

    // core::scream and core::election, on the first mesh.
    let config = protocol_config(mesh);
    let channel =
        ScreamChannel::new(&mesh.env, &config).expect("K covers the interference diameter");
    let n = mesh.env.node_count();
    let mut timing = ProtocolTiming::new();
    let screaming: Vec<bool> = (0..n).map(|i| i % 7 == 0).collect();
    costs.scream_network_or_ns = ns_per_op(|| {
        std::hint::black_box(channel.network_or(&screaming, &mut timing));
        1
    });
    let candidates: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
    let election = LeaderElection::new();
    costs.election_elect_ns = ns_per_op(|| {
        std::hint::black_box(election.elect(&channel, &candidates, &mut timing));
        1
    });

    costs.frame_build_s = fastest_seconds(tracer, "scheduling.FrameService.from_schedule", || {
        FrameService::from_schedule(subject_schedule)
    });

    // The same Poisson flows through both packet simulators, on the first
    // mesh's centralized frame.
    let frame_slots = mesh_schedule.length() as u64;
    let frames = spec.stable_frames.min(SESSION_FRAMES_CAP);
    let per_demand_unit = STABLE_LOAD / frame_slots as f64;
    let traffic_config = TrafficConfig::new(frames).with_seed(mesh.draw_seed);
    let flows = FlowSet::along_forest_with(
        &mesh.forest,
        &mesh.node_demands,
        per_demand_unit,
        |_, rate| ArrivalProcess::poisson(rate),
    );
    let engine = TrafficEngine::on_schedule(&mesh_schedule, flows, traffic_config)
        .expect("a demand-satisfying frame serves every flow");
    costs.engine_run_s = fastest_seconds(tracer, "traffic.TrafficEngine.run", || engine.run());
    let sources: Vec<Source> = (0..n as u32)
        .map(NodeId::new)
        .filter(|&node| !mesh.forest.is_gateway(node) && mesh.node_demands.demand(node) > 0)
        .map(|node| Source {
            node,
            arrival: ArrivalProcess::poisson(
                f64::from(mesh.node_demands.demand(node)) * per_demand_unit,
            ),
        })
        .collect();
    costs.session_advance_s = fastest((0..SAMPLES).map(|_| {
        let mut session = TrafficSession::new(
            FrameService::from_schedule(&mesh_schedule),
            sources.clone(),
            ForwardingTable::from_forest(&mesh.forest),
            traffic_config,
        )
        .expect("the frame and the source list are non-empty");
        let (_, seconds) = tracer.call("traffic.TrafficSession.advance", || {
            session.advance(frames * frame_slots)
        });
        seconds
    }));

    // The churn trace with rescheduling off: the session-only share.
    let baseline = world
        .churn
        .harness
        .clone()
        .with_config(ReschedulerConfig::baseline());
    costs.churn_baseline_s = fastest_seconds(tracer, "resilience.baseline.run", || {
        baseline
            .run(
                &world.churn.trace,
                world.churn.horizon_slots,
                world.churn.run_seed,
            )
            .expect("the churn mesh offers traffic over a positive horizon")
    });

    tracer.end(open);
    costs
}
