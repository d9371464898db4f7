//! One pass of the pipeline every workload runs, and the checks on its
//! outputs.
//!
//! A pass is a closed loop with one caller: each phase starts when the
//! previous one returns. All workloads run the same phases — build a
//! centralized frame (one and two channels), verify it, repair it after a
//! failure, run FDD / AFDD / PDD, carry traffic at 0.9 and 1.2 load, survive
//! a churn trace — on their own instances, so every end-to-end metric exists
//! on every workload and the workloads differ in which layer dominates.

use std::collections::BTreeMap;

use scream::netsim::RadioEnvironment;
use scream::obs::Snapshot;
use scream::protocols::{DistributedRun, DistributedScheduler, ProtocolConfig, ProtocolKind};
use scream::resilience::ResilienceReport;
use scream::scheduling::{
    repair_schedule, verify_schedule, GreedyPhysical, RepairOutcome, RepairedSchedule, Schedule,
};
use scream::topology::LinkDemands;
use scream::traffic::{ArrivalProcess, FlowSet, TrafficConfig, TrafficEngine, TrafficReport};

use crate::trace::Tracer;
use crate::workloads::{Fnv64, Mesh, Spec, World};

/// Load factors of the two traffic phases, relative to the frame's capacity.
pub const STABLE_LOAD: f64 = 0.9;
pub const OVERLOAD: f64 = 1.2;
/// PDD activation probabilities (the paper's Figure 6/7 sweep).
pub const PDD_PROBABILITIES: [f64; 3] = [0.2, 0.5, 0.8];

/// Checked operations: how many were attempted and which failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Where the scheduling phases run: the lattice and every mesh. The traffic
/// phases run on the subjects the workload picks.
struct Subject<'a> {
    env: &'a RadioEnvironment,
    demands: &'a LinkDemands,
    c2_env: &'a RadioEnvironment,
    c2_demands: &'a LinkDemands,
    repair_target: &'a LinkDemands,
    /// `Some`: Poisson flows along the routing forest. `None`: one
    /// deterministic single-hop flow per link.
    mesh: Option<&'a Mesh>,
    /// The lattice fails few links out of thousands, so its repair must take
    /// the incremental path; a mesh reroute may legitimately rebuild.
    must_repair_incrementally: bool,
    carries_traffic: bool,
}

fn subjects<'a>(spec: &Spec, world: &'a World) -> Vec<Subject<'a>> {
    let lattice = &world.lattice;
    let mut subjects = vec![Subject {
        env: &lattice.env,
        demands: &lattice.demands,
        c2_env: &lattice.c2_env,
        c2_demands: &lattice.c2_demands,
        repair_target: &lattice.repair_target,
        mesh: None,
        must_repair_incrementally: true,
        carries_traffic: spec.traffic_on_lattice,
    }];
    subjects.extend(world.meshes.iter().map(|mesh| Subject {
        env: &mesh.env,
        demands: &mesh.link_demands,
        c2_env: &mesh.c2_env,
        c2_demands: &mesh.link_demands,
        repair_target: &mesh.repair_target,
        mesh: Some(mesh),
        must_repair_incrementally: false,
        carries_traffic: !spec.traffic_on_lattice,
    }));
    subjects
}

impl Subject<'_> {
    /// Flows that put every link at utilisation `rho` of a `frame_slots`-slot
    /// demand-satisfying frame.
    fn flows(&self, rho: f64, frame_slots: u64) -> FlowSet {
        let per_demand_unit = rho / frame_slots as f64;
        match self.mesh {
            Some(mesh) => FlowSet::along_forest_with(
                &mesh.forest,
                &mesh.node_demands,
                per_demand_unit,
                |_, rate| ArrivalProcess::poisson(rate),
            ),
            None => FlowSet::single_hop(self.demands.demanded_links().map(|(link, demand)| {
                (
                    link,
                    ArrivalProcess::deterministic(demand as f64 * per_demand_unit),
                )
            })),
        }
    }

    fn arrival_seed(&self) -> u64 {
        self.mesh.map_or(0, |mesh| mesh.draw_seed)
    }
}

/// The protocol configuration sized for a mesh: `K` at least its measured
/// interference diameter (and the paper's 5), 15-byte SCREAMs.
pub fn protocol_config(mesh: &Mesh) -> ProtocolConfig {
    ProtocolConfig::paper_default()
        .with_scream_slots(mesh.interference_diameter.max(5))
        .with_seed(mesh.draw_seed)
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficTotals {
    pub injected: u64,
    pub delivered: u64,
    pub peak_backlog: u64,
    pub delay_p95_slots: f64,
    /// Link traversals of the delivered packets, estimated as delivered ×
    /// the rate-weighted mean route length (the engine reports no per-link
    /// departures).
    pub packet_hops: f64,
}

impl TrafficTotals {
    fn add(&mut self, report: &TrafficReport, flows: &FlowSet) {
        let (rate, rate_hops) = flows.flows().iter().fold((0.0, 0.0), |(r, h), flow| {
            let rate = flow.arrival.mean_rate();
            (r + rate, h + rate * flow.hop_count() as f64)
        });
        self.injected += report.injected;
        self.delivered += report.delivered;
        self.peak_backlog += report.peak_backlog;
        self.delay_p95_slots = self.delay_p95_slots.max(report.delay.p95_slots);
        self.packet_hops += report.delivered as f64 * rate_hops / rate;
    }
}

/// Summed [`RunStats`](scream::protocols::RunStats) of one protocol family.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProtocolTotals {
    pub rounds: u64,
    pub slot_iterations: u64,
    pub elections: u64,
    pub scream_invocations: u64,
    pub handshake_steps: u64,
    pub vetoes: u64,
    pub tried_transitions: u64,
    pub sim_exec_s: f64,
}

impl ProtocolTotals {
    fn add(&mut self, run: &DistributedRun) {
        self.rounds += run.stats.rounds;
        self.slot_iterations += run.stats.slot_iterations;
        self.elections += run.stats.elections;
        self.scream_invocations += run.stats.scream_invocations;
        self.handshake_steps += run.stats.handshake_steps;
        self.vetoes += run.stats.vetoes;
        self.tried_transitions += run.stats.tried_transitions;
        self.sim_exec_s += run.execution_secs();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnTotals {
    pub injected: u64,
    pub delivered: u64,
    pub rescued: u64,
    pub epochs: u64,
    pub repairs: u64,
    pub incremental_repairs: u64,
    pub deferred_flows: u64,
    pub recover_slots: u64,
    pub final_verdict_stable: bool,
}

/// Everything a pass computes that must repeat exactly from pass to pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outputs {
    /// Total length of every schedule the pass built: centralized (one and
    /// two channels), repaired, FDD, AFDD and the three PDD frames.
    pub sched_len_slots: u64,
    pub patterns: u64,
    /// Pattern entries of the centralized frames: what verification pays for.
    pub pattern_entries: u64,
    pub repair_added_allocation: u64,
    pub fdd: ProtocolTotals,
    pub afdd: ProtocolTotals,
    pub pdd: ProtocolTotals,
    pub stable: TrafficTotals,
    pub overload: TrafficTotals,
    pub churn: ChurnTotals,
    /// FNV-1a over every schedule's runs and the churn report's counters.
    pub digest: u64,
}

impl Outputs {
    pub fn sim_exec_s(&self) -> f64 {
        self.fdd.sim_exec_s + self.afdd.sim_exec_s + self.pdd.sim_exec_s
    }

    /// Delivered ÷ injected over the 0.9-load traffic run and the churn run.
    pub fn delivery_pct(&self) -> f64 {
        let injected = self.stable.injected + self.churn.injected;
        let delivered = self.stable.delivered + self.churn.delivered;
        delivered as f64 / injected as f64 * 100.0
    }
}

/// What one phase of a pass measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Seconds of each of the phase's layer calls, in order (one per instance
    /// and variant).
    pub calls: Vec<f64>,
    /// `scream-obs` activity of the phase (recorded passes only).
    pub counters: Option<Snapshot>,
}

/// One pass: what each phase measured, the outputs, and the centralized
/// frame of each scheduling subject (the lattice's first).
#[derive(Debug)]
pub struct Pass {
    pub phases: BTreeMap<&'static str, PhaseResult>,
    pub outputs: Outputs,
    pub schedules: Vec<Schedule>,
}

impl Pass {
    /// Seconds of the phase's layer calls in this pass.
    pub fn seconds(&self, phase: &str) -> f64 {
        self.phases
            .get(phase)
            .map_or(0.0, |result| result.calls.iter().sum())
    }

    /// The named counter over the phase.
    pub fn counter(&self, phase: &str, name: &str) -> f64 {
        self.phases
            .get(phase)
            .and_then(|result| result.counters.as_ref())
            .map_or(0.0, |counters| counters.counter(name) as f64)
    }

    /// Mean of the named histogram over the phase.
    pub fn histogram_mean(&self, phase: &str, name: &str) -> f64 {
        self.phases
            .get(phase)
            .and_then(|result| result.counters.as_ref()?.histograms.get(name))
            .map_or(0.0, |histogram| histogram.mean())
    }
}

fn digest_schedule(digest: &mut Fnv64, schedule: &Schedule) {
    for (pattern, count) in schedule.runs() {
        digest.u64(count);
        for (channel, link) in pattern.entries() {
            digest.u64(channel.index() as u64);
            digest.link(link);
        }
    }
}

fn digest_churn(digest: &mut Fnv64, report: &ResilienceReport) {
    digest.u64(report.totals.injected);
    digest.u64(report.totals.delivered);
    digest.u64(report.totals.dropped);
    digest.u64(report.totals.peak_backlog);
    digest.u64(report.epochs.len() as u64);
    for repair in &report.repairs {
        digest.u64(repair.slot);
        digest.u64(repair.frame_slots_after);
    }
}

struct PassState<'a> {
    tracer: &'a mut Tracer,
    phases: BTreeMap<&'static str, PhaseResult>,
}

impl PassState<'_> {
    /// Runs `round` as the named phase. `round` returns its output and the
    /// seconds each of its layer calls took (what the metrics are made of);
    /// the phase span also covers the glue around them.
    fn phase<T>(
        &mut self,
        name: &'static str,
        round: impl FnOnce(&mut Tracer) -> (T, Vec<f64>),
    ) -> T {
        let open = self.tracer.begin(name);
        let (output, calls) = round(self.tracer);
        let (_, counters) = self.tracer.end(open);
        self.phases.insert(name, PhaseResult { calls, counters });
        output
    }
}

/// Runs one pass. With `ops`, every output is also checked (verification of
/// each frame, Theorem 4, repair outcome, traffic verdicts, churn verdict);
/// later passes only need to reproduce the first one's [`Outputs`].
pub fn run_pass(spec: &Spec, world: &World, tracer: &mut Tracer, ops: Option<&mut Ops>) -> Pass {
    let subjects = subjects(spec, world);
    let greedy = GreedyPhysical::paper_baseline();
    let mut outputs = Outputs::default();
    let pass_span = tracer.begin("pass");
    let mut state = PassState {
        tracer,
        phases: BTreeMap::new(),
    };

    let mut build = |phase: &'static str, two_channels: bool| -> Vec<Schedule> {
        state.phase(phase, |tracer| {
            let mut seconds = Vec::new();
            let built = subjects
                .iter()
                .map(|subject| {
                    let (env, demands) = if two_channels {
                        (subject.c2_env, subject.c2_demands)
                    } else {
                        (subject.env, subject.demands)
                    };
                    let (schedule, s) = tracer.call("scheduling.greedy.schedule", || {
                        greedy.schedule(env, demands)
                    });
                    seconds.push(s);
                    schedule
                })
                .collect();
            (built, seconds)
        })
    };
    let schedules = build("sched", false);
    let c2_schedules = build("sched_c2", true);

    let verified = state.phase("verify", |tracer| {
        let mut seconds = Vec::new();
        let mut verified = true;
        for (subject, schedule) in subjects.iter().zip(&schedules) {
            let (result, s) = tracer.call("scheduling.verify_schedule", || {
                verify_schedule(subject.env, schedule, subject.demands)
            });
            seconds.push(s);
            verified &= result.is_ok();
        }
        (verified, seconds)
    });

    let repaired: Vec<RepairedSchedule> = state.phase("repair", |tracer| {
        let mut seconds = Vec::new();
        let repaired = subjects
            .iter()
            .zip(&schedules)
            .map(|(subject, schedule)| {
                let (repaired, s) = tracer.call("scheduling.repair_schedule", || {
                    repair_schedule(subject.env, schedule, subject.repair_target)
                });
                seconds.push(s);
                repaired
            })
            .collect();
        (repaired, seconds)
    });

    let mut protocol_runs: Vec<(usize, DistributedRun)> = Vec::new();
    let mut run_protocols =
        |state: &mut PassState<'_>, phase: &'static str, kinds: &[ProtocolKind]| {
            let runs = state.phase(phase, |tracer| {
                let mut seconds = Vec::new();
                let mut runs = Vec::new();
                for (index, mesh) in world.meshes.iter().enumerate() {
                    for &kind in kinds {
                        let scheduler = DistributedScheduler::new(kind, protocol_config(mesh));
                        let (run, s) = tracer.call("core.DistributedScheduler.run", || {
                            scheduler
                                .run(&mesh.env, &mesh.link_demands)
                                .expect("generated meshes are connected and well sized")
                        });
                        seconds.push(s);
                        runs.push((index, run));
                    }
                }
                (runs, seconds)
            });
            let mut totals = ProtocolTotals::default();
            for (_, run) in &runs {
                totals.add(run);
            }
            protocol_runs.extend(runs);
            totals
        };
    outputs.fdd = run_protocols(&mut state, "fdd", &[ProtocolKind::fdd()]);
    outputs.afdd = run_protocols(&mut state, "afdd", &[ProtocolKind::afdd()]);
    let pdd_kinds = PDD_PROBABILITIES.map(ProtocolKind::pdd_unchecked);
    outputs.pdd = run_protocols(&mut state, "pdd", &pdd_kinds);

    let traffic = |state: &mut PassState<'_>,
                   build_phase: &'static str,
                   run_phase: &'static str,
                   rho: f64,
                   frames: u64| {
        let engines: Vec<TrafficEngine> = state.phase(build_phase, |tracer| {
            let mut seconds = Vec::new();
            let engines = subjects
                .iter()
                .zip(&schedules)
                .filter(|(subject, _)| subject.carries_traffic)
                .map(|(subject, schedule)| {
                    let (engine, s) = tracer.call("traffic.TrafficEngine.on_schedule", || {
                        TrafficEngine::on_schedule(
                            schedule,
                            subject.flows(rho, schedule.length() as u64),
                            TrafficConfig::new(frames).with_seed(subject.arrival_seed()),
                        )
                        .expect("a demand-satisfying frame serves every flow")
                    });
                    seconds.push(s);
                    engine
                })
                .collect();
            (engines, seconds)
        });
        state.phase(run_phase, |tracer| {
            let mut seconds = Vec::new();
            let mut totals = TrafficTotals::default();
            let mut verdicts = Vec::new();
            for engine in &engines {
                let (report, s) = tracer.call("traffic.TrafficEngine.run", || engine.run());
                seconds.push(s);
                totals.add(&report, engine.flows());
                verdicts.push(report.verdict.is_stable());
            }
            ((totals, verdicts), seconds)
        })
    };
    let (stable_totals, stable_verdicts) = traffic(
        &mut state,
        "traffic_build",
        "traffic",
        STABLE_LOAD,
        spec.stable_frames,
    );
    let (overload_totals, overload_verdicts) = traffic(
        &mut state,
        "overload_build",
        "overload",
        OVERLOAD,
        spec.overload_frames,
    );
    outputs.stable = stable_totals;
    outputs.overload = overload_totals;

    let churn = &world.churn;
    let churn_report = state.phase("churn", |tracer| {
        let (report, s) = tracer.call("resilience.ResilienceHarness.run", || {
            churn
                .harness
                .run(&churn.trace, churn.horizon_slots, churn.run_seed)
                .expect("the churn mesh offers traffic over a positive horizon")
        });
        (report, vec![s])
    });
    outputs.churn = ChurnTotals {
        injected: churn_report.totals.injected,
        delivered: churn_report.totals.delivered,
        rescued: churn_report.totals.rescued,
        epochs: churn_report.epochs.len() as u64,
        repairs: churn_report.repairs.len() as u64,
        incremental_repairs: churn_report.incremental_repairs() as u64,
        deferred_flows: churn_report.deferred_flows as u64,
        recover_slots: churn_report.time_to_recover_slots.unwrap_or(0),
        final_verdict_stable: churn_report.final_verdict_stable,
    };

    let mut digest = Fnv64::new();
    for schedule in schedules.iter().chain(&c2_schedules) {
        outputs.sched_len_slots += schedule.length() as u64;
        digest_schedule(&mut digest, schedule);
    }
    for schedule in &schedules {
        outputs.patterns += schedule.pattern_count() as u64;
        outputs.pattern_entries += schedule.runs().map(|(p, _)| p.len() as u64).sum::<u64>();
    }
    for repair in &repaired {
        outputs.sched_len_slots += repair.schedule.length() as u64;
        outputs.repair_added_allocation += repair.added_allocation;
        digest_schedule(&mut digest, &repair.schedule);
    }
    for (_, run) in &protocol_runs {
        outputs.sched_len_slots += run.schedule.length() as u64;
        digest_schedule(&mut digest, &run.schedule);
    }
    digest_churn(&mut digest, &churn_report);
    outputs.digest = digest.0;

    if let Some(ops) = ops {
        let open = state.tracer.begin("check");
        ops.check(verified, || {
            "verify_schedule rejected a centralized frame".into()
        });
        for (subject, schedule) in subjects.iter().zip(&c2_schedules) {
            let result = verify_schedule(subject.c2_env, schedule, subject.c2_demands);
            ops.check(result.is_ok(), || format!("two-channel frame: {result:?}"));
        }
        for (subject, repair) in subjects.iter().zip(&repaired) {
            let result = verify_schedule(subject.env, &repair.schedule, subject.repair_target);
            ops.check(result.is_ok(), || format!("repaired frame: {result:?}"));
            if subject.must_repair_incrementally {
                ops.check(repair.outcome == RepairOutcome::Incremental, || {
                    "the lattice repair fell back to a full rebuild".into()
                });
            }
        }
        let centralized: Vec<Schedule> = world
            .meshes
            .iter()
            .map(|mesh| greedy.schedule(&mesh.env, &mesh.link_demands))
            .collect();
        for (index, run) in &protocol_runs {
            let mesh = &world.meshes[*index];
            let result = verify_schedule(&mesh.env, &run.schedule, &mesh.link_demands);
            ops.check(result.is_ok() && run.stats.terminated, || {
                format!("{} frame on mesh {index}: {result:?}", run.kind.name())
            });
            if run.kind == ProtocolKind::fdd() {
                ops.check(run.schedule == centralized[*index], || {
                    format!("FDD differs from GreedyPhysical on mesh {index} (Theorem 4)")
                });
            }
        }
        ops.check(stable_verdicts.iter().all(|&stable| stable), || {
            format!("load {STABLE_LOAD} is not Stable")
        });
        ops.check(overload_verdicts.iter().all(|&stable| !stable), || {
            format!("load {OVERLOAD} is not Overloaded")
        });
        ops.check(outputs.churn.final_verdict_stable, || {
            "the churn run does not end Stable".into()
        });
        let bounded = outputs.stable.delivered <= outputs.stable.injected
            && outputs.churn.delivered <= outputs.churn.injected
            && churn_report.delivery_pct() <= 100.0
            && outputs.delivery_pct() <= 100.0;
        ops.check(bounded, || "delivery exceeds 100 %".into());
        state.tracer.end(open);
    }

    let PassState { tracer, phases } = state;
    tracer.end(pass_span);
    Pass {
        phases,
        outputs,
        schedules,
    }
}
