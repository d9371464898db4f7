//! End-to-end integration tests spanning every crate in the workspace: from a
//! deployment through the radio environment, routing, demand aggregation,
//! distributed scheduling and verification. Every schedule verified here is
//! also judged by the independent [`Oracle`], which must agree.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream::prelude::*;
use scream::protocols::ProtocolKind;
use scream_bench::PaperScenario;

#[path = "common/oracle.rs"]
mod oracle;
use oracle::Oracle;
#[path = "common/meshes.rs"]
mod meshes;
use meshes::{paper_oracle, Mesh};

/// `verify_schedule`'s verdict on `schedule`, asserted equal to the oracle's.
fn verify(
    oracle: &Oracle,
    env: &RadioEnvironment,
    schedule: &Schedule,
    demands: &LinkDemands,
) -> Result<(), ScheduleViolation> {
    let verdict = verify_schedule(env, schedule, demands);
    assert_eq!(oracle.accepts(schedule), verdict.is_ok(), "{verdict:?}");
    verdict
}

/// Builds a complete scheduling instance on a planned grid.
fn grid_instance(
    side: usize,
    step_m: f64,
    gateway_count: usize,
    seed: u64,
) -> (RadioEnvironment, LinkDemands, Oracle) {
    let Mesh {
        deployment,
        env,
        oracle,
        ..
    } = Mesh::planned(side, side, step_m);
    let graph = env.communication_graph();
    assert!(graph.is_connected(), "test instance must be connected");
    let mut gateways = deployment.corner_nodes();
    gateways.truncate(gateway_count.max(1));
    let forest = RoutingForest::shortest_path(&graph, &gateways, seed).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let demands =
        DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
    (env, link_demands, oracle)
}

#[test]
fn full_pipeline_produces_valid_schedules_for_every_protocol() {
    let (env, link_demands, oracle) = grid_instance(5, 140.0, 2, 1);
    let config = ProtocolConfig::paper_default()
        .with_scream_slots(env.interference_diameter())
        .with_seed(1);

    let centralized = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
    verify(&oracle, &env, &centralized, &link_demands).unwrap();

    for kind in [
        ProtocolKind::Fdd,
        ProtocolKind::Afdd,
        ProtocolKind::pdd_unchecked(0.2),
        ProtocolKind::pdd_unchecked(0.6),
        ProtocolKind::pdd_unchecked(0.8),
    ] {
        let run = DistributedScheduler::new(kind, config)
            .run(&env, &link_demands)
            .unwrap_or_else(|e| panic!("{kind:?} failed: {e}"));
        verify(&oracle, &env, &run.schedule, &link_demands)
            .unwrap_or_else(|e| panic!("{kind:?} produced an invalid schedule: {e}"));
        assert!(run.stats.terminated, "{kind:?} must terminate");
        assert!(
            run.schedule.length() as u64 <= link_demands.total_demand(),
            "{kind:?} can never be worse than the serialized schedule"
        );
        assert!(run.execution_secs() > 0.0);
    }
}

#[test]
fn fdd_and_afdd_recreate_the_centralized_schedule_across_instances() {
    for seed in [3u64, 5, 9] {
        let (env, link_demands, _) = grid_instance(4, 160.0, 1, seed);
        let config = ProtocolConfig::paper_default()
            .with_scream_slots(env.interference_diameter())
            .with_seed(seed);
        let centralized = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
        let fdd = DistributedScheduler::fdd()
            .with_config(config)
            .run(&env, &link_demands)
            .unwrap();
        let afdd = DistributedScheduler::afdd()
            .with_config(config)
            .run(&env, &link_demands)
            .unwrap();
        assert_eq!(fdd.schedule, centralized, "seed {seed}");
        assert_eq!(afdd.schedule, centralized, "seed {seed}");
    }
}

#[test]
fn schedule_quality_ordering_matches_the_paper() {
    // Centralized == FDD >= PDD(any p), and the serialized schedule is the
    // common upper bound on length.
    let (env, link_demands, _) = grid_instance(6, 130.0, 4, 7);
    let config = ProtocolConfig::paper_default()
        .with_scream_slots(env.interference_diameter())
        .with_seed(7);

    let centralized = ScheduleMetrics::compute(
        &GreedyPhysical::paper_baseline().schedule(&env, &link_demands),
        &link_demands,
    );
    let fdd_run = DistributedScheduler::fdd()
        .with_config(config)
        .run(&env, &link_demands)
        .unwrap();
    let fdd = fdd_run.metrics(&link_demands);
    assert_eq!(fdd.length, centralized.length);
    assert!(centralized.improvement_over_linear_pct > 0.0);

    for p in [0.2, 0.8] {
        let pdd = DistributedScheduler::pdd(p)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config)
            .run(&env, &link_demands)
            .unwrap()
            .metrics(&link_demands);
        assert!(
            pdd.length >= fdd.length,
            "PDD(p={p}) should not beat FDD: {} vs {}",
            pdd.length,
            fdd.length
        );
        assert!(pdd.length as u64 <= link_demands.total_demand());
    }
}

#[test]
fn execution_time_knobs_do_not_change_the_schedule() {
    let (env, link_demands, _) = grid_instance(4, 150.0, 2, 13);
    let base = ProtocolConfig::paper_default()
        .with_scream_slots(env.interference_diameter())
        .with_seed(13);
    let reference = DistributedScheduler::fdd()
        .with_config(base)
        .run(&env, &link_demands)
        .unwrap();
    let mut times = Vec::new();
    for config in [
        base.with_scream_bytes(60),
        base.with_scream_slots(env.interference_diameter() * 4),
        base.with_clock_skew(ClockSkewConfig::new(SimTime::from_millis(5))),
    ] {
        let run = DistributedScheduler::fdd()
            .with_config(config)
            .run(&env, &link_demands)
            .unwrap();
        assert_eq!(run.schedule, reference.schedule);
        times.push(run.execution_secs());
    }
    assert!(times.iter().all(|&t| t > reference.execution_secs()));
}

#[test]
fn unplanned_heterogeneous_instance_schedules_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let deployment = UniformDeployment::new(36, 800.0)
        .tx_power_dbm(16.0)
        .heterogeneous_power(8.0)
        .build_connected(&mut rng, Meters::new(200.0), 200)
        .unwrap();
    let env = RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .build(&deployment);
    let graph = env.communication_graph();
    if !graph.is_connected() {
        // The SINR graph can be sparser than the unit-disk draw check; this
        // particular seed is known connected, but guard against flakiness.
        return;
    }
    let gateways = vec![deployment.corner_nodes()[0], deployment.corner_nodes()[1]];
    let forest = RoutingForest::shortest_path(&graph, &gateways, 31).unwrap();
    let demands =
        DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();

    let config = ProtocolConfig::paper_default()
        .with_scream_slots(env.interference_diameter())
        .with_seed(31);
    let fdd = DistributedScheduler::fdd()
        .with_config(config)
        .run(&env, &link_demands)
        .unwrap();
    let oracle = Oracle::unshadowed(&deployment, env.config());
    verify(&oracle, &env, &fdd.schedule, &link_demands).unwrap();
    assert_eq!(
        fdd.schedule,
        GreedyPhysical::paper_baseline().schedule(&env, &link_demands)
    );
}

#[test]
fn mote_experiment_supports_the_scream_size_used_by_the_protocols() {
    // The protocols default to 15-byte SCREAMs; the mote experiment must show
    // that size is reliably detectable, and that very small screams are not.
    use scream::mote::{MoteExperiment, MoteExperimentConfig};
    let reliable = MoteExperiment::new(
        MoteExperimentConfig::paper_default()
            .with_scream_bytes(15)
            .with_scream_count(200),
    )
    .run();
    let unreliable = MoteExperiment::new(
        MoteExperimentConfig::paper_default()
            .with_scream_bytes(3)
            .with_scream_count(200),
    )
    .run();
    assert!(reliable.error_percentage() < 10.0);
    assert!(unreliable.error_percentage() > 40.0);
}

#[test]
fn localized_scheduling_fails_where_global_scheduling_succeeds() {
    use scream::protocols::impossibility::{CounterExample, LocalizedGreedy};
    let ce = CounterExample::for_locality(3).unwrap();
    let env = ce.environment();
    let graph = env.communication_graph();
    let localized = LocalizedGreedy::new(3);
    assert!(localized.admits(&env, &graph, &[ce.link_l], ce.link_l_prime));
    assert!(!SlotLedger::with_links(&env, &[ce.link_l]).can_add(ce.link_l_prime));
    // The construction's own β and −100 dBm noise floor reach the oracle
    // through the environment's configuration: each link alone verifies,
    // the pair does not.
    let oracle = Oracle::unshadowed(&ce.deployment, env.config());
    let demands =
        LinkDemands::from_links(ce.deployment.len(), &[(ce.link_l, 1), (ce.link_l_prime, 1)])
            .unwrap();
    for (slots, feasible) in [
        (vec![vec![ce.link_l], vec![ce.link_l_prime]], true),
        (vec![vec![ce.link_l, ce.link_l_prime]], false),
    ] {
        let schedule = Schedule::from_slots(slots);
        assert_eq!(verify(&oracle, &env, &schedule, &demands).is_ok(), feasible);
    }
}

#[test]
fn traffic_engine_carries_packets_over_a_distributed_schedule() {
    // The full pipeline one layer further than scheduling: deployment ->
    // routing -> demands -> distributed FDD schedule -> packet-level traffic
    // over that schedule as a repeating TDMA frame, via the facade prelude.
    let Mesh {
        deployment,
        env,
        oracle,
        ..
    } = Mesh::planned(4, 4, 150.0);
    let graph = env.communication_graph();
    let gateways = vec![deployment.corner_nodes()[0]];
    let forest = RoutingForest::shortest_path(&graph, &gateways, 5).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let demands =
        DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();

    let run = DistributedScheduler::fdd()
        .with_config(
            ProtocolConfig::paper_default()
                .with_scream_slots(env.interference_diameter())
                .with_seed(5),
        )
        .run(&env, &link_demands)
        .unwrap();
    verify(&oracle, &env, &run.schedule, &link_demands).unwrap();

    // 70% of the frame's capacity: one deterministic flow per mesh node.
    let frame = run.frame_service();
    let flows = FlowSet::along_forest(&forest, &demands, 0.7 / frame.frame_slots() as f64);
    let engine = TrafficEngine::new(frame, flows, TrafficConfig::new(300).with_seed(5)).unwrap();
    let report = engine.run();
    assert!(report.verdict.is_stable(), "{report}");
    assert!(report.sustained_throughput_pct > 98.0, "{report}");
    assert!(report.delay.mean_slots >= 1.0);
    assert_eq!(report.flow_count, flows_with_demand(&forest, &demands));
    assert_eq!(report.final_backlog, report.injected - report.delivered);
    // Deterministic end to end.
    assert_eq!(report, engine.run());
}

fn flows_with_demand(forest: &RoutingForest, demands: &DemandVector) -> usize {
    forest
        .flow_routes()
        .filter(|(v, _)| demands.demand(*v) > 0)
        .count()
}

#[test]
fn a_seeded_churn_run_is_identical_to_the_parent_commit() {
    // Captured at ae1eebc, the last commit where `TrafficSession` was a
    // simulator of its own: 11 reschedules (fail / reroute / repair / swap /
    // rescue / pause) over 45 epochs, so every session mutator is on
    // the path to these numbers.
    let deployment = GridDeployment::new(5, 5, 180.0).build();
    let env = RadioEnvironment::builder().build(&deployment);
    let gateways = deployment.corner_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let demands =
        DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let graph = env.communication_graph();
    let links: Vec<Link> = graph.edges().map(|(u, v)| Link::new(u, v)).collect();
    let nodes: Vec<NodeId> = (0..deployment.len() as u32)
        .map(NodeId::new)
        .filter(|v| !gateways.contains(v))
        .collect();
    let churn = ChurnConfig {
        horizon_slots: 6000,
        link_failures: 6,
        node_failures: 2,
        flow_churns: 3,
        fades: 1,
        mean_outage_slots: 500.0,
        fade_sigma_db: 2.0,
    };
    let trace = FaultPlan::new()
        .random_churn(churn, &links, &nodes, 17)
        .build();
    let report = ResilienceHarness::new(env, gateways, demands, 0.8)
        .run(&trace, 6000, 9)
        .unwrap();
    assert_eq!(
        report.totals,
        SessionTotals {
            injected: 3987,
            delivered: 3897,
            dropped: 8,
            rescued: 180,
            in_flight: 82,
            peak_backlog: 132,
        }
    );
    assert!(report.final_verdict_stable);
    assert_eq!(
        (report.repairs.len(), report.incremental_repairs()),
        (11, 11)
    );
    assert_eq!((report.epochs.len(), report.deferred_flows), (45, 0));
    assert_eq!(report.frame_slots_initial, 134);
    assert_eq!(report.time_to_recover_slots, Some(1022));
    assert_eq!(report.outage_delivery_pct.to_bits(), 0x4055_4afa_fafa_fafb);
    assert_eq!(
        report.post_recovery_delivery_pct.to_bits(),
        0x4058_184d_703e_9c1d
    );
}

/// FNV-1a over a schedule's run-length form: multiplicity, then every
/// `(channel, head, tail)` entry of each pattern in canonical order.
fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (pattern, multiplicity) in schedule.runs() {
        mix(multiplicity);
        mix(pattern.len() as u64);
        for (channel, link) in pattern.entries() {
            mix(channel.index() as u64);
            mix(link.head.0 as u64);
            mix(link.tail.0 as u64);
        }
    }
    hash
}

#[test]
fn protocol_runs_are_identical_to_the_round_at_a_time_parent() {
    // Captured at c3b21a7, the last commit whose runtime simulated every
    // logical round: FDD, AFDD and one PDD on three seeded paper grids (the
    // third with two channels). Per run: `ProtocolTiming` (scream slots,
    // handshake slots, sync steps), `RunStats` (rounds, iterations,
    // elections, SCREAM invocations, handshake steps, vetoes, tried), then
    // schedule length, pattern count and digest. Every schedule verifies,
    // and so says the oracle over the instance's σ = 4 dB shadowing draws.
    // The pins predate the closed-form OR and election: they were made by
    // the bitwise loop over per-node flags.
    type Pin = ([u64; 3], [u64; 7], usize, usize, u64);
    let grids: [(PaperScenario, u64, f64, [Pin; 3]); 3] = [
        (
            PaperScenario::grid(2_000.0).with_node_count(36),
            1,
            0.2,
            [
                (
                    [82770, 2028, 6284],
                    [148, 2028, 2054, 16554, 2028, 1696, 1983],
                    148,
                    30,
                    0x2cf9_fd85_bb57_8b7b,
                ),
                (
                    [32070, 2028, 6284],
                    [148, 2028, 26, 6414, 2028, 1696, 1983],
                    148,
                    30,
                    0x2cf9_fd85_bb57_8b7b,
                ),
                (
                    [23880, 2209, 6845],
                    [162, 2209, 28, 4776, 2209, 934, 2231],
                    162,
                    49,
                    0xd209_aeb4_df15_be4e,
                ),
            ],
        ),
        (
            PaperScenario::grid(4_000.0),
            2,
            0.6,
            [
                (
                    [270005, 6677, 20386],
                    [263, 6677, 6723, 54001, 6677, 5946, 6582],
                    263,
                    58,
                    0x1ae2_58b6_8ffc_00ca,
                ),
                (
                    [103080, 6677, 20386],
                    [263, 6677, 46, 20616, 6677, 5946, 6582],
                    263,
                    58,
                    0x1ae2_58b6_8ffc_00ca,
                ),
                (
                    [18575, 1495, 4925],
                    [326, 1495, 57, 3715, 1495, 1187, 9590],
                    326,
                    93,
                    0x4a1d_6f73_22de_6c20,
                ),
            ],
        ),
        (
            PaperScenario::grid(1_000.0)
                .with_node_count(49)
                .with_channel_count(2),
            3,
            0.8,
            [
                (
                    [64405, 3112, 4786],
                    [82, 1556, 1574, 12881, 3112, 1442, 1406],
                    82,
                    34,
                    0x452a_af8a_7c3d_d4fe,
                ),
                (
                    [25505, 3112, 4786],
                    [82, 1556, 18, 5101, 3112, 1442, 1406],
                    82,
                    34,
                    0x452a_af8a_7c3d_d4fe,
                ),
                (
                    [6650, 716, 1283],
                    [137, 358, 36, 1330, 716, 302, 2756],
                    137,
                    111,
                    0x9c3d_5b01_f7ad_5c5b,
                ),
            ],
        ),
    ];
    for (scenario, seed, p, pins) in grids {
        let instance = scenario.instantiate(seed).unwrap();
        let oracle = paper_oracle(&scenario, &instance);
        let kinds = [
            ProtocolKind::Fdd,
            ProtocolKind::Afdd,
            ProtocolKind::pdd(p).expect("p is in (0, 1]"),
        ];
        for (kind, pin) in kinds.into_iter().zip(pins) {
            let run = instance.run_protocol(kind).unwrap();
            let (t, s) = (run.timing, run.stats);
            let seen: Pin = (
                [t.scream_slots, t.handshake_slots, t.sync_steps],
                [
                    s.rounds,
                    s.slot_iterations,
                    s.elections,
                    s.scream_invocations,
                    s.handshake_steps,
                    s.vetoes,
                    s.tried_transitions,
                ],
                run.schedule.length(),
                run.schedule.pattern_count(),
                schedule_digest(&run.schedule),
            );
            assert_eq!(seen, pin, "{kind} diverged on the seed-{seed} grid");
            assert!(s.terminated);
            verify(
                &oracle,
                &instance.env,
                &run.schedule,
                &instance.link_demands,
            )
            .unwrap();
        }
    }
}
