//! Property tests over the workspace's core invariants: geometry, graphs,
//! routing, demand aggregation, SINR monotonicity, scheduling feasibility and
//! the FDD/GreedyPhysical equivalence. Each property is a plain `#[test]`
//! over [`for_cases`]' seeded streams; there is no shrinking, a failure names
//! its case and rerunning the test reproduces it.

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scream::netsim::RadioConfig;
use scream::prelude::*;
use scream::scheduling::{verify_slots_feasible, EdgeOrdering, SlotPattern};

#[path = "common/cases.rs"]
mod cases;
use cases::for_cases;
#[path = "common/oracle.rs"]
mod oracle;
use oracle::Oracle;

/// Cases per property.
const CASES: u32 = 24;

#[test]
#[should_panic(expected = "property 'always_fails' failed at case 0")]
fn failing_property_reports_its_case() {
    for_cases("always_fails", 4, |_| panic!("nope"));
}

/// A connected-ish random deployment description (node count and seed).
/// Connectivity is ensured by retry inside [`build_instance`].
fn small_instance(draw: &mut ChaCha8Rng) -> (usize, u64) {
    (draw.gen_range(6usize..=20), draw.gen_range(0u64..5000))
}

fn build_connected(nodes: usize, seed: u64) -> Option<(RadioEnvironment, LinkDemands)> {
    build_connected_on_channels(nodes, seed, 1)
}

/// Like [`build_connected`], but with `channel_count` orthogonal channels in
/// the radio configuration. The deployment draw depends only on `(nodes,
/// seed)`, so the instances for different channel counts share the same
/// gains and demands.
fn build_connected_on_channels(
    nodes: usize,
    seed: u64,
    channel_count: usize,
) -> Option<(RadioEnvironment, LinkDemands)> {
    build_instance(nodes, seed, channel_count).map(|(_, env, demands)| (env, demands))
}

/// [`build_connected_on_channels`] with the deployment the environment was
/// built from, which is what an [`Oracle`] reads. Shadowing is off.
fn build_instance(
    nodes: usize,
    seed: u64,
    channel_count: usize,
) -> Option<(Deployment, RadioEnvironment, LinkDemands)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Area scaled so the density stays in a regime where connectivity is
    // plausible with 20 dBm radios (~215 m range).
    let side = 120.0 * (nodes as f64).sqrt();
    let deployment = UniformDeployment::new(nodes, side)
        .build_connected(&mut rng, Meters::new(200.0), 50)
        .ok()?;
    let env = RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .config(RadioConfig::mesh_default().with_channel_count(channel_count))
        .build(&deployment);
    let graph = env.communication_graph();
    if !graph.is_connected() {
        return None;
    }
    let gateways = vec![deployment.corner_nodes()[0]];
    let forest = RoutingForest::shortest_path(&graph, &gateways, seed).ok()?;
    let demands = DemandVector::generate(nodes, DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).ok()?;
    Some((deployment, env, link_demands))
}

/// The reference GreedyPhysical, written from the algorithm's definition and
/// sharing nothing with the product path but the edge order: **per unit** of
/// demand (no run batching), **from scratch** (`model.can_add` over plain
/// link lists — no ledger, no accumulator), first-fit over `(slot, channel)`
/// pairs in increasing order. A node has one radio, so a link may not join a
/// channel while an endpoint of it is busy on another; a unit no slot accepts
/// opens a fresh slot on channel 0, feasible or not.
fn reference_first_fit<M: SlotFeasibility>(
    model: &M,
    ordering: EdgeOrdering,
    demands: &LinkDemands,
) -> Schedule {
    let channels = model.channel_count();
    let mut edges: Vec<(Link, u64)> = demands.demanded_links().collect();
    ordering.sort(&mut edges);
    // slots[t][c]: the links on channel c of slot t, in placement order.
    let mut slots: Vec<Vec<Vec<Link>>> = Vec::new();
    for (link, demand) in edges {
        // A slot holds a link at most once, so each unit resumes the scan
        // right after the slot the previous unit landed in.
        let mut from = 0;
        for _ in 0..demand {
            let fit = (from..slots.len()).find_map(|t| {
                let fits = |c: &usize| {
                    let radio_free = slots[t].iter().enumerate().all(|(other, links)| {
                        other == *c || links.iter().all(|l| !l.shares_endpoint(&link))
                    });
                    radio_free && model.can_add(&slots[t][*c], link)
                };
                (0..channels).find(fits).map(|c| (t, c))
            });
            let (t, c) = fit.unwrap_or_else(|| {
                slots.push(vec![Vec::new(); channels]);
                (slots.len() - 1, 0)
            });
            slots[t][c].push(link);
            from = t + 1;
        }
    }
    Schedule::from_pattern_runs(slots.into_iter().map(|slot| {
        let entries = slot.into_iter().enumerate().flat_map(|(c, links)| {
            let channel = ChannelId::new(c as u16);
            links.into_iter().map(move |l| (channel, l))
        });
        (SlotPattern::from_entries(entries), 1)
    }))
}

/// The centralized greedy schedule always satisfies every demand with
/// feasible slots and never exceeds the serialized length.
#[test]
fn greedy_physical_schedules_are_always_valid() {
    for_cases(
        "greedy_physical_schedules_are_always_valid",
        CASES,
        |draw| {
            let (nodes, seed) = small_instance(draw);
            if let Some((deployment, env, link_demands)) = build_instance(nodes, seed, 1) {
                let schedule = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
                assert!(verify_schedule(&env, &schedule, &link_demands).is_ok());
                let oracle = Oracle::unshadowed(&deployment, env.config());
                assert_ne!(oracle.judge(&schedule), Some(false));
                assert_eq!(oracle.undecided(), 0);
                assert!(schedule.length() as u64 <= link_demands.total_demand());
            }
        },
    );
}

/// FDD equals GreedyPhysical (Theorem 4) on arbitrary connected instances.
#[test]
fn fdd_matches_greedy_physical() {
    for_cases("fdd_matches_greedy_physical", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        if let Some((deployment, env, link_demands)) = build_instance(nodes, seed, 1) {
            let centralized =
                GreedyPhysical::new(EdgeOrdering::DecreasingHeadId).schedule(&env, &link_demands);
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(env.interference_diameter().max(1))
                .with_seed(seed);
            let run = DistributedScheduler::fdd()
                .with_config(config)
                .run(&env, &link_demands)
                .expect("FDD completes on connected instances");
            let oracle = Oracle::unshadowed(&deployment, env.config());
            if let Some(accepts) = oracle.judge(&run.schedule) {
                let verdict = verify_schedule(&env, &run.schedule, &link_demands);
                assert_eq!(accepts, verdict.is_ok());
            }
            assert_eq!(oracle.undecided(), 0);
            assert_eq!(run.schedule, centralized);
        }
    });
}

/// PDD schedules are always valid and never beat FDD's slot count by more
/// than the randomness can explain (they can never be shorter than the
/// maximum per-link demand).
#[test]
fn pdd_schedules_are_always_valid() {
    for_cases("pdd_schedules_are_always_valid", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        let p = draw.gen_range(0.1f64..=1.0);
        if let Some((deployment, env, link_demands)) = build_instance(nodes, seed, 1) {
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(env.interference_diameter().max(1))
                .with_seed(seed);
            let run = DistributedScheduler::pdd(p)
                .expect("PDD activation probability is in (0, 1]")
                .with_config(config)
                .run(&env, &link_demands)
                .expect("PDD completes on connected instances");
            assert!(verify_schedule(&env, &run.schedule, &link_demands).is_ok());
            let oracle = Oracle::unshadowed(&deployment, env.config());
            assert_ne!(oracle.judge(&run.schedule), Some(false));
            assert_eq!(oracle.undecided(), 0);
            let max_demand = link_demands
                .demanded_links()
                .map(|(_, d)| d)
                .max()
                .unwrap_or(0);
            assert!(run.schedule.length() as u64 >= max_demand);
            assert!(run.schedule.length() as u64 <= link_demands.total_demand());
        }
    });
}

/// Interference sums only grow: on shadowed instances, assigning links to
/// a ledger one at a time — endpoint sharing allowed — never raises an
/// assigned link's data or ACK margin, and a lone link's margins are its two
/// SNRs over β as the oracle computes them. (The fill-and-read verdict of
/// `verify_schedule` rests on this.)
#[test]
fn sinr_is_monotone_in_the_interferer_set() {
    for_cases("sinr_is_monotone_in_the_interferer_set", CASES, |draw| {
        let (nodes, seed) = (draw.gen_range(3usize..12), draw.gen_range(0u64..5000));
        let sigma_db = draw.gen_range(0.0f64..8.0);
        let points: Vec<Point2> = (0..nodes)
            .map(|_| {
                Point2::new(
                    draw.gen_range(0.0f64..2000.0),
                    draw.gen_range(0.0f64..2000.0),
                )
            })
            .collect();
        let deployment = Deployment::from_positions(&points, 20.0, Rect::square(2000.0)).unwrap();
        let env = RadioEnvironment::builder()
            .shadowing(sigma_db, seed)
            .build(&deployment);
        let oracle = Oracle::new(
            &deployment,
            env.config(),
            ShadowingField::generate(nodes, Db::new(sigma_db), seed),
        );
        let snr_margin_db = |tx: NodeId, rx: NodeId| {
            10.0 * (oracle.received_mw(tx, rx) / env.config().noise_floor_mw().get()).log10()
                - env.config().sinr_threshold_db.get()
        };
        let mut ledger = SlotLedger::new(&env);
        let mut previous: Vec<LinkSinrMargin> = Vec::new();
        for _ in 0..draw.gen_range(1usize..12) {
            let head = draw.gen_range(0..nodes as u32);
            let tail = (head + draw.gen_range(1..nodes as u32)) % nodes as u32;
            let link = Link::new(NodeId::new(head), NodeId::new(tail));
            ledger.assign(link);
            let margins = ledger.margins();
            if let [lone] = margins.as_slice() {
                let (data_db, ack_db) = (lone.data_margin_db.get(), lone.ack_margin_db.get());
                assert!((data_db - snr_margin_db(link.head, link.tail)).abs() < 1e-9);
                assert!((ack_db - snr_margin_db(link.tail, link.head)).abs() < 1e-9);
            }
            for (before, after) in previous.iter().zip(&margins) {
                assert!(
                    after.data_margin_db <= before.data_margin_db,
                    "{before} -> {after}"
                );
                assert!(
                    after.ack_margin_db <= before.ack_margin_db,
                    "{before} -> {after}"
                );
            }
            previous = margins;
        }
    });
}

/// Demand aggregation conserves flow: the demand entering the gateways
/// equals the total generated demand, and every edge carries exactly its
/// subtree's demand.
#[test]
fn demand_aggregation_conserves_flow() {
    for_cases("demand_aggregation_conserves_flow", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        if let Some((_env, _)) = build_connected(nodes, seed) {
            // Rebuild explicitly to access forest internals.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let side = 120.0 * (nodes as f64).sqrt();
            if let Ok(deployment) = UniformDeployment::new(nodes, side).build_connected(
                &mut rng,
                Meters::new(200.0),
                50,
            ) {
                let graph = UnitDiskGraphBuilder::new(Meters::new(200.0)).build(&deployment);
                let gateways = vec![deployment.corner_nodes()[0]];
                let forest = RoutingForest::shortest_path(&graph, &gateways, seed).unwrap();
                let demands =
                    DemandVector::generate(nodes, DemandConfig::PAPER, &gateways, &mut rng);
                let agg = LinkDemands::aggregate(&forest, &demands).unwrap();
                let inflow: u64 = agg
                    .demanded_links()
                    .filter(|(l, _)| gateways.contains(&l.tail))
                    .map(|(_, d)| d)
                    .sum();
                assert_eq!(inflow, demands.total());
                for v in (0..nodes as u32).map(NodeId::new) {
                    if forest.is_gateway(v) {
                        continue;
                    }
                    let children_sum: u64 =
                        forest.children(v).iter().map(|&c| agg.demand_of(c)).sum();
                    assert_eq!(agg.demand_of(v), demands.demand(v) as u64 + children_sum);
                }
            }
        }
    });
}

/// Routing forests always route towards a gateway with strictly
/// decreasing depth, and every non-gateway node owns exactly one link.
#[test]
fn routing_forest_invariants() {
    for_cases("routing_forest_invariants", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = 120.0 * (nodes as f64).sqrt();
        if let Ok(deployment) =
            UniformDeployment::new(nodes, side).build_connected(&mut rng, Meters::new(200.0), 50)
        {
            let graph = UnitDiskGraphBuilder::new(Meters::new(200.0)).build(&deployment);
            let gateways = vec![deployment.corner_nodes()[0]];
            let forest = RoutingForest::shortest_path(&graph, &gateways, seed).unwrap();
            let dist = graph.bfs_distances(gateways[0]);
            let mut owned_links = 0;
            for v in (0..nodes as u32).map(NodeId::new) {
                assert_eq!(forest.depth(v), dist[v.index()]);
                match forest.parent(v) {
                    None => assert!(forest.is_gateway(v)),
                    Some(p) => {
                        assert!(graph.has_edge(v, p));
                        assert_eq!(forest.depth(p) + 1, forest.depth(v));
                        owned_links += 1;
                    }
                }
            }
            assert_eq!(owned_links, nodes - gateways.len());
        }
    });
}

/// Fault pruning by node as it stood before the rescheduler routed over a
/// mask: every edge between two live nodes re-inserted in `edges` order.
fn reference_without_nodes(graph: &Graph, dead: &[NodeId]) -> Graph {
    let mut pruned = Graph::new(graph.node_count(), graph.kind());
    for (u, v) in graph.edges() {
        if !dead.contains(&u) && !dead.contains(&v) {
            pruned.add_edge(u, v).unwrap();
        }
    }
    pruned
}

/// The rescheduler reroutes over the live communication graph with a mask
/// of dead nodes and links. That is the forest, and the cut-off list, the
/// seeded search finds over a pruned copy — because every communication
/// graph's adjacency lists are ascending, which is asserted too. Graphs
/// from the pair scan, which inserts `(i, j > i)` in order, on grids up to
/// 17 × 16, shadowed and refaded.
#[test]
fn a_masked_reroute_equals_routing_over_a_pruned_copy() {
    let mut cut_off_cases = 0;
    for_cases(
        "a_masked_reroute_equals_routing_over_a_pruned_copy",
        CASES,
        |draw| {
            let (columns, rows) = if draw.gen_bool(0.25) {
                (17, 16)
            } else {
                (draw.gen_range(3usize..=8), draw.gen_range(3usize..=8))
            };
            let deployment =
                GridDeployment::new(columns, rows, draw.gen_range(140.0..190.0)).build();
            let mut builder = RadioEnvironment::builder();
            if draw.gen_bool(0.5) {
                builder = builder.shadowing(draw.gen_range(1.0..6.0), draw.gen_range(0u64..1000));
            }
            let mut env = builder.build(&deployment);
            if draw.gen_bool(0.5) {
                env = env
                    .refaded(
                        Db::new(draw.gen_range(1.0..6.0)),
                        draw.gen_range(0u64..1000),
                    )
                    .expect("dense gains");
            }
            let graph = env.communication_graph();
            for v in graph.nodes() {
                let neighbors = graph.neighbors(v);
                assert!(
                    neighbors.windows(2).all(|w| w[0] < w[1]),
                    "{v}: {neighbors:?}"
                );
            }

            let n = graph.node_count() as u32;
            let gateways = deployment.corner_nodes()[..draw.gen_range(1usize..=4)].to_vec();
            let dead_nodes: Vec<NodeId> = (0..draw.gen_range(0..=n / 4))
                .map(|_| NodeId::new(draw.gen_range(0..n)))
                .collect();
            let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
            let dead_links: BTreeSet<(NodeId, NodeId)> = (0..draw.gen_range(0..=edges.len() / 4))
                .map(|_| edges[draw.gen_range(0..edges.len())])
                .collect();
            let seed = draw.gen_range(0..u64::MAX);

            let copy = reference_without_nodes(&graph, &dead_nodes)
                .without_edges(dead_links.iter().copied());
            let expected = RoutingForest::shortest_path_partial(&copy, &gateways, seed).unwrap();
            let alive = |u: NodeId, v: NodeId| {
                !dead_nodes.contains(&u)
                    && !dead_nodes.contains(&v)
                    && !dead_links.contains(&(u.min(v), u.max(v)))
            };
            let masked =
                RoutingForest::shortest_path_masked(&graph, &gateways, seed, alive).unwrap();
            assert_eq!(masked, expected);
            cut_off_cases += usize::from(!masked.1.is_empty());
        },
    );
    assert!(
        cut_off_cases >= CASES as usize / 4,
        "{cut_off_cases} cases cut a node off"
    );
}

/// The serialized baseline always has zero improvement and any valid
/// schedule's improvement is in [0, 100).
#[test]
fn improvement_metric_is_bounded() {
    for_cases("improvement_metric_is_bounded", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        if let Some((env, link_demands)) = build_connected(nodes, seed) {
            let serialized = serialized_schedule(&link_demands);
            let m0 = ScheduleMetrics::compute(&serialized, &link_demands);
            assert!(m0.improvement_over_linear_pct.abs() < 1e-9);
            let greedy = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
            let m1 = ScheduleMetrics::compute(&greedy, &link_demands);
            assert!(m1.improvement_over_linear_pct >= 0.0);
            assert!(m1.improvement_over_linear_pct < 100.0);
        }
    });
}

/// SimTime arithmetic respects unit conversions for arbitrary values.
#[test]
fn simtime_roundtrips() {
    for_cases("simtime_roundtrips", CASES, |draw| {
        let us = draw.gen_range(0u64..10_000_000);
        let t = SimTime::from_micros(us);
        assert_eq!(t.as_micros(), us);
        assert!((t.as_secs_f64() - us as f64 / 1e6).abs() < 1e-9);
        assert_eq!(SimTime::from_nanos(t.as_nanos()), t);
    });
}

/// The interference ledger's incremental `can_add`/`slot_feasible` agree
/// with the oracle's from-scratch SINR computation on randomized
/// environments (uniform placements, random shadowing, the draws handed to
/// the oracle as data) and randomized link sequences, including self-links
/// and endpoint-sharing candidates.
#[test]
fn ledger_matches_from_scratch_feasibility() {
    for_cases("ledger_matches_from_scratch_feasibility", CASES, |draw| {
        let (nodes, seed) = (draw.gen_range(8usize..=24), draw.gen_range(0u64..5000));
        let sigma_db = draw.gen_range(0.0f64..8.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = 150.0 * (nodes as f64).sqrt();
        let deployment = UniformDeployment::new(nodes, side).build(&mut rng);
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(sigma_db, seed)
            .build(&deployment);
        let oracle = Oracle::new(
            &deployment,
            env.config(),
            ShadowingField::generate(nodes, Db::new(sigma_db), seed),
        );

        let mut ledger = SlotLedger::new(&env);
        let mut assigned: Vec<Link> = Vec::new();
        for _ in 0..16 {
            let candidate = Link::new(
                NodeId::new(rng.gen_range(0..nodes as u32)),
                NodeId::new(rng.gen_range(0..nodes as u32)),
            );
            let with_candidate: Vec<Link> = assigned.iter().copied().chain([candidate]).collect();
            if let Some(fits) = oracle.slot(&with_candidate) {
                assert_eq!(
                    ledger.can_add(candidate),
                    fits,
                    "can_add diverged for {candidate} on {assigned:?}"
                );
            }
            if ledger.can_add(candidate) {
                ledger.assign(candidate);
                assigned.push(candidate);
            }
            if let Some(feasible) = oracle.slot(&assigned) {
                assert_eq!(ledger.slot_feasible(), feasible);
            }
        }
        assert_eq!(
            oracle.undecided(),
            0,
            "a drawn instance the oracle cannot decide"
        );
    });
}

/// GreedyPhysical — batched run-level placement over the incremental,
/// spatially screened ledger — is decision-for-decision identical to
/// [`reference_first_fit`] over the [`Oracle`] (so the two share nothing
/// but the edge order) on randomized instances: arbitrary density (via the
/// region side), seed, SINR threshold β, every edge ordering and
/// C ∈ {1, 2, 3} channels. At C = 1 no pattern carries a channel tag, and
/// the run-aware verifier's verdict is the oracle's feasibility of every
/// channel group.
#[test]
fn batched_placement_matches_per_unit() {
    for_cases("batched_placement_matches_per_unit", CASES, |draw| {
        let (nodes, seed) = (draw.gen_range(6usize..=18), draw.gen_range(0u64..5000));
        let side_scale = draw.gen_range(90.0f64..220.0);
        let beta_db = draw.gen_range(4.0f64..12.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let side = side_scale * (nodes as f64).sqrt();
        let deployment = UniformDeployment::new(nodes, side).build(&mut rng);
        // Random demanded links with demands spanning several magnitudes.
        let links: Vec<(Link, u64)> = (0..nodes as u32 / 2)
            .map(|i| {
                (
                    Link::new(NodeId::new(2 * i + 1), NodeId::new(2 * i)),
                    rng.gen_range(1u64..200),
                )
            })
            .collect();
        let demands = LinkDemands::from_links(nodes, &links).unwrap();
        for channels in 1usize..=3 {
            let env = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .config(
                    RadioConfig::mesh_default()
                        .with_sinr_threshold_db(beta_db)
                        .with_channel_count(channels),
                )
                .build(&deployment);
            let oracle = Oracle::unshadowed(&deployment, env.config());
            for ordering in [
                EdgeOrdering::DecreasingHeadId,
                EdgeOrdering::IncreasingHeadId,
                EdgeOrdering::DecreasingDemand,
                EdgeOrdering::IncreasingDemand,
            ] {
                let batched = GreedyPhysical::new(ordering).schedule(&env, &demands);
                let reference = reference_first_fit(&oracle, ordering, &demands);
                assert_eq!(
                    &batched, &reference,
                    "greedy != reference for ordering {:?}, C = {}, beta {} dB",
                    ordering, channels, beta_db
                );
                assert!(batched.channels_used() <= channels);
                assert!(channels > 1 || batched.runs().all(|(p, _)| p.is_single_channel()));
                if let Some(feasible) = oracle.judge(&batched) {
                    assert_eq!(verify_slots_feasible(&env, &batched).is_ok(), feasible);
                }
            }
            // The reference asked the oracle through the trait, which must
            // answer; none of those answers may have been too close to call.
            assert_eq!(oracle.undecided(), 0);
        }
    });
}

/// Run-length schedules round-trip through the expanded per-slot form:
/// compacting the expansion reproduces the schedule exactly (including
/// canonical merging), per-slot accessors agree with the expansion, and
/// the run-aware verifier agrees with a naive slot-by-slot feasibility
/// check on the expanded form.
#[test]
fn run_length_schedule_roundtrips() {
    for_cases("run_length_schedule_roundtrips", CASES, |draw| {
        let seed = draw.gen_range(0u64..5000);
        let runs: Vec<(usize, u64)> = (0..draw.gen_range(1usize..12))
            .map(|_| (draw.gen_range(0usize..6), draw.gen_range(1u64..50)))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let side = 150.0 * 4.0;
        let deployment = UniformDeployment::new(12, side).build(&mut rng);
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&deployment);
        // A pool of patterns over 12 nodes: some feasible, some conflicting.
        let pool: [Vec<Link>; 6] = [
            vec![],
            vec![Link::new(NodeId::new(1), NodeId::new(0))],
            vec![Link::new(NodeId::new(3), NodeId::new(2))],
            vec![
                Link::new(NodeId::new(1), NodeId::new(0)),
                Link::new(NodeId::new(3), NodeId::new(2)),
            ],
            vec![
                Link::new(NodeId::new(1), NodeId::new(0)),
                Link::new(NodeId::new(2), NodeId::new(1)),
            ],
            vec![Link::new(NodeId::new(5), NodeId::new(4))],
        ];
        let schedule = Schedule::from_runs(runs.iter().map(|&(p, count)| (pool[p].clone(), count)));

        // Round-trip: expand ≡ compact.
        let expanded = schedule.expand();
        assert_eq!(expanded.len(), schedule.length());
        assert_eq!(&Schedule::from_slots(expanded.clone()), &schedule);
        // Per-slot accessors agree with the expansion.
        for (t, slot) in expanded.iter().enumerate().take(20) {
            assert_eq!(schedule.slot(t).map(|p| p.links()), Some(slot.as_slice()));
        }
        assert_eq!(schedule.slot(schedule.length()), None);
        // The run-aware verifier agrees with a naive per-slot check.
        let oracle = Oracle::unshadowed(&deployment, env.config());
        let naive_feasible = expanded
            .iter()
            .all(|slot| slot.is_empty() || oracle.slot_feasible(slot));
        assert_eq!(oracle.undecided(), 0);
        assert_eq!(
            verify_slots_feasible(&env, &schedule).is_ok(),
            naive_feasible
        );
        // Allocation counts agree with counting over expanded slots.
        for (&link, &count) in schedule.allocation_counts().iter() {
            let expanded_count = expanded.iter().filter(|s| s.contains(&link)).count() as u64;
            assert_eq!(count, expanded_count);
        }
    });
}

/// Multi-channel schedules on random connected instances always verify
/// (per-channel SINR, channel range and the cross-channel half-duplex
/// rule), never use more channels than configured, and are never longer
/// than the single-channel schedule on the same instance.
#[test]
fn multi_channel_schedules_verify_and_never_lengthen() {
    for_cases(
        "multi_channel_schedules_verify_and_never_lengthen",
        CASES,
        |draw| {
            let (nodes, seed) = small_instance(draw);
            let channels = draw.gen_range(2usize..=4);
            if let (Some((env, link_demands)), Some((deployment, multi_env, multi_demands))) = (
                build_connected(nodes, seed),
                build_instance(nodes, seed, channels),
            ) {
                assert_eq!(&link_demands, &multi_demands);
                let single = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
                let multi = GreedyPhysical::paper_baseline().schedule(&multi_env, &link_demands);
                assert!(verify_schedule(&multi_env, &multi, &link_demands).is_ok());
                for (config, schedule) in [(env.config(), &single), (multi_env.config(), &multi)] {
                    let oracle = Oracle::unshadowed(&deployment, config);
                    assert_ne!(oracle.judge(schedule), Some(false));
                    assert_eq!(oracle.undecided(), 0);
                }
                assert!(multi.length() <= single.length());
                assert!(multi.channels_used() <= channels);
                assert!(multi
                    .runs()
                    .all(|(p, _)| p.node_on_multiple_channels().is_none()));
            }
        },
    );
}

/// The channel-aware Theorem 4: on random connected instances with
/// C ∈ {1, 2, 4} orthogonal channels, the channel-aware FDD runtime
/// recreates the channel-aware GreedyPhysical schedule exactly (channel
/// tags included) — same schedule, same metrics, same verifier verdict.
#[test]
fn channel_aware_fdd_matches_channel_aware_greedy() {
    for_cases(
        "channel_aware_fdd_matches_channel_aware_greedy",
        CASES,
        |draw| {
            let (nodes, seed) = small_instance(draw);
            let channels = [1usize, 2, 4][draw.gen_range(0..3usize)];
            if let Some((env, link_demands)) = build_connected_on_channels(nodes, seed, channels) {
                let centralized = GreedyPhysical::new(EdgeOrdering::DecreasingHeadId)
                    .schedule(&env, &link_demands);
                let config = ProtocolConfig::paper_default()
                    .with_scream_slots(env.interference_diameter().max(1))
                    .with_seed(seed);
                let run = DistributedScheduler::fdd()
                    .with_config(config)
                    .run(&env, &link_demands)
                    .expect("channel-aware FDD completes on connected instances");
                assert_eq!(&run.schedule, &centralized);
                assert_eq!(
                    ScheduleMetrics::compute(&run.schedule, &link_demands),
                    ScheduleMetrics::compute(&centralized, &link_demands)
                );
                assert_eq!(
                    verify_schedule(&env, &run.schedule, &link_demands).is_ok(),
                    verify_schedule(&env, &centralized, &link_demands).is_ok()
                );
                assert!(verify_schedule(&env, &run.schedule, &link_demands).is_ok());
                assert!(run.schedule.channels_used() <= channels);
            }
        },
    );
}

/// C = 1 is a value of the one runtime, not a second runtime: on a
/// one-channel environment the deterministic protocols and randomized
/// PDD charge one handshake slot per iteration, send no
/// channel-announcement SCREAM and produce single-channel patterns only.
/// (That the C = 1 schedule is the paper's single-channel GreedyPhysical
/// is `fdd_matches_greedy_physical` plus
/// `batched_placement_matches_per_unit`.)
#[test]
fn single_channel_runtime_reduction_is_exact() {
    for_cases("single_channel_runtime_reduction_is_exact", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        let p = draw.gen_range(0.2f64..=1.0);
        if let Some((env, link_demands)) = build_connected(nodes, seed) {
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(env.interference_diameter().max(1))
                .with_seed(seed);
            for scheduler in [
                DistributedScheduler::fdd(),
                DistributedScheduler::afdd(),
                DistributedScheduler::pdd(p).expect("p is in (0, 1]"),
            ] {
                scream::obs::install();
                let run = scheduler.with_config(config).run(&env, &link_demands);
                let observed = scream::obs::uninstall().expect("installed above").snapshot;
                let run = run.expect("the runtime completes on one channel");
                assert!(run
                    .schedule
                    .runs()
                    .all(|(pattern, _)| pattern.is_single_channel()));
                assert_eq!(run.stats.handshake_steps, run.stats.slot_iterations);
                assert_eq!(observed.counter("runtime.announcement_bits"), 0);
                assert_eq!(observed.counter("runtime.rounds"), run.stats.rounds);
            }
        }
    });
}

/// The cost laws of a run, stated from the protocol text rather than read
/// off the runtime's tally. With `C` channels and `h = elections −
/// [FDD]·slot_iterations` hand-over elections (the last, empty one
/// included): every iteration is `C` handshake sub-slots and three barriers
/// (handshake, verification, still-active); every hand-over is an election
/// plus a termination SCREAM behind two barriers; every round ends with a
/// barrier and a release SCREAM; every iteration SCREAMs a veto and a
/// still-active OR, plus an election under FDD or one announcement under
/// AFDD; every allocation announces its channel in `⌈log₂ C⌉` SCREAMs. The
/// execution-time counts are these, `K` slots per SCREAM.
#[test]
fn run_costs_follow_the_protocol_laws() {
    let mut runs = 0;
    for channels in [1u64, 2, 3] {
        for seed in [1u64, 7, 11] {
            let deployment = GridDeployment::new(5, 5, 150.0).build();
            let env = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .config(RadioConfig::mesh_default().with_channel_count(channels as usize))
                .build(&deployment);
            let gateways = deployment.corner_nodes();
            let forest = RoutingForest::shortest_path(&env.communication_graph(), &gateways, seed)
                .expect("the 5 × 5 grid is connected");
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let vector = DemandVector::generate(25, DemandConfig::PAPER, &gateways, &mut rng);
            let demands = LinkDemands::aggregate(&forest, &vector).expect("routes cover demand");
            let k = env.interference_diameter().max(1);
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(k)
                .with_seed(seed);
            let id_bits = u64::from(NodeId::id_bits(25));
            let channel_bits = (0..).find(|&bits| 1 << bits >= channels).expect("C ≥ 1");
            for scheduler in [
                DistributedScheduler::fdd(),
                DistributedScheduler::afdd(),
                DistributedScheduler::pdd(0.3).expect("p is in (0, 1]"),
                DistributedScheduler::pdd(0.8).expect("p is in (0, 1]"),
            ] {
                let run = scheduler
                    .with_config(config)
                    .run(&env, &demands)
                    .expect("the runtime completes on the grid");
                let s = run.stats;
                assert!(s.terminated && s.rounds > 0);
                let fdd = u64::from(matches!(run.kind, ProtocolKind::Fdd));
                let afdd = u64::from(matches!(run.kind, ProtocolKind::Afdd));
                let h = s.elections - fdd * s.slot_iterations;
                assert!((1..=demands.demanded_links().count() as u64 + 1).contains(&h));
                let case = format!("{:?}, C = {channels}, seed {seed}", run.kind);
                assert_eq!(s.handshake_steps, channels * s.slot_iterations, "{case}");
                assert_eq!(
                    s.sync_steps,
                    2 * h + 3 * s.slot_iterations + s.rounds,
                    "{case}"
                );
                assert_eq!(
                    s.scream_invocations,
                    h * (id_bits + 1)
                        + s.rounds
                        + 2 * s.slot_iterations
                        + fdd * id_bits * s.slot_iterations
                        + afdd * s.slot_iterations
                        + channel_bits * run.schedule.total_transmissions(),
                    "{case}"
                );
                assert_eq!(
                    run.timing,
                    ProtocolTiming {
                        scream_slots: s.scream_invocations * k as u64,
                        handshake_slots: s.handshake_steps,
                        sync_steps: s.sync_steps,
                    },
                    "{case}"
                );
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 36);
}

/// The runtime's batched claim check — `probe_claims` on one channel — agrees
/// with the oracle's per-participant handshakes on shadowed instances, even
/// when links share endpoints (where the SINR interferer-exclusion rules
/// apply and only the half-duplex screen refuses a claim), and every link of
/// a force-assigned set reports the handshake health the oracle computes.
#[test]
fn ledger_probe_matches_handshake_ok() {
    for_cases("ledger_probe_matches_handshake_ok", CASES, |draw| {
        let (nodes, seed) = (draw.gen_range(8usize..=20), draw.gen_range(0u64..5000));
        let sigma_db = draw.gen_range(0.0f64..6.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa5a5);
        let side = 140.0 * (nodes as f64).sqrt();
        let deployment = UniformDeployment::new(nodes, side).build(&mut rng);
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(sigma_db, seed)
            .build(&deployment);
        let oracle = Oracle::new(
            &deployment,
            env.config(),
            ShadowingField::generate(nodes, Db::new(sigma_db), seed),
        );

        // Random links, *not* filtered for feasibility or disjointness:
        // force-assign some, claim with the rest.
        let draw_link = |rng: &mut ChaCha8Rng| {
            let head = rng.gen_range(0..nodes as u32);
            let tail = (head + 1 + rng.gen_range(0..nodes as u32 - 1)) % nodes as u32;
            Link::new(NodeId::new(head), NodeId::new(tail))
        };
        let assigned: Vec<Link> = (0..4).map(|_| draw_link(&mut rng)).collect();
        let mut tentative: Vec<Link> = (0..3).map(|_| draw_link(&mut rng)).collect();
        tentative.dedup();

        let mut ledger = ChannelSlotLedger::new(&env);
        ledger.assign_all(ChannelId::ZERO, &assigned);
        let probe = ledger.probe_claims(&tentative);
        let participants: Vec<Link> = assigned.iter().chain(tentative.iter()).copied().collect();
        let existing: Vec<Option<bool>> = assigned
            .iter()
            .map(|&l| oracle.handshake(l, &participants))
            .collect();
        // Decisive verdicts only: a veto is decided by a decisive failure, or
        // by every assigned link decisively passing.
        let existing_ok = if existing.contains(&Some(false)) {
            Some(false)
        } else {
            existing.iter().all(Option::is_some).then_some(true)
        };
        if let Some(existing_ok) = existing_ok {
            assert_eq!(probe.existing_ok, existing_ok);
        }
        for (i, &t) in tentative.iter().enumerate() {
            let half_duplex_ok = assigned.iter().all(|l| !l.shares_endpoint(&t))
                && tentative
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == i || !other.shares_endpoint(&t));
            let claimed = match (existing_ok, oracle.handshake(t, &participants)) {
                (Some(false), _) => false,
                (Some(true), Some(own_ok)) => half_duplex_ok && own_ok,
                _ => continue,
            };
            assert_eq!(
                probe.assignments[i],
                claimed.then_some(ChannelId::ZERO),
                "claim {} among {:?} + {:?}",
                t,
                assigned,
                tentative
            );
        }
        // Slot health of the force-assigned set alone, link by link.
        let health: Vec<bool> = ledger
            .margins(ChannelId::ZERO)
            .iter()
            .map(LinkSinrMargin::ok)
            .collect();
        let expected: Vec<Option<bool>> = assigned
            .iter()
            .map(|&l| oracle.handshake(l, &assigned))
            .collect();
        for (ok, expected) in health.iter().zip(&expected) {
            if let Some(expected) = expected {
                assert_eq!(ok, expected, "{assigned:?}");
            }
        }
        if expected.iter().all(Option::is_some) {
            assert_eq!(
                ledger.channel(ChannelId::ZERO).all_links_ok(),
                expected.iter().all(|&ok| ok == Some(true))
            );
        }
        assert_eq!(
            oracle.undecided(),
            0,
            "a drawn instance the oracle cannot decide"
        );
    });
}

/// One verdict whatever the order, at the feasibility boundary itself. A
/// victim link and six interferers (20 dBm, 25–60 m links, interferers
/// 150–400 m out); one interferer slides along x, and its x is bisected to
/// the last ulp at which the seven-link slot changes verdict, then every
/// float within 16 ulps of that boundary is tried. At each, the default and
/// the exact ledger must give the slot one `slot_feasible` verdict under
/// every assignment order tried, and the unit-demand frame `GreedyPhysical`
/// builds under each `EdgeOrdering` must pass its own verifier. The oracle
/// is asked too: it may call these slots too close (the count is printed,
/// not asserted), and must agree wherever it does not.
#[test]
fn one_verdict_whatever_the_order_at_the_feasibility_boundary() {
    const ULPS: u64 = 16;
    const SHUFFLES: usize = 24;
    let orderings = [
        EdgeOrdering::DecreasingHeadId,
        EdgeOrdering::IncreasingHeadId,
        EdgeOrdering::DecreasingDemand,
        EdgeOrdering::IncreasingDemand,
    ];
    let links: Vec<Link> = (0..7u32)
        .map(|i| Link::new(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
        .collect();
    let unit: Vec<(Link, u64)> = links.iter().map(|&l| (l, 1)).collect();
    let demands = LinkDemands::from_links(14, &unit).unwrap();
    let (mut boundaries, mut fills, mut flips, mut frames, mut rejected) = (0, 0, 0, 0, 0);
    let mut undecided = 0;
    for_cases(
        "one_verdict_whatever_the_order_at_the_feasibility_boundary",
        500,
        |draw| {
            let mut polar = |from: Point2, r: std::ops::Range<f64>| {
                let (sin, cos) = draw.gen_range(0.0..std::f64::consts::TAU).sin_cos();
                let r = draw.gen_range(r);
                Point2::new(from.x + r * cos, from.y + r * sin)
            };
            let origin = Point2::new(5_000.0, 5_000.0);
            let mut pairs = vec![[origin, polar(origin, 25.0..60.0)]];
            for _ in 0..6 {
                let head = polar(origin, 150.0..400.0);
                pairs.push([head, polar(head, 25.0..60.0)]);
            }
            // Any link may be the victim: ids decide the orders greedy and the
            // verifier sum in.
            let receiver_x = pairs[0][1].x;
            let slid_pair = pairs[draw.gen_range(1..7usize)];
            pairs.shuffle(draw);
            let slid = 2 * pairs.iter().position(|&p| p == slid_pair).unwrap();
            let positions: Vec<Point2> = pairs.concat();
            let tail_dx = positions[slid + 1].x - positions[slid].x;
            let at = |x: f64| {
                let mut moved = positions.clone();
                moved[slid].x = x;
                moved[slid + 1].x = x + tail_dx;
                let deployment =
                    Deployment::from_positions(&moved, 20.0, Rect::square(1e4)).unwrap();
                let env = RadioEnvironment::builder()
                    .propagation(PropagationModel::log_distance(3.0))
                    .build(&deployment);
                (deployment, env)
            };
            let feasible = |x: f64| SlotLedger::with_links(&at(x).1, &links).slot_feasible();

            // From level with the victim's receiver to 4 km clear of it.
            let (mut lo, mut hi) = (receiver_x, receiver_x + 4_000.0);
            let verdict_lo = feasible(lo);
            if verdict_lo == feasible(hi) {
                return;
            }
            boundaries += 1;
            loop {
                let mid = lo + (hi - lo) / 2.0;
                if mid == lo || mid == hi {
                    break;
                }
                if feasible(mid) == verdict_lo {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            for bits in lo.to_bits() - ULPS..=lo.to_bits() + ULPS {
                let (deployment, env) = at(f64::from_bits(bits));
                let verdict = SlotLedger::with_links(&env, &links).slot_feasible();
                let mut order = links.clone();
                for _ in 0..SHUFFLES {
                    order.shuffle(draw);
                    for mut ledger in [SlotLedger::new(&env), SlotLedger::exact(&env)] {
                        ledger.assign_all(&order);
                        fills += 1;
                        flips += usize::from(ledger.slot_feasible() != verdict);
                    }
                }
                for ordering in orderings {
                    let frame = GreedyPhysical::new(ordering).schedule(&env, &demands);
                    frames += 1;
                    rejected += usize::from(verify_schedule(&env, &frame, &demands).is_err());
                }
                let oracle = Oracle::unshadowed(&deployment, env.config());
                if let Some(expected) = oracle.slot(&links) {
                    assert_eq!(verdict, expected, "the oracle decided otherwise");
                }
                undecided += oracle.undecided();
            }
        },
    );
    let positions = boundaries * (2 * ULPS as usize + 1);
    eprintln!(
        "{boundaries} boundaries: {flips} of {fills} fills flipped, {rejected} of {frames} \
         greedy frames rejected, {undecided} of {positions} slots too close for the oracle"
    );
    assert!(
        boundaries >= 16,
        "only {boundaries} geometries had a boundary"
    );
    assert_eq!((flips, rejected), (0, 0));
}

/// The spatially-pruned ledger is decision-for-decision identical to the
/// exact ledger — `can_add` verdicts, accumulated links, margins, slot
/// feasibility and claim checks — on random instances across β, shadowing
/// and channel counts, and both agree with the oracle on the slot they
/// built and on further probes of it. Pruning is forced (the instances are
/// smaller than the far-field cutoff disc, where the default constructor
/// would skip the index), so every conservative screen is exercised against
/// its exact fallback.
#[test]
fn pruned_ledger_matches_exact_ledger() {
    for_cases("pruned_ledger_matches_exact_ledger", CASES, |draw| {
        let (nodes, seed) = (draw.gen_range(8usize..=24), draw.gen_range(0u64..5000));
        let sigma_db = draw.gen_range(0.0f64..8.0);
        let beta_db = draw.gen_range(4.0f64..12.0);
        let channel_count = draw.gen_range(1usize..=3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9d2e);
        let side = 150.0 * (nodes as f64).sqrt();
        let deployment = UniformDeployment::new(nodes, side).build(&mut rng);
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(sigma_db, seed)
            .config(
                RadioConfig::mesh_default()
                    .with_sinr_threshold_db(beta_db)
                    .with_channel_count(channel_count),
            )
            .build(&deployment);
        let oracle = Oracle::new(
            &deployment,
            env.config(),
            ShadowingField::generate(nodes, Db::new(sigma_db), seed),
        );
        let draw_link = |rng: &mut ChaCha8Rng| {
            let head = rng.gen_range(0..nodes as u32);
            let tail = (head + 1 + rng.gen_range(0..nodes as u32 - 1)) % nodes as u32;
            Link::new(NodeId::new(head), NodeId::new(tail))
        };

        let mut pruned = SlotLedger::pruned(&env);
        let mut exact = SlotLedger::exact(&env);
        assert!(pruned.is_pruned());
        for _ in 0..24 {
            let candidate = draw_link(&mut rng);
            let verdict = pruned.can_add(candidate);
            assert_eq!(
                verdict,
                exact.can_add(candidate),
                "can_add diverged for {} with beta {} dB, sigma {} dB",
                candidate,
                beta_db,
                sigma_db
            );
            if verdict {
                pruned.assign(candidate);
                exact.assign(candidate);
            }
        }
        // Assign stays exact in both, so the accumulated state is bitwise
        // identical — margins and feasibility included — and the oracle
        // agrees with the slot both built and with three more probes of it.
        assert_eq!(pruned.links(), exact.links());
        assert_eq!(pruned.margins(), exact.margins());
        assert_eq!(pruned.slot_feasible(), exact.slot_feasible());
        if let Some(feasible) = oracle.slot(pruned.links()) {
            assert_eq!(pruned.slot_feasible(), feasible);
        }
        for candidate in (0..3).map(|_| draw_link(&mut rng)) {
            let with_candidate: Vec<Link> =
                pruned.links().iter().copied().chain([candidate]).collect();
            let expected = oracle.slot(&with_candidate);
            assert_eq!(pruned.can_add(candidate), exact.can_add(candidate));
            if let Some(fits) = expected {
                assert_eq!(pruned.can_add(candidate), fits, "{candidate}");
            }
        }
        assert_eq!(
            oracle.undecided(),
            0,
            "a drawn instance the oracle cannot decide"
        );

        // The channel-set wrapper inherits the equivalence on every channel.
        let mut pruned_set = ChannelSlotLedger::pruned(&env);
        let mut exact_set = ChannelSlotLedger::exact(&env);
        for i in 0..24 {
            let candidate = draw_link(&mut rng);
            let channel = ChannelId::new((i % channel_count) as u16);
            let verdict = pruned_set.can_add(channel, candidate);
            assert_eq!(verdict, exact_set.can_add(channel, candidate));
            if verdict {
                pruned_set.assign(channel, candidate);
                exact_set.assign(channel, candidate);
            }
        }
        let claims: Vec<Link> = (0..3).map(|_| draw_link(&mut rng)).collect();
        assert_eq!(
            pruned_set.probe_claims(&claims),
            exact_set.probe_claims(&claims)
        );
    });
}

/// The handshake's two directions are one condition: the data sub-slot of
/// `(u, v)` is the ACK sub-slot of `(v, u)` — the same transmitter, the same
/// receiver, the other links' terms in the same order. Reversing every link
/// of a slot therefore swaps each link's data and ACK margins bit for bit and
/// moves no `can_add` or `slot_feasible` verdict, on shadowed instances and
/// on heterogeneous-power ones (where a link's two directions differ), for
/// the default and the pruned ledger alike. Links are drawn unfiltered, so
/// self-links, shared endpoints and duplicates are in the slots too.
#[test]
fn reversing_every_link_swaps_the_handshake_directions() {
    for_cases(
        "reversing_every_link_swaps_the_handshake_directions",
        CASES,
        |draw| {
            let (nodes, seed) = (draw.gen_range(8usize..=24), draw.gen_range(0u64..5000));
            let mut placement = UniformDeployment::new(nodes, 150.0 * (nodes as f64).sqrt());
            let mut builder = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .config(
                    RadioConfig::mesh_default().with_sinr_threshold_db(draw.gen_range(4.0..12.0)),
                );
            if draw.gen_bool(0.5) {
                builder = builder.shadowing(draw.gen_range(0.0..8.0), seed);
            } else {
                placement = placement.heterogeneous_power(draw.gen_range(2.0..10.0));
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2e7e);
            let env = builder.build(&placement.build(&mut rng));
            let draw_link = |rng: &mut ChaCha8Rng| {
                let [head, tail] = [0; 2].map(|_| NodeId::new(rng.gen_range(0..nodes as u32)));
                Link::new(head, tail)
            };
            let links: Vec<Link> = (0..rng.gen_range(1..=10))
                .map(|_| draw_link(&mut rng))
                .collect();
            let reversed: Vec<Link> = links.iter().map(Link::reversed).collect();

            let (forward, backward) = (
                SlotLedger::with_links(&env, &links),
                SlotLedger::with_links(&env, &reversed),
            );
            let bits = |db: Db| db.get().to_bits();
            for (f, b) in forward.margins().iter().zip(&backward.margins()) {
                assert_eq!(b.link, f.link.reversed());
                assert_eq!(bits(b.data_margin_db), bits(f.ack_margin_db), "{links:?}");
                assert_eq!(bits(b.ack_margin_db), bits(f.data_margin_db), "{links:?}");
            }
            assert_eq!(forward.slot_feasible(), backward.slot_feasible());

            for pruned in [false, true] {
                let open = || match pruned {
                    false => SlotLedger::new(&env),
                    true => SlotLedger::pruned(&env),
                };
                let (mut forward, mut backward) = (open(), open());
                forward.assign_all(&links);
                backward.assign_all(&reversed);
                for _ in 0..16 {
                    let candidate = draw_link(&mut rng);
                    assert_eq!(
                        forward.can_add(candidate),
                        backward.can_add(candidate.reversed()),
                        "{candidate} against {links:?}"
                    );
                }
            }
        },
    );
}

/// Greedy schedules are byte-identical whether feasibility runs through
/// the default (spatially pruned) environment accumulators or through
/// [`ExactPhysical`]'s pruning-disabled ledgers — the schedule-level
/// guarantee behind the committed pruned-vs-exact scale benchmark.
#[test]
fn greedy_schedules_do_not_depend_on_pruning() {
    for_cases("greedy_schedules_do_not_depend_on_pruning", CASES, |draw| {
        let (nodes, seed) = small_instance(draw);
        if let Some((env, link_demands)) = build_connected(nodes, seed) {
            let pruned = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
            let exact =
                GreedyPhysical::paper_baseline().schedule(&ExactPhysical(&env), &link_demands);
            assert_eq!(pruned, exact);
        }
    });
}

/// Fault injection is reproducible end to end: the same `ChurnConfig`
/// and seed draw a byte-identical `ChurnTrace`, and replaying that trace
/// through two fresh `ResilienceHarness` runs under the same run seed
/// yields byte-identical `ResilienceReport`s — structural equality *and*
/// the rendered `Debug` form, so no hidden field can drift.
#[test]
fn churn_traces_and_resilience_reports_are_seed_deterministic() {
    for_cases(
        "churn_traces_and_resilience_reports_are_seed_deterministic",
        CASES,
        |draw| {
            let churn_seed = draw.gen_range(0u64..5000);
            let run_seed = draw.gen_range(0u64..5000);
            let rho = draw.gen_range(0.5f64..0.8);
            let deployment = GridDeployment::new(4, 4, 200.0).build();
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
            let config = ChurnConfig {
                horizon_slots: 600,
                link_failures: 2,
                node_failures: 1,
                flow_churns: 1,
                fades: 1,
                mean_outage_slots: 60.0,
                fade_sigma_db: 2.0,
            };
            let draw = || {
                FaultPlan::new()
                    .random_churn(config, &links, &nodes, churn_seed)
                    .build()
            };
            let (trace_a, trace_b) = (draw(), draw());
            assert_eq!(&trace_a, &trace_b);
            assert_eq!(format!("{trace_a:?}"), format!("{trace_b:?}"));

            let run = |trace: &ChurnTrace| {
                ResilienceHarness::new(env.clone(), gateways.clone(), demands.clone(), rho)
                    .run(trace, 600, run_seed)
                    .expect("the grid world offers traffic over a positive horizon")
            };
            let (report_a, report_b) = (run(&trace_a), run(&trace_b));
            assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
            assert_eq!(report_a, report_b);
        },
    );
}

/// Insertion-order independence of the fault pipeline (the D1 invariant
/// from the *input* side): a hand-placed `FaultPlan` whose events are
/// inserted in a shuffled order builds a byte-identical `ChurnTrace`,
/// and replaying it yields a byte-identical `ResilienceReport`. Events
/// use distinct slots because same-slot ties are defined to keep the
/// listed order (stable sort).
#[test]
fn churn_traces_ignore_event_insertion_order() {
    for_cases("churn_traces_ignore_event_insertion_order", CASES, |draw| {
        let shuffle_seed = draw.gen_range(0u64..5000);
        let run_seed = draw.gen_range(0u64..5000);
        let deployment = GridDeployment::new(4, 4, 200.0).build();
        let env = RadioEnvironment::builder().build(&deployment);
        let gateways = deployment.corner_nodes();
        let demands = DemandVector::from_vec(
            (0..deployment.len() as u32)
                .map(|i| u32::from(!gateways.contains(&NodeId::new(i))))
                .collect(),
        );
        let graph = env.communication_graph();
        let links: Vec<Link> = graph.edges().map(|(u, v)| Link::new(u, v)).collect();
        let victim_node = NodeId::new(5);
        let churn_node = NodeId::new(6);
        let events: Vec<(u64, FaultKind)> = vec![
            (100, FaultKind::LinkDown(links[0])),
            (160, FaultKind::NodeDown(victim_node)),
            (220, FaultKind::FlowStop(churn_node)),
            (
                260,
                FaultKind::Fade {
                    sigma_db: 3.0,
                    seed: 17,
                },
            ),
            (300, FaultKind::LinkUp(links[0])),
            (360, FaultKind::NodeUp(victim_node)),
            (420, FaultKind::FlowStart(churn_node)),
        ];
        let mut shuffled = events.clone();
        shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));
        let build = |order: &[(u64, FaultKind)]| {
            order
                .iter()
                .fold(FaultPlan::new(), |plan, &(slot, kind)| plan.at(slot, kind))
                .build()
        };
        let (trace_a, trace_b) = (build(&events), build(&shuffled));
        assert_eq!(&trace_a, &trace_b);
        assert_eq!(format!("{trace_a:?}"), format!("{trace_b:?}"));

        let run = |trace: &ChurnTrace| {
            ResilienceHarness::new(env.clone(), gateways.clone(), demands.clone(), 0.6)
                .run(trace, 600, run_seed)
                .expect("the grid world offers traffic over a positive horizon")
        };
        let (report_a, report_b) = (run(&trace_a), run(&trace_b));
        assert_eq!(format!("{report_a:?}"), format!("{report_b:?}"));
        assert_eq!(report_a, report_b);
    });
}

/// Insertion-order independence of scheduling: shuffling the link list
/// fed to `LinkDemands::from_links` changes neither the greedy schedule
/// (every `EdgeOrdering`, made total here by distinct heads and distinct
/// demands) nor the repaired schedule toward a shifted target.
#[test]
fn greedy_and_repair_ignore_demand_insertion_order() {
    for_cases(
        "greedy_and_repair_ignore_demand_insertion_order",
        CASES,
        |draw| {
            let (nodes, seed) = (draw.gen_range(8usize..=18), draw.gen_range(0u64..5000));
            let shuffle_seed = draw.gen_range(0u64..5000);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0bad);
            let side = 140.0 * (nodes as f64).sqrt();
            let deployment = UniformDeployment::new(nodes, side).build(&mut rng);
            let env = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .build(&deployment);
            // Unique heads and pairwise-distinct demands: every ordering
            // criterion is a total order, so identical schedules are byte
            // reproducible regardless of the input permutation.
            let links: Vec<(Link, u64)> = (0..nodes as u32 / 2)
                .map(|i| {
                    (
                        Link::new(NodeId::new(2 * i + 1), NodeId::new(2 * i)),
                        10 + 7 * i as u64,
                    )
                })
                .collect();
            let mut shuffled = links.clone();
            shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));
            let demands_a = LinkDemands::from_links(nodes, &links).unwrap();
            let demands_b = LinkDemands::from_links(nodes, &shuffled).unwrap();
            for ordering in [
                EdgeOrdering::DecreasingHeadId,
                EdgeOrdering::IncreasingHeadId,
                EdgeOrdering::DecreasingDemand,
                EdgeOrdering::IncreasingDemand,
            ] {
                let a = GreedyPhysical::new(ordering).schedule(&env, &demands_a);
                let b = GreedyPhysical::new(ordering).schedule(&env, &demands_b);
                assert_eq!(&a, &b, "greedy diverged under ordering {:?}", ordering);
            }
            // Repair toward a shifted target (demands scaled, one link dropped)
            // built from both permutations of the same target list.
            let schedule = GreedyPhysical::paper_baseline().schedule(&env, &demands_a);
            let target_links: Vec<(Link, u64)> =
                links.iter().skip(1).map(|&(l, d)| (l, d * 2 - 5)).collect();
            let mut target_shuffled = target_links.clone();
            target_shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed ^ 0xfee1));
            let target_a = LinkDemands::from_links(nodes, &target_links).unwrap();
            let target_b = LinkDemands::from_links(nodes, &target_shuffled).unwrap();
            let repaired_a = repair_schedule(&env, &schedule, &target_a);
            let repaired_b = repair_schedule(&env, &schedule, &target_b);
            assert_eq!(&repaired_a.schedule, &repaired_b.schedule);
            assert_eq!(repaired_a.outcome, repaired_b.outcome);
        },
    );
}

/// Insertion-order independence of the traffic engine: single-hop flows
/// on disjoint links with deterministic arrivals produce the same
/// aggregate measurements whatever order the flows are listed in.
/// Arrival rates are exact binary fractions so float aggregation cannot
/// drift with summation order; `link_loads` keeps first-appearance
/// order, so it is compared as a sorted set. (`peak_backlog` is the one
/// field excluded: it samples the global in-flight count mid-instant,
/// so same-instant event ties can move it by a transient ±1.)
#[test]
fn traffic_reports_ignore_flow_insertion_order() {
    for_cases(
        "traffic_reports_ignore_flow_insertion_order",
        CASES,
        |draw| {
            let shuffle_seed = draw.gen_range(0u64..5000);
            let flow_count = draw.gen_range(3usize..=6);
            let links: Vec<Link> = (0..flow_count as u32)
                .map(|i| Link::new(NodeId::new(2 * i + 1), NodeId::new(2 * i)))
                .collect();
            // One slot per link, repeating: every flow gets 1/frame service.
            let schedule = Schedule::from_runs(links.iter().map(|&l| (vec![l], 1)));
            let arrivals: Vec<(Link, ArrivalProcess)> = links
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    // Distinct exact-binary rates: 1/16, 1/32, 1/64, ...
                    (l, ArrivalProcess::deterministic(1.0 / (16u32 << i) as f64))
                })
                .collect();
            let mut shuffled = arrivals.clone();
            shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));
            let run = |order: Vec<(Link, ArrivalProcess)>| {
                TrafficEngine::on_schedule(
                    &schedule,
                    FlowSet::single_hop(order),
                    TrafficConfig::new(64),
                )
                .expect("non-degenerate engine")
                .run()
            };
            let (a, b) = (run(arrivals), run(shuffled));
            assert_eq!(a.frame_slots, b.frame_slots);
            assert_eq!(a.horizon_slots, b.horizon_slots);
            assert_eq!(a.flow_count, b.flow_count);
            assert_eq!(a.offered_per_slot, b.offered_per_slot);
            assert_eq!(a.injected, b.injected);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.final_backlog, b.final_backlog);
            assert_eq!(
                a.sustained_throughput_per_slot,
                b.sustained_throughput_per_slot
            );
            assert_eq!(a.delay, b.delay);
            assert_eq!(&a.verdict, &b.verdict);
            let sorted_loads = |r: &TrafficReport| {
                let mut loads = r.link_loads.clone();
                loads.sort_by_key(|l| l.link);
                loads
            };
            assert_eq!(sorted_loads(&a), sorted_loads(&b));
        },
    );
}

/// Demand scaling: under FDD and AFDD a round is a function of the controller
/// and the pending set, so multiplying every demand by `k` multiplies every
/// run of the schedule by `k` and changes nothing else — the same patterns in
/// the same order, the same rounds *simulated*, and every cost affine in `k`
/// (the hand-over elections are the constant term). The instances are a
/// fixed list, so the loop draws nothing.
#[test]
fn scaling_every_demand_scales_multiplicities_and_nothing_else() {
    let mut cases = 0;
    for seed in 0..24u64 {
        let nodes = 6 + (seed as usize * 5) % 15;
        for channels in [1usize, 2] {
            let Some((env, demands)) = build_connected_on_channels(nodes, seed, channels) else {
                continue;
            };
            let config = ProtocolConfig::paper_default()
                .with_scream_slots(env.interference_diameter().max(1));
            for scheduler in [DistributedScheduler::fdd(), DistributedScheduler::afdd()] {
                let [(one, executed), (two, executed_2), (three, executed_3)] =
                    [1u64, 2, 3].map(|k| {
                        let links: Vec<(Link, u64)> =
                            demands.demanded_links().map(|(l, d)| (l, d * k)).collect();
                        let scaled = LinkDemands::from_links(nodes, &links)
                            .expect("scaling keeps the instance well formed");
                        scream::obs::install();
                        let run = scheduler.with_config(config).run(&env, &scaled);
                        let observed = scream::obs::uninstall().expect("installed above");
                        let run = run.expect("the runtime completes");
                        verify_schedule(&env, &run.schedule, &scaled)
                            .expect("the scaled schedule verifies");
                        (run, observed.snapshot.counter("runtime.rounds.executed"))
                    });
                assert_eq!(executed, one.schedule.pattern_count() as u64);
                assert_eq!([executed_2, executed_3], [executed; 2]);
                for (k, run) in [(2, &two), (3, &three)] {
                    let expected: Vec<(SlotPattern, u64)> = one
                        .schedule
                        .runs()
                        .map(|(pattern, multiplicity)| (pattern.clone(), multiplicity * k))
                        .collect();
                    assert_eq!(run.schedule, Schedule::from_pattern_runs(expected));
                }
                let costs = |run: &DistributedRun| {
                    let (t, s) = (run.timing, run.stats);
                    assert!(s.terminated);
                    [
                        t.scream_slots,
                        t.handshake_slots,
                        t.sync_steps,
                        s.rounds,
                        s.slot_iterations,
                        s.elections,
                        s.scream_invocations,
                        s.handshake_steps,
                        s.vetoes,
                        s.tried_transitions,
                    ]
                };
                let (c1, c2, c3) = (costs(&one), costs(&two), costs(&three));
                for field in 0..c1.len() {
                    assert_eq!(
                        c3[field] - c2[field],
                        c2[field] - c1[field],
                        "cost {field} is not affine in the demand scale (seed {seed}, C = {channels})"
                    );
                }
                cases += 1;
            }
        }
    }
    assert!(cases >= 40, "only {cases} connected cases were drawn");
}
