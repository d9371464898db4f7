//! The centralized GreedyPhysical scheduling algorithm.
//!
//! GreedyPhysical is the polynomial-time, approximation-bounded centralized
//! scheduler from the authors' MobiCom 2006 paper \[4\], which this paper
//! uses both as the evaluation baseline ("Centralized" in Figures 6 and 7)
//! and as the reference point of Theorem 4: the FDD protocol recreates the
//! exact schedule GreedyPhysical computes when edges are considered in
//! decreasing order of their head node's id.
//!
//! The algorithm considers edges one at a time in a fixed order; for every
//! unit of demand on the current edge it scans the slots built so far and
//! places the transmission in the first slot that remains feasible with the
//! edge added, appending a fresh slot if none works (first-fit greedy).

use serde::{Deserialize, Serialize};

use scream_topology::{Link, LinkDemands};

use crate::feasibility::SlotFeasibility;
use crate::placement::OpenRuns;
use crate::schedule::Schedule;

/// Order in which GreedyPhysical considers the edges.
///
/// The approximation bound of \[4\] holds for any initial ordering; the
/// ordering only matters when comparing against a distributed execution
/// (FDD ≡ GreedyPhysical requires decreasing head-id order, Theorem 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EdgeOrdering {
    /// Decreasing id of the edge's head node — the order FDD realizes through
    /// repeated leader election.
    #[default]
    DecreasingHeadId,
    /// Increasing id of the edge's head node.
    IncreasingHeadId,
    /// Decreasing aggregated demand (longest-processing-time-first flavour),
    /// breaking ties by decreasing head id.
    DecreasingDemand,
    /// Increasing aggregated demand, breaking ties by increasing head id.
    IncreasingDemand,
}

impl EdgeOrdering {
    /// Sorts `(link, demand)` pairs according to this ordering.
    pub fn sort(&self, edges: &mut [(Link, u64)]) {
        match self {
            EdgeOrdering::DecreasingHeadId => {
                edges.sort_by_key(|e| std::cmp::Reverse(e.0.head));
            }
            EdgeOrdering::IncreasingHeadId => {
                edges.sort_by_key(|a| a.0.head);
            }
            EdgeOrdering::DecreasingDemand => {
                edges.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.head.cmp(&a.0.head)));
            }
            EdgeOrdering::IncreasingDemand => {
                edges.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.head.cmp(&b.0.head)));
            }
        }
    }
}

/// The centralized greedy first-fit scheduler for the physical interference
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GreedyPhysical {
    ordering: EdgeOrdering,
}

impl GreedyPhysical {
    /// Creates a scheduler with the given edge ordering.
    pub fn new(ordering: EdgeOrdering) -> Self {
        Self { ordering }
    }

    /// The scheduler used as the paper's baseline (decreasing head-id order,
    /// matching FDD).
    pub fn paper_baseline() -> Self {
        Self::new(EdgeOrdering::DecreasingHeadId)
    }

    /// Computes a feasible schedule satisfying every link's demand under the
    /// given interference model.
    ///
    /// The returned schedule allocates exactly `demand(e)` slots to every
    /// demanded link `e`, and every slot is feasible under `model` (both
    /// properties are checked by `verify_schedule` in this crate's tests and
    /// the integration tests).
    ///
    /// # Batched placement
    ///
    /// First-fit is executed at the granularity of **runs** of identical slot
    /// patterns rather than individual slots. Slots are mutually independent
    /// — assigning a link to one slot never changes another slot's
    /// feasibility for that link — so two consecutive slots with the same
    /// pattern accept or reject a candidate identically, and a whole run can
    /// be claimed (or skipped) with a *single* feasibility probe. Each link
    /// therefore costs O(#patterns · #channels) probes and leftover demand is
    /// appended as one run, making demand magnitude nearly free: the work and
    /// memory are O(#links · #patterns), independent of how many units each
    /// link demands. The probe itself stays O(k) through the model's stateful
    /// [`SlotAccumulator`](crate::feasibility::SlotAccumulator).
    ///
    /// # Channels
    ///
    /// When the model provides several orthogonal channels
    /// ([`SlotFeasibility::channel_count`]), each unit of demand is first-fit
    /// into the cheapest `(slot, channel)` pair — slots scanned in order,
    /// channels scanned in increasing order within each slot — so a link
    /// rejected by a channel's accumulated interference lands on the first
    /// orthogonal channel (of the same slot) that still accepts it, and the
    /// schedule length shrinks roughly by the channel count on
    /// interference-limited instances. The cross-channel half-duplex rule
    /// (one radio per node) is enforced by the accumulator. With one channel
    /// the channel loop has one iteration and every pattern is untagged.
    ///
    /// Decision-for-decision equivalence with per-unit, from-scratch
    /// first-fit — one slot per unit of demand, `model.can_add` over plain
    /// link lists, no ledger and no accumulator — is pinned by the
    /// `batched_placement_matches_per_unit` property test (the reference
    /// lives in `tests/properties.rs`) for every [`EdgeOrdering`] and
    /// `C ∈ {1, 2, 3}`, and the FDD ≡ GreedyPhysical suite (Theorem 4)
    /// carries it to the distributed runtime.
    pub fn schedule<M: SlotFeasibility>(&self, model: &M, demands: &LinkDemands) -> Schedule {
        let mut edges: Vec<(Link, u64)> = demands.demanded_links().collect();
        self.ordering.sort(&mut edges);
        let mut runs = OpenRuns::new(model);
        for (link, demand) in edges {
            let placed = runs.place(link, demand);
            // Per-link probe profile (free when no sink is installed).
            scream_obs::counter_add("greedy.links", 1);
            scream_obs::counter_add("greedy.runs.probed", placed.probed);
            scream_obs::counter_add("greedy.runs.rejected", placed.rejected);
            scream_obs::counter_add("greedy.runs.skipped", placed.skipped);
            if placed.split {
                scream_obs::counter_add("greedy.splits", 1);
            }
            if placed.solo {
                scream_obs::counter_add("greedy.solo_runs", 1);
            }
            scream_obs::observe("greedy.firstfit.depth", placed.first_fit_depth);
            scream_obs::event(
                "greedy.link",
                [
                    ("head", link.head.index() as u64),
                    ("tail", link.tail.index() as u64),
                    ("probed", placed.probed),
                    ("rejected", placed.rejected),
                ],
            );
        }
        let schedule = runs.into_schedule();
        scream_obs::gauge_set("greedy.schedule.length", schedule.length() as u64);
        scream_obs::gauge_set("greedy.schedule.patterns", schedule.pattern_count() as u64);
        scream_obs::set_slot(schedule.length() as u64);
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::ProtocolModel;
    use crate::verify::verify_schedule;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use scream_netsim::{PropagationModel, RadioEnvironment};
    use scream_topology::{
        DemandConfig, DemandVector, Deployment, GridDeployment, Meters, NodeId, RoutingForest,
        UnitDiskGraphBuilder,
    };

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// A permissive model that only enforces the shared-endpoint rule —
    /// convenient for exercising the packing logic deterministically.
    struct EndpointOnly;
    impl SlotFeasibility for EndpointOnly {
        fn slot_feasible(&self, links: &[Link]) -> bool {
            for (i, a) in links.iter().enumerate() {
                for b in links.iter().skip(i + 1) {
                    if a.shares_endpoint(b) {
                        return false;
                    }
                }
            }
            true
        }
    }

    fn grid_instance(side: usize, step: f64, seed: u64) -> (RadioEnvironment, LinkDemands) {
        let d: Deployment = GridDeployment::new(side, side, step).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&graph, &gws, seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gws, &mut rng);
        let ld = LinkDemands::aggregate(&forest, &demands).unwrap();
        (env, ld)
    }

    #[test]
    fn ordering_sorts_as_documented() {
        let mut edges = vec![(link(2, 0), 5), (link(7, 0), 1), (link(4, 0), 3)];
        EdgeOrdering::DecreasingHeadId.sort(&mut edges);
        assert_eq!(
            edges.iter().map(|e| e.0.head.0).collect::<Vec<_>>(),
            vec![7, 4, 2]
        );
        EdgeOrdering::IncreasingHeadId.sort(&mut edges);
        assert_eq!(
            edges.iter().map(|e| e.0.head.0).collect::<Vec<_>>(),
            vec![2, 4, 7]
        );
        EdgeOrdering::DecreasingDemand.sort(&mut edges);
        assert_eq!(edges.iter().map(|e| e.1).collect::<Vec<_>>(), vec![5, 3, 1]);
        EdgeOrdering::IncreasingDemand.sort(&mut edges);
        assert_eq!(edges.iter().map(|e| e.1).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn single_link_demand_fills_exactly_that_many_slots() {
        let demands = LinkDemands::from_links(3, &[(link(1, 0), 4)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        assert_eq!(schedule.length(), 4);
        assert_eq!(schedule.allocation_counts()[&link(1, 0)], 4);
    }

    #[test]
    fn independent_links_share_slots() {
        // Two endpoint-disjoint links with equal demand pack perfectly.
        let demands = LinkDemands::from_links(4, &[(link(1, 0), 3), (link(3, 2), 3)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        assert_eq!(schedule.length(), 3);
        assert!((schedule.spatial_reuse() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conflicting_links_are_serialized() {
        // Links sharing node 1 can never coexist.
        let demands = LinkDemands::from_links(3, &[(link(1, 0), 2), (link(2, 1), 2)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        assert_eq!(schedule.length(), 4);
        verify_schedule(&EndpointOnly, &schedule, &demands).unwrap();
    }

    #[test]
    fn schedule_satisfies_demands_and_feasibility_on_grid_instance() {
        let (env, ld) = grid_instance(5, 200.0, 3);
        let schedule = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        verify_schedule(&env, &schedule, &ld).unwrap();
        // The greedy schedule must never be longer than full serialization.
        assert!(schedule.length() <= ld.total_demand() as usize);
        // And with 25 nodes spread over 800x800 m there must be some reuse.
        assert!(schedule.spatial_reuse() > 1.0);
    }

    #[test]
    fn heavy_demand_costs_patterns_not_slots() {
        // Two independent links and one conflicting neighbor, all with huge
        // demands: the schedule must be correct (exact allocation counts) and
        // compact (a handful of patterns for millions of slots).
        let demands = LinkDemands::from_links(
            6,
            &[
                (link(1, 0), 1_000_000),
                (link(3, 2), 700_000),
                (link(2, 1), 500_000),
            ],
        )
        .unwrap();
        let schedule =
            GreedyPhysical::new(EdgeOrdering::DecreasingDemand).schedule(&EndpointOnly, &demands);
        let counts = schedule.allocation_counts();
        assert_eq!(counts[&link(1, 0)], 1_000_000);
        assert_eq!(counts[&link(3, 2)], 700_000);
        assert_eq!(counts[&link(2, 1)], 500_000);
        verify_schedule(&EndpointOnly, &schedule, &demands).unwrap();
        assert!(
            schedule.pattern_count() <= 6,
            "expected O(#links) patterns, got {}",
            schedule.pattern_count()
        );
        // (1,0) ∥ (3,2) pack together; (2,1) conflicts with both.
        assert_eq!(schedule.length(), 1_000_000 + 500_000);
    }

    #[test]
    fn splitting_a_run_preserves_first_fit_order() {
        // Link A demands 5 (one solo run), then B (disjoint) demands 2: B
        // must land in the *first* two of A's five slots, exactly as a
        // per-unit scan would place it.
        let demands = LinkDemands::from_links(4, &[(link(1, 0), 5), (link(3, 2), 2)]).unwrap();
        let schedule =
            GreedyPhysical::new(EdgeOrdering::DecreasingDemand).schedule(&EndpointOnly, &demands);
        assert_eq!(schedule.length(), 5);
        assert_eq!(schedule.slot(0).unwrap().links(), &[link(1, 0), link(3, 2)]);
        assert_eq!(schedule.slot(1).unwrap().links(), &[link(1, 0), link(3, 2)]);
        assert_eq!(schedule.slot(2).unwrap().links(), &[link(1, 0)]);
    }

    #[test]
    fn schedule_is_deterministic() {
        let (env, ld) = grid_instance(4, 200.0, 9);
        let a = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        let b = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        assert_eq!(a, b);
    }

    #[test]
    fn different_orderings_still_produce_valid_schedules() {
        let (env, ld) = grid_instance(4, 200.0, 5);
        for ordering in [
            EdgeOrdering::DecreasingHeadId,
            EdgeOrdering::IncreasingHeadId,
            EdgeOrdering::DecreasingDemand,
            EdgeOrdering::IncreasingDemand,
        ] {
            let schedule = GreedyPhysical::new(ordering).schedule(&env, &ld);
            verify_schedule(&env, &schedule, &ld)
                .unwrap_or_else(|e| panic!("ordering {ordering:?} produced invalid schedule: {e}"));
        }
    }

    #[test]
    fn protocol_model_schedules_collide_under_sinr_while_physical_ones_do_not() {
        // The paper's argument against protocol-model (CSMA/CA-style)
        // scheduling is not that it always packs worse, but that its notion of
        // "non-conflicting" ignores aggregate interference: schedules it
        // accepts are not actually decodable under the physical model. Here
        // the greedy scheduler is run against both models on the same
        // instance; every slot of the physical-model schedule verifies under
        // SINR, while the protocol-model schedule contains slots that do not.
        let d = GridDeployment::new(6, 6, 150.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&graph, &gws, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gws, &mut rng);
        let ld = LinkDemands::aggregate(&forest, &demands).unwrap();

        let physical = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        verify_schedule(&env, &physical, &ld).unwrap();

        let protocol_model =
            ProtocolModel::new(UnitDiskGraphBuilder::new(Meters::new(260.0)).build(&d), 2);
        let protocol = GreedyPhysical::paper_baseline().schedule(&protocol_model, &ld);
        verify_schedule(&protocol_model, &protocol, &ld).unwrap();
        // Walk runs, not slots: each distinct pattern is SINR-checked once.
        let sinr_violations = protocol
            .runs()
            .filter(|(slot, _)| {
                slot.len() > 1 && !SlotFeasibility::slot_feasible(&env, slot.links())
            })
            .count();
        assert!(
            sinr_violations > 0,
            "expected the protocol-model schedule to contain SINR-infeasible slots"
        );
    }

    #[test]
    fn multi_hop_grid_achieves_substantial_improvement_over_serialized() {
        // On a multi-hop grid with per-node demands, the physical-model
        // greedy must achieve a clearly non-trivial improvement over the
        // serialized schedule (Figure 6 reports tens of percent).
        let d = GridDeployment::new(6, 6, 150.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&graph, &gws, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gws, &mut rng);
        let ld = LinkDemands::aggregate(&forest, &demands).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        verify_schedule(&env, &schedule, &ld).unwrap();
        let metrics = crate::metrics::ScheduleMetrics::compute(&schedule, &ld);
        assert!(
            metrics.improvement_over_linear_pct > 20.0,
            "expected >20% improvement, got {:.1}%",
            metrics.improvement_over_linear_pct
        );
        assert!(metrics.spatial_reuse > 1.2);
    }

    #[test]
    fn orthogonal_channels_absorb_sinr_conflicts() {
        // Adjacent links on a 200 m line conflict under SINR on one channel;
        // with two channels the same two links share every slot, halving the
        // schedule.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let single = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let dual = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(scream_netsim::RadioConfig::mesh_default().with_channel_count(2))
            .build(&d);
        let demands = LinkDemands::from_links(8, &[(link(0, 1), 6), (link(2, 3), 6)]).unwrap();
        let on_one = GreedyPhysical::paper_baseline().schedule(&single, &demands);
        let on_two = GreedyPhysical::paper_baseline().schedule(&dual, &demands);
        verify_schedule(&single, &on_one, &demands).unwrap();
        verify_schedule(&dual, &on_two, &demands).unwrap();
        assert_eq!(on_one.length(), 12, "conflicting links serialize on C = 1");
        assert_eq!(
            on_two.length(),
            6,
            "orthogonal channels run them side by side"
        );
        assert_eq!(on_two.channels_used(), 2);
        assert!(on_two
            .runs()
            .all(|(p, _)| p.node_on_multiple_channels().is_none()));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test may expand a 4-slot schedule to look at every slot"
    )]
    fn channel_aware_schedule_respects_half_duplex_across_channels() {
        // Links sharing node 1 can never coexist, not even on different
        // channels: the cross-channel half-duplex rule keeps them apart and
        // the schedule stays fully serialized.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let dual = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(scream_netsim::RadioConfig::mesh_default().with_channel_count(2))
            .build(&d);
        let demands = LinkDemands::from_links(8, &[(link(0, 1), 2), (link(1, 2), 2)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&dual, &demands);
        verify_schedule(&dual, &schedule, &demands).unwrap();
        assert_eq!(schedule.length(), 4);
        assert!(schedule.slots().all(|slot| slot.len() == 1));
    }

    #[test]
    fn a_zero_channel_config_literal_schedules_and_verifies_as_one_channel() {
        // `RadioConfig::channel_count` is a public field, so a struct literal
        // bypasses `with_channel_count`'s check. The environment reads the
        // count as at least one, so the hostile literal behaves exactly like
        // the default single-channel configuration instead of panicking in
        // the ledger constructor.
        let (single, ld) = grid_instance(5, 180.0, 3);
        let hostile = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(scream_netsim::RadioConfig {
                channel_count: 0,
                ..scream_netsim::RadioConfig::mesh_default()
            })
            .build(&GridDeployment::new(5, 5, 180.0).build());
        assert_eq!(hostile.channel_count(), 1);
        let schedule = GreedyPhysical::paper_baseline().schedule(&hostile, &ld);
        verify_schedule(&hostile, &schedule, &ld).unwrap();
        assert_eq!(
            schedule,
            GreedyPhysical::paper_baseline().schedule(&single, &ld)
        );
    }

    #[test]
    fn zero_demand_instance_yields_empty_schedule() {
        let demands = LinkDemands::from_links(3, &[(link(1, 0), 0)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        assert!(schedule.is_empty());
    }
}
