//! Incremental run-level repair of a compact schedule after faults.
//!
//! When links die or demands shift (a rescheduling event), rebuilding the
//! whole frame with [`GreedyPhysical`] pays the full first-fit placement cost
//! for *every* link. Most of that work is wasted: a single link failure
//! leaves the vast majority of runs untouched. [`repair_schedule`] instead
//! patches the existing run-length schedule in two passes —
//!
//! 1. **keep**, in one forward pass over the runs: in slot order, each
//!    target link keeps its first `demand` slots of the stale frame, on
//!    channels the model has, and every other entry goes. Slot patterns are
//!    downward-closed under the physical model, so removing a transmitter
//!    never invalidates a feasible pattern;
//! 2. **place** the deficits, in the paper's decreasing-head-id order, with
//!    exactly the batched first-fit probing [`GreedyPhysical`] uses
//!    (whole-run assignment, run splitting via a rebuilt accumulator, solo
//!    runs for the remainder), but probing only the deficit links.
//!
//! The patched frame is then verified in full. Every run's accumulator —
//! each filled exactly once, the runs no pass touched included: the input may
//! be stale (a frame built before a fade replaced the gains), so an untouched
//! run is not a verified one — is read for feasibility, and every other check
//! of [`verify_schedule`](crate::verify::verify_schedule) runs on the output.
//! If one fails, the repair falls back to a full [`GreedyPhysical`] rebuild.
//! Either way the caller receives a schedule whose allocation exactly matches
//! the target, tagged with which path produced it.

use scream_topology::{Link, LinkDemands};

use crate::feasibility::SlotFeasibility;
use crate::greedy::GreedyPhysical;
use crate::placement::OpenRuns;
use crate::schedule::Schedule;
use crate::verify::verify_frame;

/// Which path produced the repaired schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum RepairOutcome {
    /// The existing runs were patched in place and the result verified.
    Incremental,
    /// The incremental patch failed verification; the schedule is a full
    /// [`GreedyPhysical`] rebuild against the target.
    Rebuilt,
}

/// A repaired schedule plus how it was obtained and how much changed.
#[derive(Debug, Clone)]
pub struct RepairedSchedule {
    /// The repaired frame; its allocation equals the target exactly and it
    /// passes [`verify_schedule`](crate::verify::verify_schedule) whenever
    /// the fallback rebuild does.
    pub schedule: Schedule,
    /// Which path produced it.
    pub outcome: RepairOutcome,
    /// Link-slot allocations of the input the keep rule dropped — its
    /// allocation less what was kept, saturating at `u64::MAX` (meaningful
    /// for the incremental path; 0 when rebuilt).
    pub removed_allocation: u64,
    /// Link-slot allocations the deficit pass placed — the target's total
    /// less what was kept, saturating at `u64::MAX` (0 when rebuilt).
    pub added_allocation: u64,
}

/// Repairs `schedule` so its allocation matches `target` exactly, patching
/// runs incrementally and falling back to a full [`GreedyPhysical`] rebuild
/// if the patched frame does not verify under `model`.
///
/// Deterministic: the same `(schedule, target)` pair always produces the
/// same repaired schedule (deficits are placed in the paper's
/// decreasing-head-id order).
pub fn repair_schedule<M: SlotFeasibility>(
    model: &M,
    schedule: &Schedule,
    target: &LinkDemands,
) -> RepairedSchedule {
    // `budget[v]`: the link `v` owns in the target and how many more stale
    // slots it may keep — its demand, spent by the keep pass; then its deficit.
    let mut budget: Vec<Option<(Link, u64)>> = vec![None; target.node_count()];
    for (link, demand) in target.demanded_links() {
        budget[link.head.index()] = Some((link, demand));
    }
    let left = |budget: &[Option<(Link, u64)>], link: Link| match budget.get(link.head.index()) {
        Some(&Some((owned, left))) if owned == link => left,
        _ => 0,
    };
    let channels = model.channel_count().max(1);

    // Keep: each run goes in as pieces that end where a kept link's budget
    // runs out (assignment only — no probing).
    let mut open_runs = OpenRuns::new(model);
    let mut kept = Vec::new();
    let mut removed: u64 = 0;
    for (pattern, count) in schedule.runs() {
        kept.clear();
        kept.extend(
            pattern
                .entries()
                .filter(|&(c, link)| c.index() < channels && left(&budget, link) > 0),
        );
        let mut rest = count;
        while rest > 0 {
            let piece = kept
                .iter()
                .map(|&(_, link)| left(&budget, link))
                .fold(rest, u64::min);
            let dropped = (pattern.len() - kept.len()) as u64;
            removed = removed.saturating_add(dropped.saturating_mul(piece));
            if !kept.is_empty() {
                open_runs.push_run(&kept, piece);
            }
            for &(_, link) in &kept {
                // Saturating: a link on two channels of one slot spends twice.
                if let Some((_, spare)) = &mut budget[link.head.index()] {
                    *spare = spare.saturating_sub(piece);
                }
            }
            kept.retain(|&(_, link)| left(&budget, link) > 0);
            rest -= piece;
        }
    }

    // Place: the leftover budgets are the deficits, highest head first.
    let mut added: u64 = 0;
    for &(link, deficit) in budget.iter().rev().flatten().filter(|(_, d)| *d > 0) {
        added = added.saturating_add(deficit);
        let placed = open_runs.place(link, deficit);
        scream_obs::counter_add("repair.refill.links", 1);
        scream_obs::counter_add("repair.runs.probed", placed.probed);
        scream_obs::counter_add("repair.runs.rejected", placed.rejected);
        scream_obs::counter_add("repair.runs.skipped", placed.skipped);
        scream_obs::counter_add("repair.runs.dropped", placed.dropped);
        if placed.solo {
            scream_obs::counter_add("repair.refill.solo_runs", 1);
        }
    }
    let feasible = open_runs.all_feasible();
    scream_obs::counter_add("repair.runs.filled", open_runs.len() as u64);
    let repaired = open_runs.into_schedule();

    scream_obs::counter_add("repair.stripped_allocation", removed);
    scream_obs::counter_add("repair.added_allocation", added);
    scream_obs::event("repair.patch", [("removed", removed), ("added", added)]);

    if feasible && verify_frame(model, &repaired, Some(target), None).is_ok() {
        scream_obs::counter_add("repair.outcome.incremental", 1);
        return RepairedSchedule {
            schedule: repaired,
            outcome: RepairOutcome::Incremental,
            removed_allocation: removed,
            added_allocation: added,
        };
    }
    scream_obs::counter_add("repair.outcome.rebuilt", 1);
    RepairedSchedule {
        schedule: GreedyPhysical::paper_baseline().schedule(model, target),
        outcome: RepairOutcome::Rebuilt,
        removed_allocation: 0,
        added_allocation: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;
    use scream_topology::NodeId;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// Shared-endpoint-only model (as in the greedy tests): deterministic
    /// packing without SINR noise.
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

    #[test]
    fn stripping_a_dead_link_shrinks_the_frame_and_verifies() {
        // (1,0) and (3,2) pack together; (2,1) conflicts with both.
        let demands =
            LinkDemands::from_links(6, &[(link(1, 0), 10), (link(3, 2), 10), (link(2, 1), 4)])
                .unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        assert_eq!(schedule.length(), 14);

        // Link (2,1) dies: the target drops it, nothing else changes.
        let target = LinkDemands::from_links(6, &[(link(1, 0), 10), (link(3, 2), 10)]).unwrap();
        let repaired = repair_schedule(&EndpointOnly, &schedule, &target);
        assert_eq!(repaired.outcome, RepairOutcome::Incremental);
        assert_eq!(repaired.removed_allocation, 4);
        assert_eq!(repaired.added_allocation, 0);
        assert!(!repaired
            .schedule
            .allocation_counts()
            .contains_key(&link(2, 1)));
        assert_eq!(repaired.schedule.length(), 10, "empty tail slots dropped");
        verify_schedule(&EndpointOnly, &repaired.schedule, &target).unwrap();
    }

    #[test]
    fn rerouted_demand_is_trimmed_and_placed_incrementally() {
        let demands = LinkDemands::from_links(6, &[(link(1, 0), 8), (link(3, 2), 5)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);

        // Reroute: (3,2) loses 3 units, (1,0) gains 3, and a new disjoint
        // link (5,4) appears with demand 6.
        let target =
            LinkDemands::from_links(6, &[(link(1, 0), 11), (link(3, 2), 2), (link(5, 4), 6)])
                .unwrap();
        let repaired = repair_schedule(&EndpointOnly, &schedule, &target);
        assert_eq!(repaired.outcome, RepairOutcome::Incremental);
        let counts = repaired.schedule.allocation_counts();
        for (l, d) in target.demanded_links() {
            assert_eq!(counts[&l], d, "allocation of {l}");
        }
        verify_schedule(&EndpointOnly, &repaired.schedule, &target).unwrap();
        // All three links are pairwise disjoint, so the frame is exactly the
        // longest single demand.
        assert_eq!(repaired.schedule.length(), 11);
    }

    /// A two-channel frame on a one-channel model: the channel-1 entry goes
    /// like a dead link's and its demand is placed again, on channel 0 —
    /// under the default accumulator and under the radio's ledger alike.
    #[test]
    fn an_entry_on_a_channel_the_model_lacks_is_dropped_and_placed_again() {
        use crate::schedule::SlotPattern;
        use scream_netsim::{ChannelId, RadioEnvironment};
        use scream_topology::GridDeployment;

        let (ch0, ch1) = (ChannelId::new(0), ChannelId::new(1));
        let mut stale = Schedule::new();
        stale.push_pattern_run(
            SlotPattern::from_entries([(ch0, link(1, 0)), (ch1, link(3, 2))]),
            2,
        );
        let target = LinkDemands::from_links(4, &[(link(1, 0), 2), (link(3, 2), 2)]).unwrap();
        let env = RadioEnvironment::builder().build(&GridDeployment::new(4, 1, 60.0).build());
        assert_eq!(env.channel_count(), 1);
        for repaired in [
            repair_schedule(&EndpointOnly, &stale, &target),
            repair_schedule(&env, &stale, &target),
        ] {
            assert_eq!(repaired.outcome, RepairOutcome::Incremental);
            assert_eq!(repaired.removed_allocation, 2);
            assert_eq!(repaired.added_allocation, 2);
            assert_eq!(repaired.schedule.channels_used(), 1);
        }
        verify_schedule(
            &env,
            &repair_schedule(&env, &stale, &target).schedule,
            &target,
        )
        .unwrap();
    }

    /// The allocation counts saturate instead of overflowing: dropping two
    /// links from a `u64::MAX`-slot run removes `2 · u64::MAX` link-slots,
    /// and placing two `u64::MAX` demands into nothing adds as many.
    #[test]
    fn allocation_counts_saturate_at_u64_max() {
        let mut stale = Schedule::new();
        stale.push_slot_run(vec![link(1, 0), link(3, 2)], u64::MAX);
        let dropped = repair_schedule(
            &EndpointOnly,
            &stale,
            &LinkDemands::from_links(4, &[]).unwrap(),
        );
        assert_eq!(dropped.outcome, RepairOutcome::Incremental);
        assert_eq!(dropped.removed_allocation, u64::MAX);
        assert!(dropped.schedule.is_empty());

        let target =
            LinkDemands::from_links(4, &[(link(1, 0), u64::MAX), (link(3, 2), u64::MAX)]).unwrap();
        let placed = repair_schedule(&EndpointOnly, &Schedule::new(), &target);
        assert_eq!(placed.outcome, RepairOutcome::Incremental);
        assert_eq!(placed.added_allocation, u64::MAX);
        assert_eq!(placed.schedule, stale);
    }

    #[test]
    fn an_unverifiable_input_falls_back_to_a_full_rebuild() {
        // Hand-build a frame whose only slot packs two conflicting links —
        // stale state the incremental patch preserves, so verification fails
        // and the repair must fall back to GreedyPhysical.
        let mut stale = Schedule::new();
        stale.push_slot_run(vec![link(1, 0), link(2, 1)], 3);
        let target = LinkDemands::from_links(4, &[(link(1, 0), 3), (link(2, 1), 3)]).unwrap();
        let repaired = repair_schedule(&EndpointOnly, &stale, &target);
        assert_eq!(repaired.outcome, RepairOutcome::Rebuilt);
        verify_schedule(&EndpointOnly, &repaired.schedule, &target).unwrap();
        assert_eq!(repaired.schedule.length(), 6, "conflicts serialized");
    }

    /// Which stale frame a case repairs, and what the property reached.
    #[derive(Default)]
    struct Reached {
        greedy_input: u32,
        stale_input_patched: u32,
        rebuilt: u32,
        infeasible_alone: u32,
        unplanned: u32,
        two_channels: u32,
    }

    /// `repair_schedule` is idempotent: repairing a repaired frame for the
    /// same target on the same model hands the frame back, whichever path
    /// produced it. So a recovery loop whose target and environment have
    /// not moved since its frame was built or repaired may skip the repair.
    ///
    /// Seeded shadowed planned and unplanned paper meshes of 9–25 nodes, on
    /// one or two channels; the frame repaired first is the greedy frame
    /// for the target, one built for another target (another demand draw
    /// or routing seed) or one built on other gains (a fade). Sparse meshes
    /// (300–600 nodes/km², three cases in ten) add a gateway's link to its
    /// farthest node where that link is infeasible even alone, which only a
    /// rebuild schedules.
    #[test]
    fn a_repaired_frame_repairs_to_itself() {
        use rand::{Rng, RngCore, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use scream_netsim::{Db, PropagationModel, RadioConfig, RadioEnvironment};
        use scream_topology::{
            density_to_area_m2, DemandConfig, DemandVector, Deployment, GridDeployment,
            RoutingForest, UniformDeployment,
        };

        const NAME: &str = "a_repaired_frame_repairs_to_itself";
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in NAME.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
        let mut reached = Reached::default();
        for case in 0..120u64 {
            let failed = format!("property '{NAME}' failed at case {case}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(case));
            let side = rng.gen_range(3..=5usize);
            let nodes = side * side;
            // A sparse mesh, where a far link is out of range.
            let far_link = rng.gen_bool(0.3);
            let density = if far_link {
                rng.gen_range(300.0..600.0)
            } else {
                rng.gen_range(1_000.0..4_000.0)
            };
            let area_m2 = density_to_area_m2(nodes, density);
            let deployment: Deployment = if rng.gen_bool(0.5) {
                let step = (area_m2 / nodes as f64).sqrt();
                GridDeployment::new(side, side, step)
                    .tx_power_dbm(10.0)
                    .build()
            } else {
                reached.unplanned += 1;
                UniformDeployment::new(nodes, area_m2.sqrt())
                    .tx_power_dbm(10.0)
                    .heterogeneous_power(6.0)
                    .build(&mut rng)
            };
            let channels = rng.gen_range(1..=2usize);
            if channels == 2 {
                reached.two_channels += 1;
            }
            let shadowing = rng.next_u64();
            let env = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .shadowing(4.0, shadowing)
                .config(
                    RadioConfig::mesh_default()
                        .with_sinr_threshold_db(6.0)
                        .with_channel_count(channels),
                )
                .build(&deployment);
            let gateways = deployment.corner_nodes();
            let graph = env.communication_graph();
            let target_for = |rng: &mut ChaCha8Rng| {
                let demands =
                    DemandVector::generate(nodes, DemandConfig::PAPER, &gateways, &mut *rng);
                let (forest, _) =
                    RoutingForest::shortest_path_partial(&graph, &gateways, rng.next_u64())
                        .unwrap();
                LinkDemands::aggregate(&forest, &demands).unwrap()
            };
            let mut target = target_for(&mut rng);
            if far_link {
                // A gateway's link to the node farthest from it.
                let gateway = gateways[0];
                let at = deployment.position(gateway);
                let far = deployment
                    .node_ids()
                    .max_by(|&u, &v| {
                        let (du, dv) = (deployment.position(u), deployment.position(v));
                        du.distance(at).total_cmp(&dv.distance(at))
                    })
                    .unwrap();
                let far = Link::new(gateway, far);
                if !env.slot_feasible(&[far]) {
                    reached.infeasible_alone += 1;
                    let mut links: Vec<(Link, u64)> = target.demanded_links().collect();
                    links.push((far, rng.gen_range(1..4u64)));
                    target = LinkDemands::from_links(nodes, &links).unwrap();
                }
            }
            let greedy = GreedyPhysical::paper_baseline();
            let built = rng.gen_range(0..3) == 0;
            let stale = if built {
                reached.greedy_input += 1;
                greedy.schedule(&env, &target)
            } else if rng.gen_bool(0.5) {
                greedy.schedule(&env, &target_for(&mut rng))
            } else {
                let faded = env.refaded(Db::new(4.0), rng.next_u64()).unwrap();
                greedy.schedule(&faded, &target)
            };
            let once = repair_schedule(&env, &stale, &target);
            if built {
                assert!(once.schedule == stale, "{failed}");
            }
            match once.outcome {
                RepairOutcome::Rebuilt => reached.rebuilt += 1,
                RepairOutcome::Incremental if once.schedule != stale => {
                    reached.stale_input_patched += 1;
                }
                RepairOutcome::Incremental => {}
            }
            let twice = repair_schedule(&env, &once.schedule, &target);
            assert!(twice.schedule == once.schedule, "{failed}");
        }
        for (case, count) in [
            ("the greedy frame for the target", reached.greedy_input),
            ("a stale frame patched", reached.stale_input_patched),
            ("a rebuild", reached.rebuilt),
            ("a link infeasible even alone", reached.infeasible_alone),
            ("an unplanned mesh", reached.unplanned),
            ("two channels", reached.two_channels),
        ] {
            assert!(count >= 20, "only {count} draws reached {case}");
        }
    }

    #[test]
    fn repair_is_deterministic() {
        let demands =
            LinkDemands::from_links(8, &[(link(1, 0), 7), (link(3, 2), 4), (link(5, 4), 9)])
                .unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&EndpointOnly, &demands);
        let target =
            LinkDemands::from_links(8, &[(link(1, 0), 2), (link(5, 4), 12), (link(7, 6), 3)])
                .unwrap();
        let a = repair_schedule(&EndpointOnly, &schedule, &target);
        let b = repair_schedule(&EndpointOnly, &schedule, &target);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.outcome, b.outcome);
    }
}
