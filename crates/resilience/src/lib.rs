//! Fault injection and online recovery for SCREAM schedules.
//!
//! The rest of the workspace builds and evaluates schedules for a network
//! that never changes. This crate asks the operational question: **what
//! happens when it does?** Links fade and die, nodes reboot, flows come and
//! go — and a schedule computed for the old world keeps serving slots the
//! new world cannot use.
//!
//! Three pieces answer it:
//!
//! * [`fault`] — deterministic, seeded churn: a [`FaultPlan`] builds a
//!   slot-ordered [`ChurnTrace`] of link/node outages and repairs,
//!   shadowing re-fades and flow churn, either explicitly or drawn from a
//!   seeded distribution ([`FaultPlan::random_churn`]);
//! * [`rescheduler`] — the [`ResilienceHarness`] injects a trace into a
//!   live [`TrafficSession`](scream_traffic::TrafficSession), and after
//!   each fault reroutes demands around the damage, patches the frame with
//!   the incremental [`repair_schedule`](scream_scheduling::repair_schedule)
//!   (full rebuild as the verified fallback), rescues stranded packets and
//!   defers flows that no longer fit (admission control);
//! * [`report`] — graceful-degradation metrics: per-epoch delivery, packets
//!   stranded/rescued/lost, time-to-recover, frame-swap disruption cost and
//!   the final stability verdict ([`ResilienceReport`]).
//!
//! Everything is deterministic: the same harness, trace, horizon and seed
//! reproduce a byte-identical report.

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

pub mod fault;
pub mod report;
pub mod rescheduler;

pub use fault::{ChurnConfig, ChurnTrace, FaultEvent, FaultKind, FaultPlan};
pub use report::{EpochMetrics, RepairRecord, ResilienceReport};
pub use rescheduler::{ReschedulerConfig, ResilienceError, ResilienceHarness};

#[cfg(test)]
mod tests {
    use super::*;
    use scream_netsim::{Db, RadioEnvironment};
    use scream_scheduling::RepairOutcome;
    use scream_topology::{
        DemandVector, GridDeployment, Link, LinkDemands, NodeId, RoutingForest, TopologyError,
    };

    /// A 4×4 grid with the four corners as gateways and unit demand at
    /// every mesh node — small enough to run fast, rich enough to reroute.
    fn grid_world() -> (RadioEnvironment, Vec<NodeId>, DemandVector) {
        let deployment = GridDeployment::new(4, 4, 200.0).build();
        let env = RadioEnvironment::builder().build(&deployment);
        let gateways = deployment.corner_nodes();
        let demands = DemandVector::from_vec(
            (0..deployment.len() as u32)
                .map(|i| u32::from(!gateways.contains(&NodeId::new(i))))
                .collect(),
        );
        (env, gateways, demands)
    }

    /// The uplink carrying the most traffic: the tree edge of the
    /// non-gateway node with the largest subtree (deterministic pick).
    fn busiest_uplink(env: &RadioEnvironment, gateways: &[NodeId], seed: u64) -> Link {
        let graph = env.communication_graph();
        let (forest, cut) = RoutingForest::shortest_path_partial(&graph, gateways, seed).unwrap();
        assert!(cut.is_empty(), "the test grid must be connected");
        (0..forest.node_count() as u32)
            .map(NodeId::new)
            .filter(|&v| !forest.is_gateway(v))
            .max_by_key(|&v| (forest.subtree(v).len(), std::cmp::Reverse(v)))
            .and_then(|v| forest.link_of(v))
            .expect("a non-gateway node with an uplink exists")
    }

    fn harness(rho: f64) -> ResilienceHarness {
        let (env, gateways, demands) = grid_world();
        ResilienceHarness::new(env, gateways, demands, rho)
    }

    #[test]
    fn a_failure_free_run_stays_stable_and_lossless() {
        let h = harness(0.8);
        let report = h.run(&ChurnTrace::default(), 600, 7).unwrap();
        assert!(report.final_verdict_stable);
        assert!(report.repairs.is_empty());
        assert_eq!(report.time_to_recover_slots, None);
        assert_eq!(report.totals.dropped, 0);
        assert!(report.delivery_pct() > 95.0, "{}", report.delivery_pct());
        assert_eq!(
            report.totals.injected,
            report.totals.delivered + report.totals.in_flight
        );
    }

    #[test]
    fn a_link_failure_without_repair_degrades_and_never_recovers() {
        let (env, gateways, demands) = grid_world();
        let dead = busiest_uplink(&env, &gateways, 7);
        let h = ResilienceHarness::new(env, gateways, demands, 0.8)
            .with_config(ReschedulerConfig::baseline());
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let horizon = 40 * f0;
        let trace = FaultPlan::new().link_down(dead, 10 * f0).build();
        let report = h.run(&trace, horizon, 7).unwrap();
        assert!(!report.final_verdict_stable, "dead link, no reroute");
        assert_eq!(report.time_to_recover_slots, None, "never recovers");
        assert!(
            report.delivery_pct() < 99.0,
            "strands accumulate: {}",
            report.delivery_pct()
        );
        assert!(report.totals.in_flight > 0, "stranded packets pile up");
        assert!(report.repairs.is_empty());
    }

    #[test]
    fn the_rescheduler_recovers_from_the_same_link_failure() {
        let (env, gateways, demands) = grid_world();
        let dead = busiest_uplink(&env, &gateways, 7);
        let h = ResilienceHarness::new(env, gateways, demands, 0.8);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let horizon = 40 * f0;
        let trace = FaultPlan::new().link_down(dead, 10 * f0).build();
        let report = h.run(&trace, horizon, 7).unwrap();
        assert!(report.final_verdict_stable, "rerouted around the failure");
        assert!(!report.repairs.is_empty(), "a repair was installed");
        let ttr = report.time_to_recover_slots.expect("the run recovers");
        assert!(ttr < 30 * f0, "recovery within the horizon: {ttr} slots");
        assert!(
            report.post_recovery_delivery_pct >= 99.0,
            "sustained delivery restored: {}",
            report.post_recovery_delivery_pct
        );
        let repair = &report.repairs[0];
        assert_eq!(repair.slot, 10 * f0);
        assert!(repair.frame_slots_after > 0);
        assert_eq!(
            report.totals.injected,
            report.totals.delivered + report.totals.dropped + report.totals.in_flight,
            "packet conservation"
        );
    }

    /// Regression: delivery percentages used to exceed 100 when an epoch
    /// drained backlog carried in from earlier epochs (packets delivered on
    /// top of the epoch's own injections were divided by the epoch's
    /// injections alone). The denominator now counts that carry-in, so
    /// every ratio is mathematically <= 100.
    #[test]
    fn delivery_percentages_never_exceed_one_hundred() {
        let (env, gateways, demands) = grid_world();
        let dead = busiest_uplink(&env, &gateways, 7);
        let h = ResilienceHarness::new(env, gateways, demands, 0.8);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let trace = FaultPlan::new().link_down(dead, 10 * f0).build();
        let report = h.run(&trace, 40 * f0, 7).unwrap();
        assert!(
            report
                .epochs
                .iter()
                .any(|e| e.delivered > e.injected && e.backlog_start > 0),
            "some epoch must drain carried-in backlog (the old >100% \
             trigger), or this test exercises nothing"
        );
        for e in &report.epochs {
            assert!(
                (0.0..=100.0).contains(&e.delivery_pct),
                "epoch {} delivery {}% out of range",
                e.epoch,
                e.delivery_pct
            );
            assert!(
                e.delivered <= e.injected + e.backlog_start,
                "epoch {} delivered more than was deliverable",
                e.epoch
            );
        }
        assert!((0.0..=100.0).contains(&report.outage_delivery_pct));
        assert!((0.0..=100.0).contains(&report.post_recovery_delivery_pct));
        assert!((0.0..=100.0).contains(&report.delivery_pct()));
    }

    #[test]
    fn a_node_outage_and_return_round_trips() {
        let (env, gateways, demands) = grid_world();
        let victim = busiest_uplink(&env, &gateways, 7).head;
        let h = ResilienceHarness::new(env, gateways, demands, 0.7);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let trace = FaultPlan::new()
            .at(8 * f0, FaultKind::NodeDown(victim))
            .at(20 * f0, FaultKind::NodeUp(victim))
            .build();
        let report = h.run(&trace, 44 * f0, 7).unwrap();
        assert!(report.final_verdict_stable, "the node came back");
        assert!(report.repairs.len() >= 2, "outage and return both repair");
        assert!(report.time_to_recover_slots.is_some());
        assert!(
            report.post_recovery_delivery_pct >= 99.0,
            "{}",
            report.post_recovery_delivery_pct
        );
        assert_eq!(report.deferred_flows, 0, "everyone re-admitted");
    }

    #[test]
    fn a_fade_mid_run_is_survivable() {
        let h = harness(0.6);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let trace = FaultPlan::new()
            .at(
                10 * f0,
                FaultKind::Fade {
                    sigma_db: 3.0,
                    seed: 99,
                },
            )
            .build();
        let report = h.run(&trace, 30 * f0, 7).unwrap();
        // Admission control guarantees the verdict even if the faded world
        // needs a longer frame or cuts nodes off.
        assert!(report.final_verdict_stable);
    }

    #[test]
    fn a_node_outage_after_a_fade_acts_on_the_faded_graph() {
        // A 4 dB fade drops nine of the grid's 24 links and opens seven new
        // ones, two of them from node 10 straight to the gateways 12 and 15;
        // the outage that follows must fail, and the reroutes avoid or
        // reuse, the *faded* world's links. Pinned to the report of the
        // commit that still rebuilt the communication graph at every fault,
        // re-captured when epochs became differences of the session totals:
        // the outage's rescue pass drops 2 packets at slot 32, which epoch 2
        // now counts (it read 0 while epochs re-summed segment reports), so
        // the no-drop suffix starts at slot 48 and both delivery windows
        // move with it (outage 10/12 over epochs 1–2, after 21/22). The
        // repairs and totals are the old capture's.
        let h = harness(0.6);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let trace = FaultPlan::new()
            .at(
                f0,
                FaultKind::Fade {
                    sigma_db: 4.0,
                    seed: 7,
                },
            )
            .at(2 * f0, FaultKind::NodeDown(NodeId::new(10)))
            .at(4 * f0, FaultKind::NodeUp(NodeId::new(10)))
            .build();
        let report = h.run(&trace, 6 * f0, 7).unwrap();
        assert_eq!(
            format!("{report:?}"),
            "\
             ResilienceReport { frame_slots_initial: 16, epochs: [\
             EpochMetrics { epoch: 0, start_slot: 0, end_slot: 16, injected: 0, delivered: 0, dropped: 0, backlog_start: 0, backlog_end: 0, delivery_pct: 100.0, stable: true }, \
             EpochMetrics { epoch: 1, start_slot: 16, end_slot: 32, injected: 12, delivered: 4, dropped: 0, backlog_start: 0, backlog_end: 8, delivery_pct: 33.33333333333333, stable: true }, \
             EpochMetrics { epoch: 2, start_slot: 32, end_slot: 48, injected: 0, delivered: 6, dropped: 2, backlog_start: 8, backlog_end: 0, delivery_pct: 75.0, stable: true }, \
             EpochMetrics { epoch: 3, start_slot: 48, end_slot: 64, injected: 10, delivered: 9, dropped: 0, backlog_start: 0, backlog_end: 1, delivery_pct: 90.0, stable: true }, \
             EpochMetrics { epoch: 4, start_slot: 64, end_slot: 80, injected: 0, delivered: 1, dropped: 0, backlog_start: 1, backlog_end: 0, delivery_pct: 100.0, stable: true }, \
             EpochMetrics { epoch: 5, start_slot: 80, end_slot: 96, injected: 12, delivered: 11, dropped: 0, backlog_start: 0, backlog_end: 1, delivery_pct: 91.66666666666666, stable: true }], \
             repairs: [\
             RepairRecord { slot: 16, outcome: Incremental, frame_slots_before: 16, frame_slots_after: 14, removed_allocation: 8, added_allocation: 8 }, \
             RepairRecord { slot: 32, outcome: Incremental, frame_slots_before: 14, frame_slots_after: 11, removed_allocation: 5, added_allocation: 2 }, \
             RepairRecord { slot: 64, outcome: Incremental, frame_slots_before: 11, frame_slots_after: 13, removed_allocation: 2, added_allocation: 5 }], \
             totals: SessionTotals { injected: 34, delivered: 31, dropped: 2, rescued: 2, in_flight: 1, peak_backlog: 12 }, \
             first_fault_slot: Some(16), time_to_recover_slots: Some(32), outage_delivery_pct: 83.33333333333334, post_recovery_delivery_pct: 95.45454545454545, deferred_flows: 0, final_verdict_stable: true }"
        );
    }

    /// A fade re-verifies the frame even when it moves no route: the frame
    /// was built for the old gains, so a batch that leaves the target, the
    /// routes and the dead set as they were still repairs after a fade. On
    /// the 5×5 grid a 1 dB fade (seed 0) keeps every route, and the old
    /// frame fails on the faded gains, so the repair rebuilds it.
    #[test]
    fn a_fade_that_keeps_the_target_still_repairs() {
        let deployment = GridDeployment::new(5, 5, 180.0).build();
        let env = RadioEnvironment::builder().build(&deployment);
        let gateways = deployment.corner_nodes();
        let demands = DemandVector::from_vec(
            (0..deployment.len() as u32)
                .map(|i| u32::from(!gateways.contains(&NodeId::new(i))))
                .collect(),
        );
        let target = |env: &RadioEnvironment| {
            let graph = env.communication_graph();
            let forest = RoutingForest::shortest_path(&graph, &gateways, 7).unwrap();
            LinkDemands::aggregate(&forest, &demands).unwrap()
        };
        let faded = env.refaded(Db::new(1.0), 0).expect("dense gains");
        assert_eq!(target(&faded), target(&env), "the fade moves no route");

        let h = ResilienceHarness::new(env, gateways.clone(), demands.clone(), 0.6);
        let f0 = h
            .run(&ChurnTrace::default(), 1, 7)
            .unwrap()
            .frame_slots_initial;
        let fade = FaultKind::Fade {
            sigma_db: 1.0,
            seed: 0,
        };
        let report = h
            .run(&FaultPlan::new().at(2 * f0, fade).build(), 4 * f0, 7)
            .unwrap();
        let slots_and_outcomes: Vec<_> =
            report.repairs.iter().map(|r| (r.slot, r.outcome)).collect();
        assert_eq!(slots_and_outcomes, [(2 * f0, RepairOutcome::Rebuilt)]);
    }

    /// A fade that cannot be applied — a negative or NaN σ, or any σ on an
    /// environment that streams its gains — is refused before the first
    /// slot instead of failing inside `refaded` mid-run.
    #[test]
    fn a_fade_that_cannot_apply_is_an_error_before_the_run() {
        let h = harness(0.8);
        for sigma in [-1.0, f64::NAN] {
            let trace = FaultPlan::new()
                .at(
                    50,
                    FaultKind::Fade {
                        sigma_db: sigma,
                        seed: 3,
                    },
                )
                .build();
            assert_eq!(
                h.run(&trace, 100, 7),
                Err(ResilienceError::BadFade { slot: 50 })
            );
            // Past the horizon the fade never happens, so it is no error.
            assert!(h.run(&trace, 50, 7).is_ok());
        }
        let (_, gateways, demands) = grid_world();
        let streamed = RadioEnvironment::builder()
            .streamed_gains()
            .build(&GridDeployment::new(4, 4, 200.0).build());
        let h = ResilienceHarness::new(streamed, gateways, demands, 0.8);
        let trace = FaultPlan::new()
            .at(
                50,
                FaultKind::Fade {
                    sigma_db: 4.0,
                    seed: 3,
                },
            )
            .build();
        assert_eq!(
            h.run(&trace, 100, 7),
            Err(ResilienceError::BadFade { slot: 50 })
        );
    }

    /// A demand vector longer than the environment used to panic inside
    /// `RoutingForest::is_reachable`; a shorter one failed only after the
    /// routes were built. Both are refused before the run, with the lengths.
    #[test]
    fn a_demand_vector_of_the_wrong_length_is_an_error_before_the_run() {
        let (env, gateways, _) = grid_world();
        for len in [15, 17, 40] {
            let h = ResilienceHarness::new(
                env.clone(),
                gateways.clone(),
                DemandVector::from_vec(vec![1; len]),
                0.8,
            );
            assert_eq!(
                h.run(&ChurnTrace::default(), 100, 7),
                Err(ResilienceError::Topology(
                    TopologyError::DemandLengthMismatch {
                        demands: len,
                        nodes: 16
                    }
                ))
            );
        }
    }

    #[test]
    fn flow_churn_pauses_and_resumes_injection() {
        let h = harness(0.8);
        let probe = h.run(&ChurnTrace::default(), 1, 7).unwrap();
        let f0 = probe.frame_slots_initial;
        let node = NodeId::new(5);
        let trace = FaultPlan::new()
            .at(5 * f0, FaultKind::FlowStop(node))
            .at(15 * f0, FaultKind::FlowStart(node))
            .build();
        let report = h.run(&trace, 30 * f0, 7).unwrap();
        let churn_free = h.run(&ChurnTrace::default(), 30 * f0, 7).unwrap();
        assert!(
            report.totals.injected < churn_free.totals.injected,
            "a stopped flow injects less"
        );
        assert!(report.final_verdict_stable);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let h = harness(0.8);
        let (env, gateways, _) = grid_world();
        let dead = busiest_uplink(&env, &gateways, 3);
        let trace = FaultPlan::new()
            .at(100, FaultKind::LinkDown(dead))
            .at(300, FaultKind::LinkUp(dead))
            .at(
                200,
                FaultKind::Fade {
                    sigma_db: 2.0,
                    seed: 5,
                },
            )
            .build();
        let a = h.run(&trace, 800, 3).unwrap();
        let b = h.run(&trace, 800, 3).unwrap();
        assert_eq!(a, b, "same inputs, byte-identical report");
    }

    #[test]
    fn degenerate_inputs_error_out() {
        let h = harness(0.8);
        assert_eq!(
            h.run(&ChurnTrace::default(), 0, 7),
            Err(ResilienceError::ZeroHorizon)
        );
        let (env, gateways, _) = grid_world();
        let zero = ResilienceHarness::new(env, gateways, DemandVector::from_vec(vec![0; 16]), 0.8);
        assert_eq!(
            zero.run(&ChurnTrace::default(), 100, 7),
            Err(ResilienceError::NoSources)
        );
    }
}
