//! Schedule verification: demand satisfaction and per-slot feasibility.
//!
//! Both the centralized and distributed schedulers are validated against this
//! single verifier, which re-checks every slot against the interference model
//! and every link against its demand. The distributed protocols never get to
//! "grade their own homework".
//!
//! A slot is *filled* into the model's stateful [`SlotAccumulator`] and its
//! verdict *read* off the filled state: one O(k²) fill for `k` links under
//! the physical model and one O(k) read, no probe. That is the verdict of
//! admitting the links one by one, not an approximation of it: the conjuncts
//! a probe of link `j` evaluates are the very slacks the fill stores, at an
//! earlier step; a slack only shrinks (the terms are non-negative integers)
//! and its verdict is `slack ≥ 0`, so every prefix admitted its next link
//! exactly when the filled slot is feasible — in any order, since integer
//! sums do not depend on one. An infeasible slot is reported with every link's SINR margin,
//! so the failing handshake direction is visible in the error itself.
//!
//! Verification walks the schedule's run-length form
//! ([`Schedule::runs`]): every distinct consecutive slot pattern is checked
//! **once** regardless of its multiplicity, and a single accumulator is
//! [`clear`](crate::feasibility::SlotAccumulator::clear)ed and refilled
//! across patterns instead of being reallocated per slot — verifying a
//! million-slot heavy-demand schedule costs O(#patterns · k²), not
//! O(#slots · k²).
//!
//! Orthogonal channels do not interfere, so each channel's link group of a
//! pattern must be feasible on its own, the channel ids must be within the
//! model's [`channel_count`](crate::feasibility::SlotFeasibility::channel_count),
//! and — because every node has a single radio — no node may appear in links
//! of two different channels of the same slot (the **cross-channel
//! half-duplex rule**, [`ScheduleViolation::CrossChannelConflict`]). A
//! single-channel schedule is the case where every group sits on channel 0.

use scream_topology::{Link, LinkDemands, NodeId};

use crate::feasibility::{ChannelId, LinkSinrMargin, SlotAccumulator, SlotFeasibility};
use crate::schedule::Schedule;

/// Ways a schedule can fail verification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleViolation {
    /// One channel of a slot schedules a link set that is not feasible under
    /// the interference model.
    InfeasibleSlot {
        /// Index of the offending slot.
        slot: usize,
        /// The channel whose link group fails (always channel 0 for
        /// single-channel schedules).
        channel: ChannelId,
        /// The links scheduled on that channel in that slot.
        links: Vec<Link>,
        /// Per-link SINR margins relative to the model's threshold, when the
        /// model can report them (empty for graph-based models). Negative
        /// margins identify the failing links and directions.
        margins: Vec<LinkSinrMargin>,
    },
    /// A node appears in links of two different channels of the same slot —
    /// impossible with one radio per node, however clean each channel's SINR
    /// is.
    CrossChannelConflict {
        /// Index of the offending slot.
        slot: usize,
        /// The node scheduled on two channels at once.
        node: NodeId,
    },
    /// A slot uses a channel id outside the model's channel range.
    ChannelOutOfRange {
        /// Index of the offending slot.
        slot: usize,
        /// The out-of-range channel.
        channel: ChannelId,
        /// The model's channel count.
        channel_count: usize,
    },
    /// A link received a different number of slots than its demand.
    DemandMismatch {
        /// The link in question.
        link: Link,
        /// Slots the schedule allocated to it.
        allocated: u64,
        /// Slots its demand requires.
        required: u64,
    },
    /// A link appears in the schedule but is not part of the demanded set.
    UnknownLink {
        /// The offending link.
        link: Link,
        /// The slot it first appears in.
        slot: usize,
    },
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleViolation::InfeasibleSlot {
                slot,
                channel,
                links,
                margins,
            } => {
                let links: Vec<String> = links.iter().map(|l| l.to_string()).collect();
                write!(f, "slot {slot} is infeasible: [{}]", links.join(", "))?;
                if *channel != ChannelId::ZERO {
                    write!(f, " on {channel}")?;
                }
                let failing: Vec<String> = margins
                    .iter()
                    .filter(|m| !m.ok())
                    .map(|m| m.to_string())
                    .collect();
                if !failing.is_empty() {
                    write!(f, "; failing SINR margins: {}", failing.join("; "))?;
                }
                Ok(())
            }
            ScheduleViolation::CrossChannelConflict { slot, node } => write!(
                f,
                "slot {slot} schedules node {node} on two different channels (one radio per node)"
            ),
            ScheduleViolation::ChannelOutOfRange {
                slot,
                channel,
                channel_count,
            } => write!(
                f,
                "slot {slot} uses {channel} but the model provides only {channel_count} channel(s)"
            ),
            ScheduleViolation::DemandMismatch {
                link,
                allocated,
                required,
            } => write!(
                f,
                "link {link} allocated {allocated} slot(s) but its demand is {required}"
            ),
            ScheduleViolation::UnknownLink { link, slot } => {
                write!(
                    f,
                    "link {link} (first seen in slot {slot}) is not a demanded link"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleViolation {}

/// Verifies that `schedule` satisfies `demands` exactly and that every slot
/// is feasible under `model`.
///
/// # Errors
///
/// Returns the first violation found, checking slots in order and then
/// demands in link order.
pub fn verify_schedule<M: SlotFeasibility>(
    model: &M,
    schedule: &Schedule,
    demands: &LinkDemands,
) -> Result<(), ScheduleViolation> {
    verify_frame(
        model,
        schedule,
        Some(demands),
        Some(model.open_slot().as_mut()),
    )
}

/// Verifies only the feasibility of every slot, ignoring demands. Useful for
/// partially built schedules (e.g. inspecting a distributed run mid-flight).
///
/// The channel ids are validated against the model's channel count, then the
/// cross-channel half-duplex rule (a node with its single radio may not
/// appear in links of two different channels of the same slot), then each
/// channel's link group is filled and read — see the [module docs](self).
pub fn verify_slots_feasible<M: SlotFeasibility>(
    model: &M,
    schedule: &Schedule,
) -> Result<(), ScheduleViolation> {
    verify_frame(model, schedule, None, Some(model.open_slot().as_mut()))
}

/// Every check of [`verify_schedule`], in its order; the one implementation
/// of each. `fill` is the accumulator every pattern is filled into and read
/// from — `None` from [`repair_schedule`](crate::repair::repair_schedule),
/// which has read those verdicts off the accumulators it patched and runs
/// all the other checks here. With no `demands`, only the per-slot checks run.
pub(crate) fn verify_frame<M: SlotFeasibility>(
    model: &M,
    schedule: &Schedule,
    demands: Option<&LinkDemands>,
    mut fill: Option<&mut dyn SlotAccumulator>,
) -> Result<(), ScheduleViolation> {
    // Every scheduled link must be a demanded link (checked per pattern; the
    // reported slot is the first one the pattern occupies).
    if let Some(demands) = demands {
        let mut t = 0usize;
        for (pattern, count) in schedule.runs() {
            for &l in pattern.links() {
                if demands.demand_of_link(l).is_none() {
                    return Err(ScheduleViolation::UnknownLink { link: l, slot: t });
                }
            }
            t += count as usize;
        }
    }
    // Every slot must be feasible.
    let channel_count = model.channel_count().max(1);
    let mut t = 0usize;
    for (pattern, count) in schedule.runs() {
        if let Some(channel) = pattern
            .channel_groups()
            .map(|(c, _)| c)
            .find(|c| c.index() >= channel_count)
        {
            return Err(ScheduleViolation::ChannelOutOfRange {
                slot: t,
                channel,
                channel_count,
            });
        }
        if let Some(node) = pattern.node_on_multiple_channels() {
            return Err(ScheduleViolation::CrossChannelConflict { slot: t, node });
        }
        if let Some(accumulator) = fill.as_deref_mut() {
            accumulator.clear();
            scream_obs::counter_add("verify.patterns.filled", 1);
            scream_obs::counter_add("verify.entries.filled", pattern.len() as u64);
            for (channel, links) in pattern.channel_groups() {
                accumulator.assign_all(channel, links);
                if !accumulator.channel_feasible(channel) {
                    return Err(ScheduleViolation::InfeasibleSlot {
                        slot: t,
                        channel,
                        links: links.to_vec(),
                        margins: model.slot_margins(links),
                    });
                }
            }
        }
        t += count as usize;
    }
    // Every demanded link must get exactly its demand.
    let Some(demands) = demands else {
        return Ok(());
    };
    let counts = schedule.allocation_counts();
    for (link, required) in demands.demanded_links() {
        let allocated = counts.get(&link).copied().unwrap_or(0);
        if allocated != required {
            return Err(ScheduleViolation::DemandMismatch {
                link,
                allocated,
                required,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SlotPattern;
    use scream_netsim::{PropagationModel, RadioConfig, RadioEnvironment};
    use scream_topology::{GridDeployment, NodeId};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    fn ch(c: u16) -> ChannelId {
        ChannelId::new(c)
    }

    /// Model that only rejects shared endpoints.
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

    fn demands() -> LinkDemands {
        LinkDemands::from_links(6, &[(link(1, 0), 2), (link(3, 2), 1)]).unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
        s.push_slot_run(vec![link(1, 0)], 1);
        verify_schedule(&EndpointOnly, &s, &demands()).unwrap();
        verify_slots_feasible(&EndpointOnly, &s).unwrap();
    }

    #[test]
    fn underallocation_is_reported() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
        let err = verify_schedule(&EndpointOnly, &s, &demands()).unwrap_err();
        assert_eq!(
            err,
            ScheduleViolation::DemandMismatch {
                link: link(1, 0),
                allocated: 1,
                required: 2
            }
        );
        assert!(err.to_string().contains("n1->n0"));
    }

    #[test]
    fn overallocation_is_reported() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0)], 1);
        s.push_slot_run(vec![link(1, 0)], 1);
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
        let err = verify_schedule(&EndpointOnly, &s, &demands()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleViolation::DemandMismatch { allocated: 3, .. }
        ));
    }

    #[test]
    fn infeasible_slot_is_reported_with_its_contents() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(2, 1)], 1);
        let err = verify_slots_feasible(&EndpointOnly, &s).unwrap_err();
        match err {
            ScheduleViolation::InfeasibleSlot {
                slot,
                channel,
                links,
                margins,
            } => {
                assert_eq!(slot, 0);
                assert_eq!(channel, ChannelId::ZERO);
                assert_eq!(links.len(), 2);
                // EndpointOnly has no SINR notion, so no margins.
                assert!(margins.is_empty());
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    /// A link with a node the environment lacks — as transmitter, or as
    /// receiver, whose dense-gain lookup would alias another pair's — is
    /// infeasible: greedy places it, the verifier reports its slot, and
    /// neither they nor repair panic. So is a slot shared with a co-located
    /// transmitter loud enough to saturate the ledger's fixed point, which
    /// greedy therefore keeps apart.
    #[test]
    fn unknown_nodes_and_saturating_terms_are_infeasible_slots_not_panics() {
        use crate::greedy::{EdgeOrdering, GreedyPhysical};
        use crate::repair::repair_schedule;
        use scream_topology::{Dbm, Deployment, NodeInfo, Point2, Rect};

        let grid = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&GridDeployment::new(5, 2, 100.0).build());
        assert_eq!(grid.node_count(), 10);
        let (lone_tx, lone_rx) = (link(15, 0), link(3, 12));
        let demands =
            LinkDemands::from_links(20, &[(lone_tx, 2), (lone_rx, 1), (link(5, 6), 1)]).unwrap();
        for ordering in [
            EdgeOrdering::DecreasingHeadId,
            EdgeOrdering::IncreasingHeadId,
            EdgeOrdering::DecreasingDemand,
            EdgeOrdering::IncreasingDemand,
        ] {
            let schedule = GreedyPhysical::new(ordering).schedule(&grid, &demands);
            assert!(schedule
                .runs()
                .all(|(p, _)| p.len() == 1 || !p.links().iter().any(|l| l.tail.index() >= 10)));
            match verify_schedule(&grid, &schedule, &demands) {
                Err(ScheduleViolation::InfeasibleSlot { links, margins, .. }) => {
                    assert!(links == [lone_tx] || links == [lone_rx], "{links:?}");
                    assert!(!margins[0].ok());
                }
                other => panic!("{ordering:?}: {other:?}"),
            }
            let repaired = repair_schedule(&grid, &schedule, &demands);
            assert!(verify_schedule(&grid, &repaired.schedule, &demands).is_err());
        }

        // The victim 0 → 1, and node 2 at the victim's receiver transmitting
        // at 190 dBm: 10¹⁵ mW there, beyond the fixed point's 1.4 · 10¹⁴.
        let nodes = [(0.0, 20.0), (30.0, 20.0), (30.0, 190.0), (60.0, 20.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, dbm))| {
                NodeInfo::new(NodeId::new(i as u32), Point2::new(x, 0.0), Dbm::new(dbm))
            })
            .collect();
        let d = Deployment::from_nodes(nodes, Rect::square(100.0)).unwrap();
        let loud = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let demands = LinkDemands::from_links(4, &[(link(0, 1), 1), (link(2, 3), 1)]).unwrap();
        let schedule = GreedyPhysical::paper_baseline().schedule(&loud, &demands);
        assert_eq!(schedule.length(), 2);
        verify_schedule(&loud, &schedule, &demands).unwrap();
        let together = Schedule::from_slots(vec![vec![link(0, 1), link(2, 3)]]);
        assert!(matches!(
            verify_schedule(&loud, &together, &demands),
            Err(ScheduleViolation::InfeasibleSlot { .. })
        ));
    }

    #[test]
    fn physical_model_violations_carry_sinr_margins() {
        // Adjacent links on a 200 m line: the slot fails under SINR, and the
        // error must identify the failing links by negative margins.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(0, 1), link(2, 3)], 1);
        let err = verify_slots_feasible(&env, &s).unwrap_err();
        match err {
            ScheduleViolation::InfeasibleSlot {
                slot,
                links,
                margins,
                ..
            } => {
                assert_eq!(slot, 0);
                assert_eq!(links.len(), 2);
                assert_eq!(margins.len(), 2);
                assert!(
                    margins.iter().any(|m| !m.ok()),
                    "at least one link must report a negative margin: {margins:?}"
                );
            }
            other => panic!("unexpected violation {other:?}"),
        }
        // The rendered message names the failing margins.
        let text = verify_slots_feasible(&env, &s).unwrap_err().to_string();
        assert!(text.contains("failing SINR margins"), "{text}");
        assert!(text.contains("dB"), "{text}");
    }

    #[test]
    fn unknown_link_is_reported() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(5, 4)], 1);
        let err = verify_schedule(&EndpointOnly, &s, &demands()).unwrap_err();
        assert!(matches!(err, ScheduleViolation::UnknownLink { .. }));
        assert!(err.to_string().contains("n5->n4"));
    }

    #[test]
    fn empty_slots_are_tolerated_by_feasibility_check() {
        let s = Schedule::from_slots(vec![
            vec![],
            vec![link(1, 0)],
            vec![],
            vec![link(1, 0)],
            vec![link(3, 2)],
        ]);
        verify_schedule(&EndpointOnly, &s, &demands()).unwrap();
    }

    #[test]
    fn heavy_runs_are_verified_once_per_pattern() {
        // A counting model proves the verifier pays per distinct pattern, not
        // per slot: a million-slot schedule with two patterns costs a handful
        // of probes and returns instantly.
        struct Counting(std::cell::Cell<u64>);
        impl SlotFeasibility for Counting {
            fn slot_feasible(&self, links: &[Link]) -> bool {
                self.0.set(self.0.get() + 1);
                EndpointOnly.slot_feasible(links)
            }
        }
        let demands =
            LinkDemands::from_links(6, &[(link(1, 0), 1_000_000), (link(3, 2), 999_990)]).unwrap();
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 999_990);
        s.push_slot_run(vec![link(1, 0)], 10);
        let model = Counting(std::cell::Cell::new(0));
        verify_schedule(&model, &s, &demands).unwrap();
        assert!(
            model.0.get() <= 8,
            "expected O(#patterns) probes, got {}",
            model.0.get()
        );
    }

    #[test]
    fn infeasible_run_reports_its_first_slot_index() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0)], 10);
        s.push_slot_run(vec![link(1, 0), link(2, 1)], 5);
        let err = verify_slots_feasible(&EndpointOnly, &s).unwrap_err();
        match err {
            ScheduleViolation::InfeasibleSlot { slot, links, .. } => {
                assert_eq!(slot, 10, "first slot of the offending run");
                assert_eq!(links.len(), 2);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn multi_channel_slots_are_checked_per_channel() {
        // Adjacent links on a 200 m line: SINR-infeasible on a shared channel
        // but fine on orthogonal channels of the same slot.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(RadioConfig::mesh_default().with_channel_count(2))
            .build(&d);
        let split = Schedule::from_pattern_runs(vec![(
            SlotPattern::from_entries(vec![(ch(0), link(0, 1)), (ch(1), link(2, 3))]),
            3,
        )]);
        verify_slots_feasible(&env, &split).unwrap();
        let same_channel = Schedule::from_pattern_runs(vec![(
            SlotPattern::from_entries(vec![(ch(1), link(0, 1)), (ch(1), link(2, 3))]),
            1,
        )]);
        let err = verify_slots_feasible(&env, &same_channel).unwrap_err();
        match err {
            ScheduleViolation::InfeasibleSlot { channel, .. } => assert_eq!(channel, ch(1)),
            other => panic!("unexpected violation {other:?}"),
        }
        let text = verify_slots_feasible(&env, &same_channel)
            .unwrap_err()
            .to_string();
        assert!(text.contains("ch1"), "{text}");
    }

    #[test]
    fn node_on_two_channels_of_one_slot_is_rejected() {
        // The cross-channel half-duplex rule: node 1 is an endpoint on both
        // channels, which a single radio cannot serve — even though each
        // channel's SINR is clean on its own.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(RadioConfig::mesh_default().with_channel_count(2))
            .build(&d);
        let s = Schedule::from_pattern_runs(vec![(
            SlotPattern::from_entries(vec![(ch(0), link(0, 1)), (ch(1), link(1, 2))]),
            1,
        )]);
        assert!(SlotFeasibility::slot_feasible(&env, &[link(0, 1)]));
        assert!(SlotFeasibility::slot_feasible(&env, &[link(1, 2)]));
        let err = verify_slots_feasible(&env, &s).unwrap_err();
        assert_eq!(
            err,
            ScheduleViolation::CrossChannelConflict {
                slot: 0,
                node: NodeId::new(1)
            }
        );
        assert!(err.to_string().contains("two different channels"));
    }

    #[test]
    fn channels_beyond_the_model_range_are_rejected() {
        // EndpointOnly is a single-channel model; a pattern on ch1 is out of
        // range however feasible its links are.
        let s = Schedule::from_pattern_runs(vec![(
            SlotPattern::from_entries(vec![(ch(1), link(1, 0))]),
            1,
        )]);
        let err = verify_slots_feasible(&EndpointOnly, &s).unwrap_err();
        assert_eq!(
            err,
            ScheduleViolation::ChannelOutOfRange {
                slot: 0,
                channel: ch(1),
                channel_count: 1
            }
        );
        assert!(err.to_string().contains("only 1 channel"));
    }

    #[test]
    fn violations_implement_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&ScheduleViolation::UnknownLink {
            link: link(1, 0),
            slot: 0,
        });
    }
}
