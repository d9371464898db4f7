//! The distributed scheduling runtime: a faithful synchronous simulation of
//! the PDD/FDD/AFDD round structure over a radio environment.
//!
//! The runtime executes the protocols exactly as specified in Section III:
//! rounds of leader election and iterative slot construction, with every
//! handshake outcome taken from the SINR physics of the environment and every
//! network-wide OR executed through the [`ScreamChannel`]. Every synchronized
//! step is charged to a [`ProtocolTiming`] tally so that the wall-clock
//! execution time of a run (Figures 8 and 9) can be reported alongside the
//! schedule it computed (Figures 6 and 7).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scream_netsim::{
    ChannelId, ChannelSlotLedger, ProtocolTiming, RadioEnvironment, SimTime, SlotTiming,
};
use scream_scheduling::{FrameService, Schedule, ScheduleMetrics, SlotPattern};
use scream_topology::{Link, LinkDemands};

use crate::config::ProtocolConfig;
use crate::election::LeaderElection;
use crate::error::ProtocolError;
use crate::protocol::ProtocolKind;
use crate::scream::ScreamChannel;
use crate::state::NodeState;
use crate::stats::RunStats;

/// A distributed scheduler: a protocol variant plus its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedScheduler {
    kind: ProtocolKind,
    config: ProtocolConfig,
}

impl DistributedScheduler {
    /// Creates a scheduler for the given protocol with the given
    /// configuration.
    pub fn new(kind: ProtocolKind, config: ProtocolConfig) -> Self {
        Self { kind, config }
    }

    /// FDD with the paper's default configuration.
    pub fn fdd() -> Self {
        Self::new(ProtocolKind::Fdd, ProtocolConfig::paper_default())
    }

    /// PDD with activation probability `p` and the paper's default
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if the probability is not
    /// in `(0, 1]` (propagated from [`ProtocolKind::pdd`]).
    pub fn pdd(probability: f64) -> Result<Self, ProtocolError> {
        Ok(Self::new(
            ProtocolKind::pdd(probability)?,
            ProtocolConfig::paper_default(),
        ))
    }

    /// AFDD with the paper's default configuration.
    pub fn afdd() -> Self {
        Self::new(ProtocolKind::Afdd, ProtocolConfig::paper_default())
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The configuration in force.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Executes the protocol on the given radio environment and demand
    /// instance, returning the computed schedule together with its timing and
    /// statistics.
    ///
    /// # Channels
    ///
    /// The runtime is channel-aware: when the environment provides several
    /// orthogonal channels (bounded further by
    /// [`ProtocolConfig::max_channels`]), each round's slot is built as a set
    /// of `(channel, link)` claims. The controller opens the slot on channel
    /// 0 and announces a channel-assignment phase; every newly activated edge
    /// then first-fits into the cheapest channel whose handshake it completes
    /// ([`ChannelSlotLedger::probe_claims`] — per-channel SINR plus the
    /// one-radio-per-node cross-channel table). Because the handshake
    /// outcome is local physics, a successful claim must announce which
    /// channel it took: every allocation is charged `⌈log₂ C⌉` extra SCREAM
    /// invocations (one per channel-id bit), exactly like the per-bit
    /// elections, and each iteration's handshake step spans one sub-slot per
    /// channel (a one-radio node probes the channels sequentially).
    ///
    /// With one channel — the paper's setting — the assignment phase has one
    /// sub-phase, the announcement costs zero bits and every iteration is
    /// charged exactly one handshake slot: the paper's protocol is the
    /// `C = 1` value of this loop, not a second one. Capping a multi-channel
    /// environment at one channel equals running on the same geometry built
    /// with one channel — schedule, [`ProtocolTiming`] and [`RunStats`] — as
    /// pinned by the `single_channel_runtime_reduction_is_exact` property
    /// test.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::NodeCountMismatch`] if the demand instance does not
    ///   cover the environment's nodes;
    /// * [`ProtocolError::ConflictingLinkOwnership`] if two demanded links
    ///   share a head node (each node owns at most one uplink in the paper's
    ///   model; aliasing them would silently drop demand);
    /// * [`ProtocolError::ScreamSlotsTooSmall`] /
    ///   [`ProtocolError::DisconnectedSensitivityGraph`] if the SCREAM
    ///   precondition `K ≥ ID(G_S)` cannot be met;
    /// * [`ProtocolError::RoundLimitExceeded`] if the configured round limit
    ///   is reached with demands still unsatisfied — checked *before* each
    ///   round, so a limit of `k` permits exactly `k` full rounds and the
    ///   error carries the progress made.
    pub fn run(
        &self,
        env: &RadioEnvironment,
        demands: &LinkDemands,
    ) -> Result<DistributedRun, ProtocolError> {
        self.config.validate()?;
        if env.node_count() != demands.node_count() {
            return Err(ProtocolError::NodeCountMismatch {
                environment: env.node_count(),
                demands: demands.node_count(),
            });
        }
        let channel = ScreamChannel::new(env, &self.config)?;
        let n = env.node_count();
        let slot_timing = SlotTiming::derive(
            env.config(),
            self.config.scream_bytes,
            self.config.clock_skew,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let election = LeaderElection::new();
        let id_bits = LeaderElection::id_bits(n) as u64;

        let (link_of, mut remaining) = per_node_links(demands)?;
        let round_limit = self.config.round_limit(demands.total_demand());
        let channel_count = self.config.effective_channels(env.channel_count());
        let channel_bits = channel_announcement_bits(channel_count);

        let mut timing = ProtocolTiming::new();
        let mut stats = RunStats::new();
        let mut schedule = Schedule::new();
        let mut controller: Option<usize> = None;
        // One multi-channel interference ledger reused (cleared, not
        // reallocated) across every round's slot construction.
        let mut ledger = ChannelSlotLedger::new(env, channel_count);

        loop {
            if controller.is_none() {
                // A new controller must be elected among the nodes that still
                // have pending demand; completed nodes participate passively.
                timing.add_sync_step();
                let candidates: Vec<bool> = remaining.iter().map(|&r| r > 0).collect();
                let winner = election.elect(&channel, &candidates, &mut timing);
                stats.elections += 1;
                stats.scream_invocations += id_bits;

                // Termination detection: the winner (if any) screams; if the
                // OR comes back false, every node learns that no demand is
                // left and the algorithm terminates.
                timing.add_sync_step();
                let mut exists = vec![false; n];
                if let Some(w) = winner {
                    exists[w.index()] = true;
                }
                let any_controller = channel.network_or(&exists, &mut timing)[0];
                stats.scream_invocations += 1;
                if !any_controller {
                    break;
                }
                controller = winner.map(|w| w.index());
            }
            let ctrl = controller.expect("controller is set when the loop body runs");

            // The round limit is checked before the round is constructed, so
            // a limit of k permits exactly k full rounds and no partially
            // applied work is ever discarded.
            if stats.rounds >= round_limit {
                return Err(ProtocolError::RoundLimitExceeded {
                    limit: round_limit,
                    rounds_executed: stats.rounds,
                    unsatisfied_links: remaining.iter().filter(|&&r| r > 0).count(),
                    slots_built: schedule.length(),
                });
            }

            // ---- GreedyScheduleSlot (one round, one slot) ----
            let mut state: Vec<NodeState> = (0..n)
                .map(|i| {
                    if i == ctrl {
                        NodeState::Control
                    } else if remaining[i] > 0 {
                        NodeState::Dormant
                    } else {
                        NodeState::Complete
                    }
                })
                .collect();

            // Multi-channel interference ledger for the slot under
            // construction: the controller opens the slot on channel 0 (a
            // fresh slot's cheapest channel) and announces the claim.
            ledger.clear();
            ledger.assign(
                ChannelId::ZERO,
                link_of[ctrl].expect("the controller has pending demand"),
            );
            charge_channel_announcement(channel_bits, &channel, &mut timing, &mut stats);

            loop {
                stats.slot_iterations += 1;

                // SelectActive: the only place the three protocol variants
                // differ.
                let actives = self.select_active(
                    &state,
                    &channel,
                    &election,
                    &mut rng,
                    &mut timing,
                    &mut stats,
                );
                for &a in &actives {
                    state[a] = NodeState::Active;
                }

                // Handshake time step: every CONTROL/ALLOCATED/ACTIVE edge
                // performs its two-way handshake concurrently. The
                // channel-assignment phase first-fits each tentative edge
                // into the cheapest channel whose handshake survives —
                // per-channel SINR against the scheduled edges and the other
                // tentatives, plus the half-duplex screen across channels
                // (one radio per node); a channel whose scheduled edges are
                // disturbed vetoes its sub-phase and admits no claim. The
                // phase spans one handshake sub-slot per channel — its
                // sub-phase structure is fixed in advance, since a one-radio
                // node cannot probe two channels at once and nobody can know
                // globally that claims resolved early — so the iteration is
                // charged C handshake slots, exactly one at C = 1.
                timing.add_sync_step();
                for _ in 0..channel_count {
                    timing.add_handshake_slot();
                }
                stats.handshake_steps += channel_count as u64;
                let active_links: Vec<Link> = actives
                    .iter()
                    .map(|&i| link_of[i].expect("active nodes have pending demand"))
                    .collect();
                let probe = ledger.probe_claims(&active_links);

                // Verification time step: previously scheduled edges hold
                // veto power — if any of them failed its handshake on its
                // channel, it SCREAMs; the claims of a vetoed channel have
                // already withdrawn.
                timing.add_sync_step();
                let vetoed = !probe.existing_ok;
                // The veto travels by SCREAM: one network-wide OR either way.
                let mut veto_flags = vec![false; n];
                veto_flags[ctrl] = vetoed;
                let vetoed = channel.network_or(&veto_flags, &mut timing)[0];
                stats.scream_invocations += 1;
                if vetoed {
                    stats.vetoes += 1;
                    scream_obs::counter_add("runtime.vetoes", 1);
                }
                for (idx, &i) in actives.iter().enumerate() {
                    match probe.assignments[idx] {
                        Some(claimed) => {
                            state[i] = NodeState::Allocated;
                            ledger.assign(claimed, active_links[idx]);
                            charge_channel_announcement(
                                channel_bits,
                                &channel,
                                &mut timing,
                                &mut stats,
                            );
                        }
                        None => {
                            state[i] = NodeState::Tried;
                            stats.tried_transitions += 1;
                        }
                    }
                }

                // stillActives check: dormant nodes scream so that everyone
                // learns whether another iteration is needed.
                timing.add_sync_step();
                let dormant_flags: Vec<bool> =
                    (0..n).map(|i| state[i] == NodeState::Dormant).collect();
                let still_actives = channel.network_or(&dormant_flags, &mut timing)[0];
                stats.scream_invocations += 1;
                if !still_actives {
                    break;
                }
            }

            // Seal the slot: the controller's edge plus every allocated edge
            // with its claimed channel — exactly the ledger's contents. At
            // C = 1 every entry sits on channel 0, so the pattern stores no
            // channel tags and the representation is the single-channel one.
            let entries: Vec<(ChannelId, Link)> = ledger.assignments().collect();
            for (_, link) in &entries {
                let i = link.head.index();
                remaining[i] = remaining[i].saturating_sub(1);
            }
            let sealed_links = entries.len() as u64;
            schedule.push_pattern_run(SlotPattern::from_entries(entries), 1);
            stats.rounds += 1;
            scream_obs::set_round(stats.rounds);
            scream_obs::set_slot(schedule.length() as u64);
            scream_obs::counter_add("runtime.rounds", 1);
            scream_obs::counter_add("runtime.claims", sealed_links);
            scream_obs::event("runtime.round", &[("claims", sealed_links)]);

            // Control-release check: the controller screams iff its demand is
            // now satisfied, releasing control for the next round.
            timing.add_sync_step();
            let mut release = vec![false; n];
            release[ctrl] = remaining[ctrl] == 0;
            let released = channel.network_or(&release, &mut timing)[0];
            stats.scream_invocations += 1;
            if released {
                controller = None;
            }
        }

        stats.terminated = remaining.iter().all(|&r| r == 0);
        Ok(DistributedRun {
            kind: self.kind,
            schedule,
            timing,
            slot_timing,
            stats,
        })
    }

    /// The `SelectActive()` function of Section III: PDD activates each
    /// dormant node independently with probability `p`; FDD elects the
    /// highest-id dormant node through a full leader election; AFDD announces
    /// the highest-id dormant node with a single SCREAM (see `DESIGN.md`).
    fn select_active(
        &self,
        state: &[NodeState],
        channel: &ScreamChannel<'_>,
        election: &LeaderElection,
        rng: &mut ChaCha8Rng,
        timing: &mut ProtocolTiming,
        stats: &mut RunStats,
    ) -> Vec<usize> {
        let n = state.len();
        let dormant: Vec<usize> = (0..n).filter(|&i| state[i] == NodeState::Dormant).collect();
        match self.kind {
            ProtocolKind::Pdd { probability } => dormant
                .into_iter()
                .filter(|_| rng.gen_bool(probability))
                .collect(),
            ProtocolKind::Fdd => {
                let candidates: Vec<bool> =
                    (0..n).map(|i| state[i] == NodeState::Dormant).collect();
                let winner = election.elect(channel, &candidates, timing);
                stats.elections += 1;
                stats.scream_invocations += LeaderElection::id_bits(n) as u64;
                winner.map(|w| vec![w.index()]).unwrap_or_default()
            }
            ProtocolKind::Afdd => {
                // One SCREAM announces whether any dormant node remains; the
                // identity of the highest-id dormant node is known to all from
                // cached candidate order (our interpretation of AFDD).
                let flags: Vec<bool> = (0..n).map(|i| state[i] == NodeState::Dormant).collect();
                let _ = channel.network_or(&flags, timing);
                stats.scream_invocations += 1;
                dormant
                    .into_iter()
                    .max()
                    .map(|i| vec![i])
                    .unwrap_or_default()
            }
        }
    }
}

/// Builds the per-node view of the demand instance — the link each node owns
/// and its remaining demand — rejecting instances where two demanded links
/// share a head node: the paper's model is one owned uplink per node, and
/// aliasing both links onto one counter would silently drop demand (while
/// `stats.terminated` could still read true).
fn per_node_links(demands: &LinkDemands) -> Result<(Vec<Option<Link>>, Vec<u64>), ProtocolError> {
    let n = demands.node_count();
    let mut link_of: Vec<Option<Link>> = vec![None; n];
    let mut remaining: Vec<u64> = vec![0; n];
    for (link, demand) in demands.demanded_links() {
        let i = link.head.index();
        if link_of[i].is_some() {
            return Err(ProtocolError::ConflictingLinkOwnership { node: link.head });
        }
        link_of[i] = Some(link);
        remaining[i] = demand;
    }
    Ok((link_of, remaining))
}

/// Number of SCREAM bits an allocation spends announcing which of `channels`
/// orthogonal channels it claimed: `⌈log₂ C⌉`, i.e. zero on the single shared
/// channel.
fn channel_announcement_bits(channels: usize) -> u64 {
    if channels <= 1 {
        0
    } else {
        (channels - 1).ilog2() as u64 + 1
    }
}

/// Charges one channel announcement — `bits` SCREAM invocations of `K` slots
/// each, mirroring the per-bit cost of the elections — to the tallies. A
/// no-op at `C = 1` (`bits == 0`): the single shared channel needs no
/// announcement.
fn charge_channel_announcement(
    bits: u64,
    channel: &ScreamChannel<'_>,
    timing: &mut ProtocolTiming,
    stats: &mut RunStats,
) {
    if bits == 0 {
        return;
    }
    timing.add_scream_slots(bits * channel.scream_slots() as u64);
    stats.scream_invocations += bits;
    scream_obs::counter_add("runtime.announcement_bits", bits);
}

/// The result of one distributed scheduling run.
///
/// Not serde-deserializable because [`Schedule`] is not (its canonical
/// run-length invariant must be established by construction); serialize the
/// run and re-execute, or rebuild the schedule via `Schedule::from_runs`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistributedRun {
    /// The protocol variant that produced this run.
    pub kind: ProtocolKind,
    /// The computed STDMA schedule.
    pub schedule: Schedule,
    /// Counts of synchronized steps executed by the protocol.
    pub timing: ProtocolTiming,
    /// The per-step durations used to convert `timing` to wall-clock time.
    pub slot_timing: SlotTiming,
    /// Execution statistics (rounds, elections, vetoes, ...).
    pub stats: RunStats,
}

impl DistributedRun {
    /// Wall-clock execution time of the protocol run — the quantity plotted
    /// in Figures 8 and 9 of the paper.
    pub fn execution_time(&self) -> SimTime {
        self.timing.execution_time(&self.slot_timing)
    }

    /// Execution time in seconds.
    pub fn execution_secs(&self) -> f64 {
        self.execution_time().as_secs_f64()
    }

    /// Schedule-quality metrics for the demand instance this run was executed
    /// on — the quantities plotted in Figures 6 and 7.
    pub fn metrics(&self, demands: &LinkDemands) -> ScheduleMetrics {
        ScheduleMetrics::compute(&self.schedule, demands)
    }

    /// The computed schedule read as a repeating TDMA frame: per-link service
    /// windows and shares, indexed from the run-length representation. This
    /// is the hand-off from protocol execution to packet-level evaluation —
    /// feed it straight into a `scream_traffic::TrafficEngine` to measure
    /// the distributed schedule under sustained load.
    pub fn frame_service(&self) -> FrameService {
        FrameService::from_schedule(&self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScreamFidelity;
    use scream_netsim::{ClockSkewConfig, PropagationModel, RadioEnvironment};
    use scream_scheduling::{verify_schedule, EdgeOrdering, GreedyPhysical};
    use scream_topology::{
        DemandConfig, DemandVector, Deployment, GridDeployment, NodeId, RoutingForest,
        UniformDeployment,
    };

    /// Builds a complete small instance: deployment, environment, demands.
    fn grid_instance(
        side: usize,
        step: f64,
        seed: u64,
    ) -> (Deployment, RadioEnvironment, LinkDemands) {
        let d = GridDeployment::new(side, side, step).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&graph, &gws, seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gws, &mut rng);
        let ld = LinkDemands::aggregate(&forest, &demands).unwrap();
        (d, env, ld)
    }

    fn config_for(env: &RadioEnvironment) -> ProtocolConfig {
        ProtocolConfig::paper_default().with_scream_slots(env.interference_diameter().max(1))
    }

    #[test]
    fn fdd_satisfies_demands_with_feasible_slots() {
        let (_, env, ld) = grid_instance(4, 150.0, 1);
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        verify_schedule(&env, &run.schedule, &ld).unwrap();
        assert!(run.stats.terminated);
        assert_eq!(run.stats.rounds as usize, run.schedule.length());
    }

    #[test]
    fn fdd_recreates_the_centralized_greedy_physical_schedule() {
        // Theorem 4: FDD computes exactly the schedule of GreedyPhysical with
        // edges ordered by decreasing head id.
        for seed in [1u64, 3, 7] {
            let (_, env, ld) = grid_instance(4, 160.0, seed);
            let centralized =
                GreedyPhysical::new(EdgeOrdering::DecreasingHeadId).schedule(&env, &ld);
            let distributed = DistributedScheduler::fdd()
                .with_config(config_for(&env))
                .run(&env, &ld)
                .unwrap();
            assert_eq!(
                distributed.schedule, centralized,
                "FDD diverged from GreedyPhysical for seed {seed}"
            );
        }
    }

    #[test]
    fn frame_service_exposes_the_run_as_a_tdma_frame() {
        // The packet-level hand-off: the frame index of a distributed run
        // serves every demanded link for exactly its demand's worth of slots
        // per frame (the schedule satisfies demands exactly, so shares are
        // demand(e) / length).
        let (_, env, ld) = grid_instance(4, 150.0, 1);
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let frame = run.frame_service();
        assert_eq!(frame.frame_slots() as usize, run.schedule.length());
        for (link, demand) in ld.demanded_links() {
            assert_eq!(
                frame.service_slots(link),
                demand,
                "frame serves {link} once per demanded slot"
            );
            assert!(frame.service_share(link) > 0.0);
        }
    }

    #[test]
    fn afdd_schedule_equals_fdd_but_runs_faster() {
        let (_, env, ld) = grid_instance(4, 150.0, 2);
        let fdd = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let afdd = DistributedScheduler::afdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        assert_eq!(fdd.schedule, afdd.schedule);
        assert!(afdd.execution_time() < fdd.execution_time());
    }

    #[test]
    fn pdd_produces_valid_schedules_for_all_paper_probabilities() {
        let (_, env, ld) = grid_instance(4, 150.0, 5);
        for p in [0.2, 0.6, 0.8] {
            let run = DistributedScheduler::pdd(p)
                .expect("PDD activation probability is in (0, 1]")
                .with_config(config_for(&env))
                .run(&env, &ld)
                .unwrap();
            verify_schedule(&env, &run.schedule, &ld)
                .unwrap_or_else(|e| panic!("PDD(p={p}) produced an invalid schedule: {e}"));
            assert!(run.stats.terminated);
        }
    }

    #[test]
    fn pdd_is_never_better_than_its_own_serialized_bound_and_usually_close_to_fdd() {
        let (_, env, ld) = grid_instance(4, 150.0, 11);
        let fdd = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let pdd = DistributedScheduler::pdd(0.6)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        assert!(pdd.schedule.length() as u64 <= ld.total_demand());
        // PDD cannot beat the per-round greedy packing of FDD by much; allow
        // it to be better by chance but never by more than one slot, and
        // never more than 60% longer.
        assert!(pdd.schedule.length() + 1 >= fdd.schedule.length());
        assert!(pdd.schedule.length() as f64 <= fdd.schedule.length() as f64 * 1.6);
    }

    #[test]
    fn fdd_is_deterministic_across_seeds_and_pdd_is_not() {
        let (_, env, ld) = grid_instance(4, 150.0, 13);
        let fdd_a = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_seed(1))
            .run(&env, &ld)
            .unwrap();
        let fdd_b = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_seed(2))
            .run(&env, &ld)
            .unwrap();
        assert_eq!(fdd_a.schedule, fdd_b.schedule);

        let pdd_a = DistributedScheduler::pdd(0.3)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config_for(&env).with_seed(1))
            .run(&env, &ld)
            .unwrap();
        let pdd_b = DistributedScheduler::pdd(0.3)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config_for(&env).with_seed(2))
            .run(&env, &ld)
            .unwrap();
        // Same seed must reproduce exactly; different seeds generally differ
        // in schedule or at least in iteration counts.
        let pdd_a2 = DistributedScheduler::pdd(0.3)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config_for(&env).with_seed(1))
            .run(&env, &ld)
            .unwrap();
        assert_eq!(pdd_a.schedule, pdd_a2.schedule);
        assert!(
            pdd_a.schedule != pdd_b.schedule || pdd_a.stats != pdd_b.stats,
            "different seeds should change a randomized run"
        );
    }

    #[test]
    fn physical_and_ideal_scream_fidelity_agree_on_the_schedule() {
        let (_, env, ld) = grid_instance(3, 150.0, 3);
        let ideal = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_fidelity(ScreamFidelity::Ideal))
            .run(&env, &ld)
            .unwrap();
        let physical = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_fidelity(ScreamFidelity::Physical))
            .run(&env, &ld)
            .unwrap();
        assert_eq!(ideal.schedule, physical.schedule);
        assert_eq!(ideal.timing, physical.timing);
    }

    #[test]
    fn execution_time_grows_with_scream_size_interference_diameter_and_skew() {
        let (_, env, ld) = grid_instance(4, 150.0, 4);
        let base_cfg = config_for(&env);
        let base = DistributedScheduler::fdd()
            .with_config(base_cfg)
            .run(&env, &ld)
            .unwrap();

        let bigger_scream = DistributedScheduler::fdd()
            .with_config(base_cfg.with_scream_bytes(60))
            .run(&env, &ld)
            .unwrap();
        assert!(bigger_scream.execution_time() > base.execution_time());

        let larger_k = DistributedScheduler::fdd()
            .with_config(base_cfg.with_scream_slots(base_cfg.scream_slots * 4))
            .run(&env, &ld)
            .unwrap();
        assert!(larger_k.execution_time() > base.execution_time());

        let skewed = DistributedScheduler::fdd()
            .with_config(base_cfg.with_clock_skew(ClockSkewConfig::new(SimTime::from_millis(1))))
            .run(&env, &ld)
            .unwrap();
        assert!(skewed.execution_time() > base.execution_time());
        // The schedule itself is unaffected by any of these knobs.
        assert_eq!(bigger_scream.schedule, base.schedule);
        assert_eq!(larger_k.schedule, base.schedule);
        assert_eq!(skewed.schedule, base.schedule);
    }

    #[test]
    fn pdd_runs_faster_than_fdd_on_the_same_instance() {
        let (_, env, ld) = grid_instance(4, 150.0, 6);
        let fdd = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let pdd = DistributedScheduler::pdd(0.6)
            .expect("PDD activation probability is in (0, 1]")
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        assert!(
            pdd.execution_time() < fdd.execution_time(),
            "PDD ({}) should be faster than FDD ({})",
            pdd.execution_time(),
            fdd.execution_time()
        );
    }

    #[test]
    fn half_duplex_is_enforced_at_low_sinr_thresholds() {
        // Regression test for the endpoint-sharing loophole: on a chain
        // u -> v -> w, the SINR interferer-exclusion rule skips the shared
        // node v in both directions, so at a low threshold (β = 6 dB, the
        // paper-scenario setting) both handshakes "pass" even though v would
        // have to transmit and receive simultaneously. The runtime's
        // half-duplex screen must reject the second claim, keeping the FDD
        // schedule verifiable and equal to GreedyPhysical (Theorem 4).
        let d = GridDeployment::new(6, 1, 150.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(scream_netsim::RadioConfig::mesh_default().with_sinr_threshold_db(6.0))
            .build(&d);
        let chain = [
            (Link::new(NodeId::new(2), NodeId::new(1)), 2u64),
            (Link::new(NodeId::new(1), NodeId::new(0)), 2),
        ];
        // Without the screen, both links pass their handshakes concurrently.
        let both = [chain[0].0, chain[1].0];
        assert!(env.handshake_ok(chain[0].0, &both));
        assert!(env.handshake_ok(chain[1].0, &both));
        assert!(!scream_scheduling::SlotFeasibility::slot_feasible(
            &env, &both
        ));

        let ld = LinkDemands::from_links(6, &chain).unwrap();
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        verify_schedule(&env, &run.schedule, &ld).unwrap();
        let centralized = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        assert_eq!(run.schedule, centralized);
        assert!(run.schedule.runs().all(|(slot, _)| slot.len() == 1));
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let (_, env, _) = grid_instance(3, 150.0, 1);
        let wrong =
            LinkDemands::from_links(4, &[(Link::new(NodeId::new(1), NodeId::new(0)), 1)]).unwrap();
        let err = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &wrong)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::NodeCountMismatch { .. }));
    }

    #[test]
    fn insufficient_scream_slots_are_rejected() {
        let (_, env, ld) = grid_instance(5, 200.0, 1);
        let id = env.interference_diameter();
        assert!(id > 1);
        let err = DistributedScheduler::fdd()
            .with_config(ProtocolConfig::paper_default().with_scream_slots(1))
            .run(&env, &ld)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::ScreamSlotsTooSmall { .. }));
    }

    #[test]
    fn round_limit_aborts_a_run() {
        let (_, env, ld) = grid_instance(4, 150.0, 8);
        let err = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_max_rounds(1))
            .run(&env, &ld)
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::RoundLimitExceeded { limit: 1, .. }
        ));
    }

    #[test]
    fn round_limit_boundary_is_exact_and_reports_progress() {
        // `with_max_rounds(k)` permits exactly k full rounds: the number of
        // rounds the unbounded run needs must succeed, one fewer must fail —
        // before constructing the final round, with the progress attached.
        let (_, env, ld) = grid_instance(4, 150.0, 8);
        let unbounded = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let rounds_needed = unbounded.stats.rounds;
        assert!(rounds_needed > 1, "the instance must need several rounds");

        let exact = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_max_rounds(rounds_needed))
            .run(&env, &ld)
            .unwrap();
        assert_eq!(exact.schedule, unbounded.schedule);
        assert!(exact.stats.terminated);

        let err = DistributedScheduler::fdd()
            .with_config(config_for(&env).with_max_rounds(rounds_needed - 1))
            .run(&env, &ld)
            .unwrap_err();
        match err {
            ProtocolError::RoundLimitExceeded {
                limit,
                rounds_executed,
                unsatisfied_links,
                slots_built,
            } => {
                assert_eq!(limit, rounds_needed - 1);
                assert_eq!(rounds_executed, rounds_needed - 1);
                assert_eq!(slots_built as u64, rounds_needed - 1);
                assert!(
                    unsatisfied_links > 0,
                    "aborting before the final round must leave demand unsatisfied"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn conflicting_link_ownership_is_rejected_not_aliased() {
        // Two demanded links sharing head node 1: the guarded constructor
        // refuses the instance, and a runtime handed one anyway (via the
        // unchecked constructor) must reject it instead of silently aliasing
        // both demands onto one per-node counter and dropping traffic.
        let d = GridDeployment::new(4, 1, 150.0).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let shared_head = [
            (Link::new(NodeId::new(1), NodeId::new(0)), 2u64),
            (Link::new(NodeId::new(1), NodeId::new(2)), 2),
        ];
        assert!(LinkDemands::from_links(4, &shared_head).is_err());
        let ld = LinkDemands::from_links_unchecked(4, &shared_head).unwrap();
        let err = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::ConflictingLinkOwnership {
                node: NodeId::new(1)
            }
        );
    }

    /// Builds a grid instance whose radio config provides `channels`
    /// orthogonal channels (the deployment, demands and gains are the same
    /// for every channel count).
    fn channel_grid_instance(
        side: usize,
        step: f64,
        seed: u64,
        channels: usize,
    ) -> (RadioEnvironment, LinkDemands) {
        let d = GridDeployment::new(side, side, step).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(scream_netsim::RadioConfig::mesh_default().with_channel_count(channels))
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
    fn channel_aware_fdd_matches_channel_aware_greedy_physical() {
        // Theorem 4, extended: on a multi-channel environment FDD recreates
        // the channel-aware GreedyPhysical schedule exactly — channel tags
        // included — and the run verifies under the per-channel rules.
        for channels in [2usize, 4] {
            for seed in [1u64, 7] {
                let (env, ld) = channel_grid_instance(4, 160.0, seed, channels);
                let centralized =
                    GreedyPhysical::new(EdgeOrdering::DecreasingHeadId).schedule(&env, &ld);
                let run = DistributedScheduler::fdd()
                    .with_config(config_for(&env))
                    .run(&env, &ld)
                    .unwrap();
                verify_schedule(&env, &run.schedule, &ld).unwrap();
                assert_eq!(
                    run.schedule, centralized,
                    "channel-aware FDD diverged for seed {seed}, C = {channels}"
                );
                assert!(run.stats.terminated);
            }
        }
    }

    #[test]
    fn multi_channel_run_shortens_the_schedule() {
        let (env1, ld) = channel_grid_instance(4, 150.0, 3, 1);
        let (env2, ld2) = channel_grid_instance(4, 150.0, 3, 2);
        assert_eq!(ld, ld2, "the instance draw is channel-independent");
        let single = DistributedScheduler::fdd()
            .with_config(config_for(&env1))
            .run(&env1, &ld)
            .unwrap();
        let dual = DistributedScheduler::fdd()
            .with_config(config_for(&env2))
            .run(&env2, &ld)
            .unwrap();
        verify_schedule(&env2, &dual.schedule, &ld).unwrap();
        assert!(dual.schedule.length() <= single.schedule.length());
        assert!(dual.schedule.channels_used() >= 1);
        assert!(dual.stats.terminated);
    }

    #[test]
    fn channel_announcements_cost_log2_c_scream_bits_per_allocation() {
        // Two far-apart links already share every slot on one channel, so
        // the C = 2 run computes the *identical* schedule through identical
        // rounds — the only timing difference is the channel-announcement
        // cost: ⌈log₂ 2⌉ = 1 SCREAM invocation (K slots) per allocation.
        let d = GridDeployment::new(8, 1, 200.0).build();
        let build = |channels: usize| {
            RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .config(scream_netsim::RadioConfig::mesh_default().with_channel_count(channels))
                .build(&d)
        };
        let env1 = build(1);
        let env2 = build(2);
        let ld = LinkDemands::from_links(
            8,
            &[
                (Link::new(NodeId::new(1), NodeId::new(0)), 3u64),
                (Link::new(NodeId::new(7), NodeId::new(6)), 3),
            ],
        )
        .unwrap();
        let config = config_for(&env1);
        assert_eq!(config.scream_slots, config_for(&env2).scream_slots);
        let single = DistributedScheduler::fdd()
            .with_config(config)
            .run(&env1, &ld)
            .unwrap();
        let dual = DistributedScheduler::fdd()
            .with_config(config)
            .run(&env2, &ld)
            .unwrap();
        assert_eq!(dual.schedule, single.schedule, "no channel benefit here");
        let allocations = single.schedule.total_transmissions();
        assert_eq!(allocations, 6);
        assert_eq!(
            dual.timing.scream_slots - single.timing.scream_slots,
            allocations * config.scream_slots as u64,
            "one announcement bit (K scream slots) per allocation"
        );
        assert_eq!(
            dual.stats.scream_invocations - single.stats.scream_invocations,
            allocations
        );
        // The channel-assignment phase spans one handshake sub-slot per
        // channel, so the C = 2 run charges exactly twice the handshake
        // time over the same iterations.
        assert_eq!(
            dual.timing.handshake_slots,
            2 * single.timing.handshake_slots
        );
        assert_eq!(dual.stats.slot_iterations, single.stats.slot_iterations);
        assert_eq!(dual.timing.sync_steps, single.timing.sync_steps);
        assert!(dual.execution_time() > single.execution_time());
    }

    #[test]
    fn max_channels_caps_the_runtime_below_the_environment() {
        // C = 1 is a value of the one runtime, not a second runtime: a
        // 2-channel environment capped at max_channels = 1 must equal the
        // same geometry built with one channel — schedule, timing, stats —
        // for every protocol variant (the cap is how sweeps compare the
        // runtime against its single-channel self on one instance), with one
        // handshake slot per iteration and no channel announcement.
        let (env1, ld) = channel_grid_instance(4, 150.0, 5, 1);
        let (env2, ld2) = channel_grid_instance(4, 150.0, 5, 2);
        assert_eq!(ld, ld2, "the instance draw is channel-independent");
        for scheduler in [
            DistributedScheduler::fdd(),
            DistributedScheduler::afdd(),
            DistributedScheduler::pdd(0.6).unwrap(),
        ] {
            scream_obs::install();
            let capped = scheduler
                .with_config(config_for(&env2).with_max_channels(1))
                .run(&env2, &ld)
                .unwrap();
            let observed = scream_obs::uninstall().expect("installed above").snapshot;
            assert_eq!(observed.counter("runtime.announcement_bits"), 0);
            assert!(
                observed.counter("runtime.rounds") > 0,
                "the run was observed"
            );
            let single = scheduler
                .with_config(config_for(&env1))
                .run(&env1, &ld)
                .unwrap();
            assert_eq!(capped, single, "{:?} diverged at C = 1", scheduler.kind);
            assert!(capped.schedule.runs().all(|(p, _)| p.is_single_channel()));
            assert_eq!(capped.stats.handshake_steps, capped.stats.slot_iterations);
        }
    }

    #[test]
    fn empty_demand_instance_terminates_immediately() {
        let d = GridDeployment::new(3, 3, 150.0).build();
        let env = RadioEnvironment::builder().build(&d);
        let ld = LinkDemands::from_links(9, &[]).unwrap();
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        assert!(run.schedule.is_empty());
        assert!(run.stats.terminated);
        assert_eq!(run.stats.rounds, 0);
        assert!(
            run.execution_time() > SimTime::ZERO,
            "the final election still costs time"
        );
    }

    #[test]
    fn uniform_random_unplanned_instance_is_scheduled_correctly() {
        // The paper's "unplanned" scenario: uniform placement, heterogeneous
        // transmit power.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let d = UniformDeployment::new(25, 700.0)
            .heterogeneous_power(6.0)
            .build_connected(&mut rng, 180.0, 100)
            .unwrap();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        if !graph.is_connected() {
            // SINR-based graph can be sparser than the unit-disk check used
            // for the draw; skip in that rare case rather than flake.
            return;
        }
        let gws = vec![d.corner_nodes()[0]];
        let forest = RoutingForest::shortest_path(&graph, &gws, 21).unwrap();
        let demands = DemandVector::generate(d.len(), DemandConfig::PAPER, &gws, &mut rng);
        let ld = LinkDemands::aggregate(&forest, &demands).unwrap();
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        verify_schedule(&env, &run.schedule, &ld).unwrap();
        let centralized = GreedyPhysical::paper_baseline().schedule(&env, &ld);
        assert_eq!(run.schedule, centralized);
    }

    #[test]
    fn run_metrics_reports_improvement_over_linear() {
        let (_, env, ld) = grid_instance(4, 150.0, 9);
        let run = DistributedScheduler::fdd()
            .with_config(config_for(&env))
            .run(&env, &ld)
            .unwrap();
        let m = run.metrics(&ld);
        assert_eq!(m.length, run.schedule.length());
        assert_eq!(m.serialized_length, ld.total_demand());
        assert!(m.improvement_over_linear_pct >= 0.0);
    }
}
