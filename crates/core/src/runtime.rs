//! The distributed scheduling runtime: a faithful synchronous simulation of
//! the PDD/FDD/AFDD round structure over a radio environment.
//!
//! The runtime executes the protocols exactly as specified in Section III:
//! rounds of leader election and iterative slot construction, with every
//! handshake outcome taken from the SINR physics of the environment.
//!
//! # One tally, and the exact OR is a value
//!
//! A run has one tally, its [`RunStats`]: every SCREAM, handshake step and
//! `GlobalSync()` barrier is one count there. The [`ProtocolTiming`] behind
//! the execution time (Figures 8 and 9) is derived from it once, at the end
//! of the run — `K` slots per SCREAM, one handshake slot per handshake step,
//! one barrier per sync step — so the two cannot disagree, and a hostile `K`
//! saturates instead of overflowing. The run builds a [`ScreamChannel`] only
//! to check `K ≥ ID(G_S)`; with it every OR is exact, so the runtime reads
//! what a deployment would flood off the ascending list of dormant node ids:
//! an election's winner is the list's last id, the veto OR is
//! `!existing_ok`, the still-active OR is whether the list is non-empty and
//! the release OR is whether the controller's demand reached zero. Every
//! SCREAM is still counted, so the tally stays logical: it counts what the
//! protocol performs, not the host work.
//!
//! # Rounds are run-length
//!
//! A round is a value: the slot pattern it seals plus the [`RunStats`] it
//! charged (slot construction, channel announcements and the control-release
//! check; the hand-over election between controllers is outside it). Under
//! FDD and AFDD that value is a pure function of the controller and the set
//! of nodes with pending demand, so until one of the sealed links runs out of
//! demand the next round is the same value again. The runtime therefore
//! simulates each distinct round once and applies it `repeat` times, `repeat`
//! being the least remaining demand over the sealed links (cut at the round
//! limit): the pattern is pushed with that multiplicity, the counts are
//! multiplied, and control is released iff the controller reached zero. Every
//! logical round is still charged; only the host stops re-deriving it. PDD
//! draws fresh activation randomness in every round, so its `repeat` is
//! always 1: one loop with a multiplicity, not a second path. The
//! `runtime.rounds.executed` counter reports the rounds actually simulated
//! next to the logical `runtime.rounds`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scream_netsim::{
    ChannelId, ChannelSlotLedger, ProtocolTiming, RadioEnvironment, SimTime, SlotAccumulator,
    SlotTiming,
};
use scream_scheduling::{FrameService, Schedule, ScheduleMetrics, SlotPattern};
use scream_topology::{Link, LinkDemands, NodeId};

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::protocol::ProtocolKind;
use crate::scream::ScreamChannel;
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

    /// Executes the protocol on the given radio environment and demand
    /// instance, returning the computed schedule together with its timing and
    /// statistics.
    ///
    /// # Channels
    ///
    /// Each round's slot is a set of `(channel, link)` claims. The controller
    /// opens it on channel 0; every newly activated edge first-fits into the
    /// cheapest channel whose handshake it completes
    /// ([`ChannelSlotLedger::probe_claims`]: per-channel SINR plus one radio
    /// per node). Every allocation announces its channel in `⌈log₂ C⌉` extra
    /// SCREAMs, like the per-bit elections, and each iteration's handshake
    /// step spans one sub-slot per channel. With one channel — the paper's
    /// setting — that is no announcement and one handshake slot per
    /// iteration: the paper's protocol is the `C = 1` value of this loop
    /// (pinned by the `single_channel_runtime_reduction_is_exact` property
    /// test).
    ///
    /// # Replay
    ///
    /// FDD and AFDD simulate each distinct round once and apply it for its
    /// multiplicity; PDD, whose rounds draw fresh randomness, applies every
    /// round once (see the [module docs](self)). The result — schedule,
    /// [`ProtocolTiming`], [`RunStats`] — is the one a round-at-a-time
    /// execution produces; only the host cost differs.
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
        let k = ScreamChannel::new(env, &self.config)?.scream_slots() as u64;
        let n = env.node_count();
        let slot_timing = SlotTiming::derive(self.config.scream_bytes, self.config.clock_skew);
        let (link_of, mut remaining) = per_node_links(demands)?;
        let round_limit = self.config.round_limit(demands.total_demand());
        let channel_count = env.channel_count();
        let mut sim = Simulation {
            kind: self.kind,
            id_bits: u64::from(NodeId::id_bits(n)),
            channel_count,
            channel_bits: channel_announcement_bits(channel_count),
            link_of,
            rng: ChaCha8Rng::seed_from_u64(self.config.seed),
            ledger: ChannelSlotLedger::new(env),
            dormant: Vec::with_capacity(n),
            activated: vec![NodeId::default(); n],
            actives: Vec::new(),
        };

        let mut stats = RunStats::default();
        let mut schedule = Schedule::new();
        let mut controller: Option<Link> = None;

        loop {
            let ctrl = match controller {
                Some(held) => held,
                // A new controller must be elected among the nodes that still
                // have pending demand; when nobody is left the algorithm
                // terminates.
                None => match sim.elect_controller(&remaining, &mut stats) {
                    Some(elected) => elected,
                    None => break,
                },
            };

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

            let (pattern, mut round) = sim.build_round(ctrl, &remaining);

            // A deterministic round recurs unchanged until one of its links
            // is satisfied (module docs); a randomized one is applied once.
            let repeat = if self.kind.is_deterministic() {
                pattern
                    .links()
                    .iter()
                    .map(|link| remaining[link.head.index()])
                    .min()
                    .unwrap_or(1)
                    .min(round_limit - stats.rounds)
            } else {
                1
            };
            for link in pattern.links() {
                remaining[link.head.index()] -= repeat;
            }

            // Control-release check, once per logical round: the controller
            // screams iff its demand is now satisfied, releasing control for
            // the next round. Only the last of the `repeat` checks can carry
            // a scream, and that is the one simulated; all cost the same.
            round.sync_steps += 1;
            let released = scream(&mut round, remaining[ctrl.head.index()] == 0);
            controller = (!released).then_some(ctrl);

            stats.add_repeated(&round, repeat);
            let claims = pattern.len() as u64;
            schedule.push_pattern_run(pattern, repeat);
            scream_obs::set_round(stats.rounds);
            scream_obs::set_slot(schedule.length() as u64);
            scream_obs::counter_add("runtime.rounds", repeat);
            scream_obs::counter_add("runtime.rounds.executed", 1);
            scream_obs::counter_add("runtime.claims", claims * repeat);
            if round.vetoes > 0 {
                scream_obs::counter_add("runtime.vetoes", round.vetoes * repeat);
            }
            if sim.channel_bits > 0 {
                scream_obs::counter_add(
                    "runtime.announcement_bits",
                    sim.channel_bits * claims * repeat,
                );
            }
            scream_obs::event("runtime.round", [("claims", claims), ("repeat", repeat)]);
        }

        stats.terminated = remaining.iter().all(|&r| r == 0);
        Ok(DistributedRun {
            kind: self.kind,
            schedule,
            timing: ProtocolTiming {
                scream_slots: stats.scream_invocations.saturating_mul(k),
                handshake_slots: stats.handshake_steps,
                sync_steps: stats.sync_steps,
            },
            slot_timing,
            stats,
        })
    }
}

/// What one run carries from round to round besides the remaining demand:
/// the activation randomness and the buffers every round reuses
/// (cleared, never reallocated).
///
/// Of the per-node states of Figure 1 only dormancy is tracked: the
/// controller is carried by the run loop, ALLOCATED edges are the ledger's
/// contents, and ACTIVE / TRIED / COMPLETE nodes are exactly the non-dormant
/// rest — nothing in the protocol reads them apart.
struct Simulation<'a> {
    kind: ProtocolKind,
    id_bits: u64,
    channel_count: usize,
    channel_bits: u64,
    /// The uplink each node owns, if it has demand.
    link_of: Vec<Option<Link>>,
    rng: ChaCha8Rng,
    /// The interference ledger of the slot under construction.
    ledger: ChannelSlotLedger<'a>,
    /// The nodes with pending demand not yet picked into an active subset of
    /// the current slot, in ascending id order — at a hand-over, every node
    /// with pending demand (the election's candidates).
    dormant: Vec<NodeId>,
    /// PDD's scratch, one entry per node: the nodes one activation pass
    /// picked, in ascending order.
    activated: Vec<NodeId>,
    /// The edges activated in the current iteration.
    actives: Vec<Link>,
}

impl Simulation<'_> {
    /// A full leader election among the dormant nodes, counted as its
    /// `id_bits` SCREAMs: the highest id wins (Section III-B), which with
    /// every OR exact is the list's last id.
    fn elect(&self, stats: &mut RunStats) -> Option<NodeId> {
        stats.elections += 1;
        stats.scream_invocations += self.id_bits;
        self.dormant.last().copied()
    }

    /// Control hand-over: a full election among the nodes with pending
    /// demand (completed nodes participate passively), then termination
    /// detection — the winner, if any, screams; if the OR comes back false,
    /// every node learns that no demand is left.
    fn elect_controller(&mut self, remaining: &[u64], stats: &mut RunStats) -> Option<Link> {
        stats.sync_steps += 1;
        self.dormant.clear();
        self.dormant.extend(pending(remaining));
        let elected = self.elect(stats).and_then(|w| self.link_of[w.index()]);

        stats.sync_steps += 1;
        let any_controller = scream(stats, elected.is_some());
        elected.filter(|_| any_controller)
    }

    /// `GreedyScheduleSlot`: constructs one round's slot around the
    /// controller's edge and seals it, returning the pattern and what the
    /// round charged up to the seal.
    fn build_round(&mut self, ctrl: Link, remaining: &[u64]) -> (SlotPattern, RunStats) {
        let mut round = RunStats::default();
        self.dormant.clear();
        self.dormant
            .extend(pending(remaining).filter(|&node| node != ctrl.head));
        // The controller opens the slot on channel 0 (a fresh slot's
        // cheapest channel).
        self.ledger.clear();
        self.ledger.assign(ChannelId::ZERO, ctrl);

        loop {
            round.slot_iterations += 1;

            // SelectActive: the only place the three protocol variants
            // differ. The activated nodes leave DORMANT.
            self.select_active(&mut round);

            // Handshake time step: every CONTROL/ALLOCATED/ACTIVE edge
            // performs its two-way handshake concurrently, each tentative
            // edge first-fitting into the cheapest channel it survives on
            // (a channel whose scheduled edges are disturbed admits no
            // claim). The phase is one sub-slot per channel, fixed in
            // advance — a one-radio node cannot probe two channels at once
            // — so the iteration counts C handshake steps.
            round.sync_steps += 1;
            round.handshake_steps += self.channel_count as u64;
            let probe = self.ledger.probe_claims(&self.actives);

            // Verification time step: previously scheduled edges hold
            // veto power — if any of them failed its handshake on its
            // channel, it SCREAMs; the claims of a vetoed channel have
            // already withdrawn. The veto travels by SCREAM: one
            // network-wide OR either way.
            round.sync_steps += 1;
            if scream(&mut round, !probe.existing_ok) {
                round.vetoes += 1;
            }
            // A claimed edge is ALLOCATED, the rest are TRIED until the next
            // round.
            for (&link, claim) in self.actives.iter().zip(&probe.assignments) {
                match claim {
                    Some(claimed) => self.ledger.assign(*claimed, link),
                    None => round.tried_transitions += 1,
                }
            }

            // stillActives check: dormant nodes scream so that everyone
            // learns whether another iteration is needed.
            round.sync_steps += 1;
            if !scream(&mut round, !self.dormant.is_empty()) {
                break;
            }
        }

        // Seal the slot: the controller's edge plus every allocated edge
        // with its claimed channel — exactly the ledger's contents. At
        // C = 1 every entry sits on channel 0, so the pattern stores no
        // channel tags and the representation is the single-channel one.
        let pattern = SlotPattern::from_entries(self.ledger.assignments());
        // Because the handshake outcome is local physics, every claim — the
        // controller's included — announces its channel: `⌈log₂ C⌉` SCREAM
        // invocations, mirroring the per-bit cost of the elections. Nothing
        // at C = 1: the single shared channel needs no announcement.
        round.scream_invocations += self.channel_bits * pattern.len() as u64;
        round.rounds = 1;
        (pattern, round)
    }

    /// The `SelectActive()` function of Section III, filling `self.actives`
    /// and taking the activated nodes out of `self.dormant`: PDD activates
    /// each dormant node independently with probability `p`; FDD elects the
    /// highest-id dormant node through a full leader election; AFDD announces
    /// the highest-id dormant node with a single SCREAM (see
    /// [`ProtocolKind::Afdd`]).
    fn select_active(&mut self, round: &mut RunStats) {
        self.actives.clear();
        let highest = match self.kind {
            ProtocolKind::Pdd { probability } => {
                // One draw per dormant node in ascending order — the order
                // the seeded draw stream is consumed in. Each node is written
                // to both lists and only the count of the one it belongs to
                // advances: the draw is a coin flip no branch predictor
                // learns, so nothing branches on it.
                let (mut kept, mut picked) = (0, 0);
                for at in 0..self.dormant.len() {
                    let node = self.dormant[at];
                    let active = self.rng.gen_bool(probability);
                    self.dormant[kept] = node;
                    self.activated[picked] = node;
                    kept += usize::from(!active);
                    picked += usize::from(active);
                }
                self.dormant.truncate(kept);
                self.actives.extend(
                    self.activated[..picked]
                        .iter()
                        .filter_map(|node| self.link_of[node.index()]),
                );
                return;
            }
            ProtocolKind::Fdd => self.elect(round),
            ProtocolKind::Afdd => {
                // One SCREAM announces whether any dormant node remains; the
                // identity of the highest-id dormant node is known to all from
                // cached candidate order (our interpretation of AFDD).
                scream(round, !self.dormant.is_empty());
                self.dormant.last().copied()
            }
        };
        if let Some(node) = highest {
            if let Ok(at) = self.dormant.binary_search(&node) {
                self.dormant.remove(at);
            }
            self.actives.extend(self.link_of[node.index()]);
        }
    }
}

/// One SCREAM, counted in `stats`: whether anyone screamed (`any`), as every
/// node learns it — the OR is exact (module docs).
fn scream(stats: &mut RunStats, any: bool) -> bool {
    stats.scream_invocations += 1;
    any
}

/// The nodes with pending demand, in ascending id order.
fn pending(remaining: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    (0..remaining.len() as u32)
        .map(NodeId::new)
        .filter(|node| remaining[node.index()] > 0)
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
    channels.next_power_of_two().trailing_zeros().into()
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
    pub(crate) slot_timing: SlotTiming,
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
    use crate::election::LeaderElection;
    use scream_netsim::{ClockSkewConfig, PropagationModel, RadioEnvironment};
    use scream_scheduling::{verify_schedule, EdgeOrdering, GreedyPhysical};
    use scream_topology::{
        DemandConfig, DemandVector, Deployment, GridDeployment, Meters, NodeId, RoutingForest,
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
        // Without the screen, both links pass their handshakes concurrently:
        // every SINR margin clears β, and only half-duplex fails the slot.
        let both = scream_netsim::SlotLedger::with_links(&env, &[chain[0].0, chain[1].0]);
        assert!(both.all_links_ok());
        assert!(!both.slot_feasible());

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
    fn a_hostile_scream_length_saturates_instead_of_overflowing() {
        // K = usize::MAX passes the K ≥ ID(G_S) check, so every product and
        // sum involving it must saturate — in a debug build too.
        let (_, env, ld) = grid_instance(3, 150.0, 1);
        let config = ProtocolConfig::paper_default().with_scream_slots(usize::MAX);
        for scheduler in [
            DistributedScheduler::fdd(),
            DistributedScheduler::afdd(),
            DistributedScheduler::pdd(0.6).unwrap(),
        ] {
            let run = scheduler.with_config(config).run(&env, &ld).unwrap();
            assert!(run.stats.terminated && run.stats.rounds > 0);
            assert_eq!(run.timing.scream_slots, u64::MAX);
            assert_eq!(run.execution_time(), SimTime::from_nanos(u64::MAX));
        }
        let channel = ScreamChannel::new(&env, &config).unwrap();
        let mut timing = ProtocolTiming::new();
        let flags = vec![true; env.node_count()];
        channel.network_or(&flags, &mut timing).unwrap();
        channel.network_or(&flags, &mut timing).unwrap();
        let winner = LeaderElection::new().elect(&channel, &flags, &mut timing);
        assert_eq!(winner, Ok(Some(NodeId::new(8))));
        assert_eq!(timing.scream_slots, u64::MAX);
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
    #[expect(
        clippy::disallowed_methods,
        reason = "a test walks the frame slot by slot to say what k rounds leave unserved"
    )]
    fn round_limit_boundary_is_exact_and_reports_progress() {
        // `with_max_rounds(k)` permits exactly k full rounds: the number of
        // rounds the unbounded run needs must succeed, and every smaller k
        // must fail before constructing round k + 1 with exactly the first k
        // slots' progress attached — a replayed batch that straddles the
        // limit is cut, never rounded up or down.
        let (_, env, ld) = grid_instance(4, 150.0, 8);
        for scheduler in [DistributedScheduler::fdd(), DistributedScheduler::afdd()] {
            let unbounded = scheduler
                .with_config(config_for(&env))
                .run(&env, &ld)
                .unwrap();
            let rounds_needed = unbounded.stats.rounds;
            assert!(
                unbounded.schedule.pattern_count() < rounds_needed as usize,
                "the instance must replay some rounds"
            );

            let exact = scheduler
                .with_config(config_for(&env).with_max_rounds(rounds_needed))
                .run(&env, &ld)
                .unwrap();
            assert_eq!(exact, unbounded);
            assert!(exact.stats.terminated);

            // What the first k slots of the full schedule leave unserved.
            let mut unserved: std::collections::BTreeMap<Link, u64> = ld.demanded_links().collect();
            let mut slots = unbounded.schedule.slots();
            for k in 0..rounds_needed {
                let err = scheduler
                    .with_config(config_for(&env).with_max_rounds(k))
                    .run(&env, &ld)
                    .unwrap_err();
                assert_eq!(
                    err,
                    ProtocolError::RoundLimitExceeded {
                        limit: k,
                        rounds_executed: k,
                        unsatisfied_links: unserved.values().filter(|&&d| d > 0).count(),
                        slots_built: k as usize,
                    }
                );
                for link in slots.next().expect("slot k exists").links() {
                    *unserved
                        .get_mut(link)
                        .expect("scheduled links are demanded") -= 1;
                }
            }
            assert!(unserved.values().all(|&d| d == 0));
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
    fn one_channel_runs_pay_one_handshake_and_no_announcement() {
        // C = 1 is a value of the one runtime, not a second runtime: on a
        // one-channel environment every protocol variant charges one
        // handshake slot per iteration and announces no channel.
        let (env, ld) = channel_grid_instance(4, 150.0, 5, 1);
        for scheduler in [
            DistributedScheduler::fdd(),
            DistributedScheduler::afdd(),
            DistributedScheduler::pdd(0.6).unwrap(),
        ] {
            scream_obs::install();
            let run = scheduler
                .with_config(config_for(&env))
                .run(&env, &ld)
                .unwrap();
            let observed = scream_obs::uninstall().expect("installed above").snapshot;
            assert_eq!(observed.counter("runtime.announcement_bits"), 0);
            assert_eq!(observed.counter("runtime.rounds"), run.stats.rounds);
            assert!(run.stats.rounds > 0, "{:?} ran", scheduler.kind);
            assert!(run.schedule.runs().all(|(p, _)| p.is_single_channel()));
            assert_eq!(run.stats.handshake_steps, run.stats.slot_iterations);
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
            .build_connected(&mut rng, Meters::new(180.0), 100)
            .unwrap();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        // The SINR graph can be sparser than the unit-disk check the draw
        // passed; this draw's is connected, and a test that stopped here
        // would judge nothing.
        let graph = env.communication_graph();
        assert!(graph.is_connected());
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
