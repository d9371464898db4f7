//! The epoch-driven recovery loop: inject a [`ChurnTrace`] into a running
//! traffic session, reroute and repair around what broke, and measure how
//! gracefully the network degraded.
//!
//! [`ResilienceHarness::run`] drives one experiment:
//!
//! 1. build the pre-fault world — routing forest, link demands, a
//!    [`GreedyPhysical`] schedule of length `F₀`, and per-node sources
//!    offering `ρ · demand(v) / F₀` packets per slot (so every link sits at
//!    utilization ρ, exactly the paper's load model);
//! 2. advance a [`TrafficSession`] epoch by epoch, pausing at every fault
//!    slot;
//! 3. at each fault, update the fault state and — under
//!    [`ReschedulerConfig::default`] — **reschedule**: rebuild the routing
//!    forest over the live communication graph, masked by the dead links
//!    and nodes ([`RoutingForest::shortest_path_masked`]; no copy), zero
//!    the demands of dead and cut-off nodes, patch the compact schedule
//!    with [`repair_schedule`] (incremental run-level repair,
//!    verify-or-rebuild), swap the repaired frame and new routes into the
//!    live session, and [rescue](TrafficSession::rescue_stranded) the
//!    packets stranded on dead or no-longer-served links. A batch that
//!    leaves the demand target, the routes and the environment as they were
//!    (a non-tree link going down, a flow stop) skips the repair: the frame
//!    was built or repaired for that target on that environment, and
//!    repairing such a frame hands it back unchanged;
//! 4. after each repair, run **admission control**: while the analytic
//!    verdict is Overloaded, defer (pause) the highest-rate source crossing
//!    a bottleneck link — deferred sources are re-admitted at the next
//!    reschedule if capacity has returned;
//! 5. at each epoch boundary, read the session's cumulative
//!    [`SessionTotals`]: an epoch is the difference of the readings at its
//!    two ends, so the packets a rescue drops between segments count in the
//!    epoch their fault batch opens; report the epochs, every repair taken,
//!    and the headline graceful-degradation metrics ([`ResilienceReport`]).
//!
//! Under [`ReschedulerConfig::baseline`] the harness is the **no-repair
//! baseline**: faults still strand packets and kill service, but nothing
//! reroutes or defers — the degradation the rescheduler is supposed to
//! prevent.
//!
//! Shadowing fades ([`FaultKind::Fade`]) redraw the radio environment's
//! shadowing field. The packet engine does not model SINR loss, so a fade
//! acts through the *scheduling* path: the next repair is probed and
//! verified against the faded environment, falling back to a full rebuild
//! when the old slot groupings are no longer feasible.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use scream_netsim::{Db, RadioEnvironment};
use scream_scheduling::{repair_schedule, FrameService, GreedyPhysical, Schedule};
use scream_topology::{
    DemandVector, Graph, Link, LinkDemands, NodeId, RoutingForest, TopologyError,
};
use scream_traffic::{
    ArrivalProcess, ForwardingTable, SessionTotals, Source, StabilityVerdict, TrafficConfig,
    TrafficError, TrafficSession,
};

use crate::fault::{ChurnTrace, FaultKind};
use crate::report::{EpochMetrics, RepairRecord, ResilienceReport};

/// Which recovery loop runs: the rescheduler ([`default`](Self::default))
/// or the no-repair baseline ([`baseline`](Self::baseline)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReschedulerConfig {
    /// Whether to reroute demands, repair the frame and defer flows that no
    /// longer fit after each fault.
    repair: bool,
}

impl Default for ReschedulerConfig {
    fn default() -> Self {
        Self { repair: true }
    }
}

impl ReschedulerConfig {
    /// The no-repair, no-admission baseline configuration.
    pub fn baseline() -> Self {
        Self { repair: false }
    }
}

/// Why a resilience run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilienceError {
    /// Building routes or demands failed (bad gateway set, …).
    Topology(TopologyError),
    /// Driving the traffic session failed (empty frame, …).
    Traffic(TrafficError),
    /// No node offers traffic: every demand is zero or unreachable.
    NoSources,
    /// The horizon is zero slots.
    ZeroHorizon,
    /// The [`FaultKind::Fade`] at `slot` cannot be applied: its σ is negative
    /// or not finite, or the environment streams its gains and so carries no
    /// shadowing field to redraw.
    BadFade {
        /// The slot of the first such fade.
        slot: u64,
    },
}

impl std::fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Topology(e) => write!(f, "topology error: {e}"),
            Self::Traffic(e) => write!(f, "traffic error: {e}"),
            Self::NoSources => write!(f, "no reachable node offers traffic"),
            Self::ZeroHorizon => write!(f, "the horizon must be at least one slot"),
            Self::BadFade { slot } => write!(
                f,
                "the fade at slot {slot} needs a finite σ ≥ 0 dB and an environment with \
                 dense gains"
            ),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<TopologyError> for ResilienceError {
    fn from(e: TopologyError) -> Self {
        Self::Topology(e)
    }
}

impl From<TrafficError> for ResilienceError {
    fn from(e: TrafficError) -> Self {
        Self::Traffic(e)
    }
}

/// One fault-injection experiment: an environment, gateways, demands and a
/// load factor, ready to [`run`](Self::run) against churn traces.
#[derive(Debug, Clone)]
pub struct ResilienceHarness {
    env: RadioEnvironment,
    gateways: Vec<NodeId>,
    demands: DemandVector,
    rho: f64,
    config: ReschedulerConfig,
}

impl ResilienceHarness {
    /// Creates a harness over the given world at load factor `rho` (the
    /// utilization every link sits at under the initial schedule).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rho` and `rho` is finite.
    pub fn new(
        env: RadioEnvironment,
        gateways: Vec<NodeId>,
        demands: DemandVector,
        rho: f64,
    ) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "load factor must be positive");
        Self {
            env,
            gateways,
            demands,
            rho,
            config: ReschedulerConfig::default(),
        }
    }

    /// Overrides the rescheduler configuration.
    pub fn with_config(mut self, config: ReschedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the experiment: `trace` injected over `horizon_slots` slots,
    /// with `seed` driving both routing tie-breaks and packet arrivals.
    /// Deterministic: the same harness, trace, horizon and seed produce an
    /// identical report.
    ///
    /// # Errors
    ///
    /// Fails on an empty gateway set, a demand vector whose length is not
    /// the environment's node count, zero horizon, a fade inside the
    /// horizon that cannot be applied, or when no reachable node offers
    /// traffic.
    pub fn run(
        &self,
        trace: &ChurnTrace,
        horizon_slots: u64,
        seed: u64,
    ) -> Result<ResilienceReport, ResilienceError> {
        let (demands, nodes) = (self.demands.len(), self.env.node_count());
        if demands != nodes {
            return Err(TopologyError::DemandLengthMismatch { demands, nodes }.into());
        }
        if horizon_slots == 0 {
            return Err(ResilienceError::ZeroHorizon);
        }
        let bad_fade = trace.events().iter().find(|e| {
            let FaultKind::Fade { sigma_db, .. } = e.kind else {
                return false;
            };
            e.slot < horizon_slots
                && (!(sigma_db.is_finite() && sigma_db >= 0.0) || self.env.is_streamed())
        });
        if let Some(e) = bad_fade {
            return Err(ResilienceError::BadFade { slot: e.slot });
        }
        let mut state = RunState::start(self, seed)?;
        // An epoch is one initial frame length.
        let epoch_slots = state.frame_slots_initial;

        let mut events = trace
            .events()
            .iter()
            .filter(|e| e.slot < horizon_slots)
            .peekable();
        let mut opened = (0u64, state.session.totals());
        let mut epochs: Vec<EpochMetrics> = Vec::new();
        let mut now = 0u64;
        while now < horizon_slots {
            let mut faulted = false;
            while let Some(event) = events.next_if(|e| e.slot <= now) {
                state.apply_fault(event.kind);
                scream_obs::counter_add("resilience.faults", 1);
                faulted = true;
            }
            if faulted {
                if self.config.repair {
                    state.reschedule(now)?;
                    state.admit();
                } else {
                    state.sync_pause_states();
                    state.stable = state.session.analytic_loads().1.is_stable();
                }
            }
            let next_fault = events.peek().map(|e| e.slot).unwrap_or(horizon_slots);
            let next_epoch = ((now / epoch_slots) + 1) * epoch_slots;
            let target = next_fault.min(next_epoch).min(horizon_slots);
            state.session.advance(target - now);
            now = target;
            if now.is_multiple_of(epoch_slots) || now == horizon_slots {
                let closed = (now, state.session.totals());
                let metrics = epoch_metrics(opened, closed, epoch_slots, state.stable);
                scream_obs::set_epoch(metrics.epoch);
                scream_obs::counter_add("resilience.epochs", 1);
                scream_obs::event(
                    "resilience.epoch",
                    [
                        ("injected", metrics.injected),
                        ("delivered", metrics.delivered),
                        ("dropped", metrics.dropped),
                        ("backlog", metrics.backlog_end),
                    ],
                );
                epochs.push(metrics);
                opened = closed;
            }
        }

        Ok(state.into_report(trace, horizon_slots, epochs))
    }
}

/// The epoch between two `(slot, totals)` readings of the session.
fn epoch_metrics(
    (start_slot, start): (u64, SessionTotals),
    (end_slot, end): (u64, SessionTotals),
    epoch_slots: u64,
    stable: bool,
) -> EpochMetrics {
    let injected = end.injected - start.injected;
    let delivered = end.delivered - start.delivered;
    // Charging injections alone would read above 100 while a backlog drains.
    let deliverable = injected + start.in_flight;
    let delivery_pct = if deliverable == 0 {
        100.0
    } else {
        delivered as f64 / deliverable as f64 * 100.0
    };
    EpochMetrics {
        epoch: start_slot / epoch_slots,
        start_slot,
        end_slot,
        injected,
        delivered,
        dropped: end.dropped - start.dropped,
        backlog_start: start.in_flight,
        backlog_end: end.in_flight,
        delivery_pct,
        stable,
    }
}

/// The live state of one run: session, schedule, and fault bookkeeping.
struct RunState {
    env: RadioEnvironment,
    /// `env`'s communication graph; a fade replaces both.
    graph: Graph,
    gateways: Vec<NodeId>,
    base_demands: DemandVector,
    session: TrafficSession,
    schedule: Schedule,
    /// The target `schedule` was last built or repaired for on `env`, so
    /// that repairing it for that target returns it unchanged; a fade
    /// clears it.
    built_for: Option<LinkDemands>,
    sources: Vec<Source>,
    frame_slots_initial: u64,
    route_seed: u64,
    /// Canonically ordered endpoints of explicitly failed links.
    dead_links: BTreeSet<(NodeId, NodeId)>,
    /// Explicitly failed nodes, by node index.
    dead_nodes: Vec<bool>,
    /// The session's analytic verdict. Only a fault batch can move it:
    /// `advance` touches no source, pause, route, dead flag or frame.
    stable: bool,
    /// Flows stopped by churn events.
    stopped: BTreeSet<NodeId>,
    /// Flows deferred by admission control.
    deferred: BTreeSet<NodeId>,
    /// Sources currently cut off from every gateway.
    cut_off: BTreeSet<NodeId>,
    repairs: Vec<RepairRecord>,
}

impl RunState {
    fn start(harness: &ResilienceHarness, seed: u64) -> Result<Self, ResilienceError> {
        let env = harness.env.clone();
        let graph = env.communication_graph();
        let dead_nodes = vec![false; graph.node_count()];
        let demands = &harness.demands;
        let (forest, _, link_demands) =
            route(&graph, &harness.gateways, seed, demands, |_, _| true)?;
        let schedule = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
        let frame_slots = schedule.length() as u64;
        if frame_slots == 0 {
            return Err(ResilienceError::NoSources);
        }
        let sources: Vec<Source> = (0..demands.len() as u32)
            .map(NodeId::new)
            .filter(|&v| demands.demand(v) > 0 && forest.is_reachable(v) && !forest.is_gateway(v))
            .map(|v| Source {
                node: v,
                arrival: ArrivalProcess::deterministic(
                    harness.rho * demands.demand(v) as f64 / frame_slots as f64,
                ),
            })
            .collect();
        if sources.is_empty() {
            return Err(ResilienceError::NoSources);
        }
        let session = TrafficSession::new(
            FrameService::from_schedule(&schedule),
            sources.clone(),
            ForwardingTable::from_forest(&forest),
            TrafficConfig::new(1).with_seed(seed),
        )?;
        let stable = session.analytic_loads().1.is_stable();
        Ok(Self {
            env,
            graph,
            gateways: harness.gateways.clone(),
            base_demands: harness.demands.clone(),
            session,
            schedule,
            built_for: Some(link_demands),
            sources,
            frame_slots_initial: frame_slots,
            route_seed: seed,
            dead_links: BTreeSet::new(),
            dead_nodes,
            stable,
            stopped: BTreeSet::new(),
            deferred: BTreeSet::new(),
            cut_off: BTreeSet::new(),
            repairs: Vec::new(),
        })
    }

    /// Applies one fault to the bookkeeping and the live session. Routing
    /// and scheduling consequences are handled by `reschedule`.
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(link) => {
                self.dead_links.insert(endpoints(link));
                self.session.fail_link(link);
                self.session.fail_link(link.reversed());
            }
            FaultKind::LinkUp(link) => {
                self.dead_links.remove(&endpoints(link));
                if self.is_up(link) {
                    self.session.restore_link(link);
                    self.session.restore_link(link.reversed());
                }
            }
            FaultKind::NodeDown(node) | FaultKind::NodeUp(node) => {
                let down = matches!(kind, FaultKind::NodeDown(_));
                // A node the environment does not have changes nothing.
                let Some(dead) = self.dead_nodes.get_mut(node.index()) else {
                    return;
                };
                *dead = down;
                for link in incident_links(&self.graph, node) {
                    if down {
                        self.session.fail_link(link);
                        self.session.fail_link(link.reversed());
                    } else if self.is_up(link) {
                        self.session.restore_link(link);
                        self.session.restore_link(link.reversed());
                    }
                }
            }
            FaultKind::Fade { sigma_db, seed } => {
                // `run` refused a streamed environment up front (`BadFade`).
                let Some(faded) = self.env.refaded(Db::new(sigma_db), seed) else {
                    debug_assert!(false, "a fade reached a streamed environment");
                    return;
                };
                self.env = faded;
                self.graph = self.env.communication_graph();
                self.built_for = None;
            }
            FaultKind::FlowStop(node) => {
                self.stopped.insert(node);
            }
            FaultKind::FlowStart(node) => {
                self.stopped.remove(&node);
            }
        }
    }

    fn is_dead(&self, node: NodeId) -> bool {
        self.dead_nodes.get(node.index()) == Some(&true)
    }

    /// Whether `link` is up: neither it nor an endpoint has failed.
    fn is_up(&self, link: Link) -> bool {
        !self.is_dead(link.head)
            && !self.is_dead(link.tail)
            && !self.dead_links.contains(&endpoints(link))
    }

    /// Reroutes demands around the current fault state, repairs the frame
    /// and swaps both into the live session. A batch that leaves the target,
    /// the routes and the environment as they were skips the repair (module
    /// docs), as does one that leaves no demand; either books
    /// `resilience.repairs_skipped` instead of a repair outcome.
    fn reschedule(&mut self, slot: u64) -> Result<(), ResilienceError> {
        scream_obs::counter_add("resilience.reschedules", 1);
        let (forest, cut, link_demands) = route(
            &self.graph,
            &self.gateways,
            self.route_seed,
            &self.base_demands,
            |u, v| self.is_up(Link::new(u, v)),
        )?;
        self.cut_off = cut.into_iter().collect();
        let routes = ForwardingTable::from_forest(&forest);
        let routes_changed = &routes != self.session.routes();
        let no_demand = link_demands.total_demand() == 0;
        if no_demand {
            // Everything is dead or cut off; keep the old frame (nothing can
            // route anyway) and let the pause-state sync silence the sources.
            self.cut_off.extend(self.sources.iter().map(|s| s.node));
        }
        if no_demand || (!routes_changed && self.built_for.as_ref() == Some(&link_demands)) {
            scream_obs::counter_add("resilience.repairs_skipped", 1);
            self.session.rescue_stranded();
            return Ok(());
        }
        let before = self.schedule.length() as u64;
        let repaired = repair_schedule(&self.env, &self.schedule, &link_demands);
        let frame_changed = repaired.schedule != self.schedule;
        if frame_changed {
            self.session
                .swap_frame(FrameService::from_schedule(&repaired.schedule))?;
        }
        if routes_changed {
            self.session.set_routes(routes);
        }
        if frame_changed || routes_changed {
            self.repairs.push(RepairRecord {
                slot,
                outcome: repaired.outcome,
                frame_slots_before: before,
                frame_slots_after: repaired.schedule.length() as u64,
                removed_allocation: repaired.removed_allocation,
                added_allocation: repaired.added_allocation,
            });
        }
        self.schedule = repaired.schedule;
        self.built_for = Some(link_demands);
        self.session.rescue_stranded();
        Ok(())
    }

    /// Aligns every source's pause flag with the fault, churn, admission
    /// and reachability state.
    fn sync_pause_states(&mut self) {
        for i in 0..self.sources.len() {
            let node = self.sources[i].node;
            let want_paused = self.stopped.contains(&node)
                || self.is_dead(node)
                || self.cut_off.contains(&node)
                || self.deferred.contains(&node);
            if want_paused {
                self.session.pause_source(node);
            } else {
                self.session.resume_source(node);
            }
        }
    }

    /// Admission control: first re-admit every admission-deferred source,
    /// then — while the analytic verdict is Overloaded — defer the
    /// highest-rate active source crossing a bottleneck link. Leaves the
    /// last verdict it read in `stable`.
    fn admit(&mut self) {
        self.deferred.clear();
        self.sync_pause_states();
        loop {
            let (_, verdict) = self.session.analytic_loads();
            self.stable = verdict.is_stable();
            let StabilityVerdict::Overloaded { bottlenecks } = verdict else {
                break;
            };
            // BTreeSet keeps the whole admission path hash-free (D1.iter):
            // the bottleneck set is tiny and only `contains`-probed.
            let hot: BTreeSet<Link> = bottlenecks.iter().map(|b| b.link).collect();
            let mut candidate: Option<(f64, NodeId)> = None;
            for source in &self.sources {
                if self.session.is_source_paused(source.node) {
                    continue;
                }
                let crosses_hot = self
                    .session
                    .routes()
                    .path_links(source.node)
                    .iter()
                    .any(|l| hot.contains(l));
                if !crosses_hot {
                    continue;
                }
                let rate = source.arrival.mean_rate();
                let better = match candidate {
                    None => true,
                    Some((best_rate, best_node)) => match rate.total_cmp(&best_rate) {
                        Ordering::Greater => true,
                        Ordering::Equal => source.node < best_node,
                        Ordering::Less => false,
                    },
                };
                if better {
                    candidate = Some((rate, source.node));
                }
            }
            let Some((_, node)) = candidate else {
                // Every bottlenecked source is already silent; nothing more
                // admission can do (e.g. an unserved link in the baseline).
                break;
            };
            self.deferred.insert(node);
            self.session.pause_source(node);
        }
    }

    fn into_report(
        self,
        trace: &ChurnTrace,
        horizon_slots: u64,
        epochs: Vec<EpochMetrics>,
    ) -> ResilienceReport {
        let first_fault_slot = trace.first_slot().filter(|&s| s < horizon_slots);

        // Recovery is structural: an epoch counts as recovered when nothing
        // was dropped, the analytic verdict is Stable, and the backlog is
        // back in the pre-fault band (pre-fault peak plus one in-flight
        // packet per source — per-epoch delivery ratios fluctuate with
        // boundary carryover, backlog drain does not). Sustained means
        // *every* later epoch holds it; a caller that also wants a delivery
        // floor reads `post_recovery_delivery_pct`.
        let allowance = self.sources.len() as u64;
        let prefault_cap = first_fault_slot
            .map(|fault| {
                epochs
                    .iter()
                    .filter(|e| e.end_slot <= fault)
                    .map(|e| e.backlog_end)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
            + allowance;
        let recovered_epoch =
            |e: &EpochMetrics| e.dropped == 0 && e.stable && e.backlog_end <= prefault_cap;
        let suffix_start = epochs
            .iter()
            .rposition(|e| !recovered_epoch(e))
            .map(|i| i + 1)
            .unwrap_or(0);
        let recovered = suffix_start < epochs.len();
        let (time_to_recover_slots, recovery_slot) = match (first_fault_slot, recovered) {
            (Some(fault), true) => {
                let start = epochs[suffix_start].start_slot.max(fault);
                (Some(start - fault), start)
            }
            (Some(_), false) => (None, horizon_slots),
            (None, _) => (None, 0),
        };

        let window_pct = |from: u64, to: u64| {
            // Deliveries over a window are bounded by the window's
            // injections plus the backlog carried into its first epoch
            // (epoch backlogs chain: one epoch's backlog_end is the next
            // one's backlog_start), so the ratio is mathematically <= 100.
            let mut injected = 0u64;
            let mut delivered = 0u64;
            let mut backlog_in: Option<u64> = None;
            for e in epochs
                .iter()
                .filter(|e| e.end_slot > from && e.start_slot < to)
            {
                backlog_in.get_or_insert(e.backlog_start);
                injected += e.injected;
                delivered += e.delivered;
            }
            let deliverable = injected + backlog_in.unwrap_or(0);
            if deliverable == 0 {
                100.0
            } else {
                delivered as f64 / deliverable as f64 * 100.0
            }
        };
        let (outage_delivery_pct, post_recovery_delivery_pct) = match first_fault_slot {
            Some(fault) => (
                window_pct(fault, recovery_slot.max(fault + 1)),
                window_pct(recovery_slot, horizon_slots.max(recovery_slot + 1)),
            ),
            None => (100.0, window_pct(0, horizon_slots)),
        };

        ResilienceReport {
            frame_slots_initial: self.frame_slots_initial,
            epochs,
            repairs: self.repairs,
            totals: self.session.totals(),
            first_fault_slot,
            time_to_recover_slots,
            outage_delivery_pct,
            post_recovery_delivery_pct,
            deferred_flows: self.deferred.len(),
            final_verdict_stable: self.stable,
        }
    }
}

/// Canonical (min, max) endpoints of an undirected link.
fn endpoints(link: Link) -> (NodeId, NodeId) {
    let (a, b) = (link.head, link.tail);
    (a.min(b), a.max(b))
}

/// Every communication-graph link incident to `node`, smaller id first, in
/// [`Graph::edges`] order (adjacency lists are ascending).
fn incident_links(graph: &Graph, node: NodeId) -> impl Iterator<Item = Link> + '_ {
    let canonical = move |&other: &NodeId| Link::new(node.min(other), node.max(other));
    graph.neighbors(node).iter().map(canonical)
}

/// The routing step of a run's start and of every reschedule: the routing
/// forest over the links `is_up` admits, the nodes it cuts off, and the link
/// demands it aggregates from `base` (one entry per node) with cut-off nodes
/// zeroed. A dead node is cut off — the mask admits none of its links — or a
/// gateway, whose own demand rides no link.
fn route(
    graph: &Graph,
    gateways: &[NodeId],
    seed: u64,
    base: &DemandVector,
    is_up: impl Fn(NodeId, NodeId) -> bool,
) -> Result<(RoutingForest, Vec<NodeId>, LinkDemands), ResilienceError> {
    let (forest, cut) = RoutingForest::shortest_path_masked(graph, gateways, seed, is_up)?;
    let demands = (0..base.len() as u32)
        .map(NodeId::new)
        .map(|v| {
            if forest.is_reachable(v) {
                base.demand(v)
            } else {
                0
            }
        })
        .collect();
    let demands = DemandVector::from_vec(demands);
    let link_demands = LinkDemands::aggregate(&forest, &demands)?;
    Ok((forest, cut, link_demands))
}
