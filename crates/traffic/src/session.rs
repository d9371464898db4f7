//! Resumable, fault-aware traffic simulation: the epoch-driven front end of
//! the packet model (the crate-private `sim` module, `src/sim.rs`) and
//! counterpart of [`TrafficEngine`](crate::TrafficEngine).
//!
//! [`TrafficSession`] runs the shared simulator in **segments**:
//! [`advance`](TrafficSession::advance) runs the clock forward a given
//! number of slots and returns, leaving queues, arrival samplers and
//! in-flight packets intact so the caller can mutate the world between
//! segments:
//!
//! * [`fail_link`](TrafficSession::fail_link) /
//!   [`restore_link`](TrafficSession::restore_link) — a dead link stops
//!   serving; its queued packets strand until rescued or the link returns;
//! * [`swap_frame`](TrafficSession::swap_frame) — install a repaired frame
//!   mid-run (the new frame starts counting its slot 0 at the swap slot);
//! * [`set_routes`](TrafficSession::set_routes) — install a new
//!   [`ForwardingTable`]; packets already in flight follow the new table
//!   from wherever they are (hop-by-hop forwarding, not source routing);
//! * [`rescue_stranded`](TrafficSession::rescue_stranded) — re-home packets
//!   stuck on dead or no-longer-served links via the current table,
//!   dropping those with nowhere to go;
//! * [`pause_source`](TrafficSession::pause_source) /
//!   [`resume_source`](TrafficSession::resume_source) — the admission
//!   controller's lever: a paused source injects nothing, and resuming
//!   fast-forwards its arrival process past the paused interval.
//!
//! Routing is by **forwarding table** (one uplink per node, gateway sinks),
//! the hop-by-hop reading of a
//! [`RoutingForest`] — which is what makes
//! online rerouting well-defined for packets already mid-path. Every
//! mutator is an edit of the simulator's state between two segments; the
//! FIFO reconstruction at each segment start (see the packet-model docs) is
//! what makes those edits, and segmentation itself, safe: the service
//! cursors are reset, every queued packet is made ready at the segment start
//! and renumbered in FIFO order, and only each queue's head is booked a
//! departure slot. The rest are booked as they reach the head, which gives
//! the slots a booking at the segment start would have given, because the
//! frame is fixed within a segment and a link's cursor moves only in FIFO
//! order; the numbers keep their relative order, and one reserved for a
//! packet still queued at the segment's end only leaves a gap. The model is
//! checked against a slot-stepped reference that shares none of this code
//! in `tests/packet_model.rs`.

use scream_netsim::SimTime;
use scream_scheduling::FrameService;
use scream_topology::{Link, NodeId, RoutingForest};

use crate::engine::{TrafficConfig, TrafficError};
use crate::flow::ArrivalProcess;
use crate::report::{DelayStats, LinkLoad, StabilityVerdict};
use crate::sim::{analytic_loads, Links, NextHop, Router, Sim};

/// Hop-by-hop routing state: each node's uplink toward its gateway, plus
/// which nodes are sinks (gateways). Built from a routing forest — including
/// a partial one, where cut-off nodes simply have no next hop.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardingTable {
    next_hop: Vec<Option<Link>>,
    sink: Vec<bool>,
}

impl ForwardingTable {
    /// Builds the table from a routing forest: every reachable non-gateway
    /// node forwards on its tree edge, gateways are sinks, and cut-off nodes
    /// (partial forests) forward nowhere.
    pub fn from_forest(forest: &RoutingForest) -> Self {
        let n = forest.node_count();
        let next_hop = (0..n as u32)
            .map(NodeId::new)
            .map(|v| forest.is_reachable(v).then(|| forest.link_of(v)).flatten())
            .collect();
        let sink = (0..n as u32)
            .map(NodeId::new)
            .map(|v| forest.is_reachable(v) && forest.is_gateway(v))
            .collect();
        Self { next_hop, sink }
    }

    /// Number of nodes covered.
    pub(crate) fn node_count(&self) -> usize {
        self.next_hop.len()
    }

    /// The uplink `node` forwards on, or `None` for sinks and cut-off nodes.
    pub(crate) fn next_hop(&self, node: NodeId) -> Option<Link> {
        self.next_hop.get(node.index()).copied().flatten()
    }

    /// Whether `node` is a delivery sink (gateway).
    pub(crate) fn is_sink(&self, node: NodeId) -> bool {
        self.sink.get(node.index()).copied().unwrap_or(false)
    }

    /// The links of `node`'s path to its sink under this table, bounded by
    /// the node count (a malformed table cannot loop forever).
    pub fn path_links(&self, node: NodeId) -> Vec<Link> {
        let mut links = Vec::new();
        let mut current = node;
        for _ in 0..self.node_count() {
            let Some(link) = self.next_hop(current) else {
                break;
            };
            links.push(link);
            current = link.tail;
            if self.is_sink(current) {
                break;
            }
        }
        links
    }
}

/// One traffic source: a node injecting packets toward its gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Source {
    /// The injecting node.
    pub node: NodeId,
    /// Its arrival process.
    pub arrival: ArrivalProcess,
}

/// Table routing: packets carry nothing and are forwarded on the current
/// table's uplink of whatever node they reached.
#[derive(Debug)]
struct TableRouter {
    routes: ForwardingTable,
    sources: Vec<Source>,
    /// Registry index of each node's uplink under `routes`, filled on first
    /// use through [`Links::idx`] — so links register when a packet first
    /// needs them, as without the cache — and cleared with every new table.
    uplinks: Vec<Option<u32>>,
}

impl TableRouter {
    fn new(routes: ForwardingTable, sources: Vec<Source>) -> Self {
        Self {
            uplinks: vec![None; routes.node_count()],
            routes,
            sources,
        }
    }

    fn set_routes(&mut self, routes: ForwardingTable) {
        self.uplinks = vec![None; routes.node_count()];
        self.routes = routes;
    }

    /// The registry index of `node`'s uplink, or `None` if it has none.
    fn uplink(&mut self, node: NodeId, links: &mut Links<()>) -> Option<u32> {
        let cached = self.uplinks.get_mut(node.index())?;
        if cached.is_none() {
            *cached = Some(links.idx(self.routes.next_hop(node)?));
        }
        *cached
    }
}

impl Router for TableRouter {
    type Tag = ();

    fn first_hop(&mut self, source: u32, links: &mut Links<()>) -> Option<(u32, ())> {
        let node = self.sources[source as usize].node;
        Some((self.uplink(node, links)?, ()))
    }

    fn next_hop(&mut self, served: u32, (): (), links: &mut Links<()>) -> NextHop<()> {
        let node = links.queues[served as usize].link.tail;
        if self.routes.is_sink(node) {
            return NextHop::Deliver;
        }
        match self.uplink(node, links) {
            Some(next) => NextHop::Forward(next, ()),
            None => NextHop::Drop,
        }
    }
}

/// Measurements of one [`advance`](TrafficSession::advance) segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// First slot of the segment (inclusive).
    pub start_slot: u64,
    /// One past the last slot of the segment.
    pub end_slot: u64,
    /// Packets injected during the segment.
    pub injected: u64,
    /// Packets delivered to a sink during the segment.
    pub delivered: u64,
    /// Packets dropped during the segment (no route at a live hop).
    pub dropped: u64,
    /// In-flight packets when the segment ended.
    pub backlog_end: u64,
    /// End-to-end delay stats over the segment's delivered packets.
    pub delay: DelayStats,
}

/// Cumulative counters over a whole session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct SessionTotals {
    /// Packets injected since the session started.
    pub injected: u64,
    /// Packets delivered to a sink.
    pub delivered: u64,
    /// Packets dropped (no route at a live hop, or unrescuable strands).
    pub dropped: u64,
    /// Stranded packets re-homed onto new routes by rescue passes.
    pub rescued: u64,
    /// Packets currently queued somewhere.
    pub in_flight: u64,
    /// Maximum concurrent in-flight packets ever observed.
    pub peak_backlog: u64,
}

/// The resumable traffic simulation. See the module docs.
#[derive(Debug)]
pub struct TrafficSession {
    frame: FrameService,
    sim: Sim<TableRouter>,
    /// Each node's first source, by node index.
    source_of: Vec<Option<usize>>,
}

impl TrafficSession {
    /// Creates a session serving `sources` over `routes` with the repeating
    /// `frame`. Sources are seeded exactly like the engine's flows: source
    /// `i` gets `config.seed + i · φ` (so a session built from a forest's
    /// flow order reproduces the engine's arrival streams). The
    /// `horizon_frames` field of `config` is ignored — the caller paces the
    /// session with [`advance`](Self::advance).
    ///
    /// # Errors
    ///
    /// * [`TrafficError::EmptyFrame`] for a frame with no slots;
    /// * [`TrafficError::NoFlows`] for an empty source list;
    /// * [`TrafficError::ZeroSlotDuration`] for a zero slot duration.
    pub fn new(
        frame: FrameService,
        sources: Vec<Source>,
        routes: ForwardingTable,
        config: TrafficConfig,
    ) -> Result<Self, TrafficError> {
        if frame.is_empty() {
            return Err(TrafficError::EmptyFrame);
        }
        if sources.is_empty() {
            return Err(TrafficError::NoFlows);
        }
        if config.slot_duration == SimTime::ZERO {
            return Err(TrafficError::ZeroSlotDuration);
        }
        let mut source_of: Vec<Option<usize>> = Vec::new();
        for (i, source) in sources.iter().enumerate() {
            let node = source.node.index();
            if source_of.len() <= node {
                source_of.resize(node + 1, None);
            }
            source_of[node].get_or_insert(i);
        }
        let arrivals: Vec<ArrivalProcess> = sources.iter().map(|s| s.arrival).collect();
        let sim = Sim::new(
            TableRouter::new(routes, sources),
            Links::default(),
            arrivals.into_iter(),
            &config,
        );
        Ok(Self {
            frame,
            sim,
            source_of,
        })
    }

    /// The current absolute slot (start of the next segment).
    pub fn now_slot(&self) -> u64 {
        self.sim.now_slot()
    }

    /// The current forwarding table.
    pub fn routes(&self) -> &ForwardingTable {
        &self.sim.router.routes
    }

    /// Cumulative counters since the session started.
    pub fn totals(&self) -> SessionTotals {
        self.sim.totals
    }

    /// End-to-end delay statistics over every packet delivered so far.
    pub fn delay(&self) -> DelayStats {
        self.sim.delay()
    }

    /// Marks `link` dead: it stops serving and packets queued on it strand
    /// (until [`rescue_stranded`](Self::rescue_stranded) or
    /// [`restore_link`](Self::restore_link)).
    pub fn fail_link(&mut self, link: Link) {
        let idx = self.sim.links.idx(link);
        self.sim.links.queues[idx as usize].dead = true;
        scream_obs::counter_add("traffic.link_failures", 1);
    }

    /// Brings a failed link back into service.
    pub fn restore_link(&mut self, link: Link) {
        let idx = self.sim.links.idx(link);
        self.sim.links.queues[idx as usize].dead = false;
    }

    /// Whether `link` is currently marked dead.
    pub(crate) fn is_link_dead(&self, link: Link) -> bool {
        self.sim.links.get(link).is_some_and(|q| q.dead)
    }

    /// Installs a repaired frame. The new frame's slot 0 is the current
    /// slot, so service windows are phase-aligned with the swap, not with
    /// the session origin. Queued packets are served at the new frame's
    /// slots from the start of the next segment.
    pub fn swap_frame(&mut self, frame: FrameService) -> Result<(), TrafficError> {
        if frame.is_empty() {
            return Err(TrafficError::EmptyFrame);
        }
        self.frame = frame;
        self.sim.restart_frame();
        scream_obs::counter_add("traffic.frame_swaps", 1);
        Ok(())
    }

    /// Installs a new forwarding table. Packets already in flight follow it
    /// from their current position at their next hop.
    pub fn set_routes(&mut self, routes: ForwardingTable) {
        self.sim.router.set_routes(routes);
    }

    fn source_index(&self, node: NodeId) -> Option<usize> {
        self.source_of.get(node.index()).copied().flatten()
    }

    /// Pauses a source (admission control): it injects nothing until
    /// resumed. Unknown nodes are ignored.
    pub fn pause_source(&mut self, node: NodeId) {
        if let Some(i) = self.source_index(node) {
            self.sim.pause(i);
        }
    }

    /// Resumes a paused source, fast-forwarding its arrival process past the
    /// paused interval (arrivals that would have occurred while paused are
    /// discarded, not batched).
    pub fn resume_source(&mut self, node: NodeId) {
        if let Some(i) = self.source_index(node) {
            self.sim.resume(i);
        }
    }

    /// Whether `node`'s source is currently paused.
    pub fn is_source_paused(&self, node: NodeId) -> bool {
        self.source_index(node)
            .is_some_and(|i| self.sim.is_paused(i))
    }

    /// Re-homes packets stranded on links that are dead or no longer served
    /// by the current frame: each is re-enqueued at its head node's current
    /// next hop (counted as rescued), or dropped if the node has none.
    /// Returns `(rescued, dropped)`.
    pub fn rescue_stranded(&mut self) -> (u64, u64) {
        let mut rescued = 0u64;
        let mut dropped = 0u64;
        let links = &mut self.sim.links;
        for idx in 0..links.queues.len() {
            let q = &mut links.queues[idx];
            let link = q.link;
            if q.queue.is_empty() || !(q.dead || self.frame.service_slots(link) == 0) {
                continue;
            }
            // The merged queue is renumbered at the next segment start.
            let packets = std::mem::take(&mut q.queue);
            let target = self.sim.router.routes.next_hop(link.head);
            match target.filter(|&t| t != link) {
                Some(target) => {
                    let tidx = links.idx(target) as usize;
                    rescued += packets.len() as u64;
                    links.queues[tidx].queue.extend(packets);
                }
                None => dropped += packets.len() as u64,
            }
        }
        self.sim.totals.in_flight -= dropped;
        self.sim.totals.rescued += rescued;
        self.sim.totals.dropped += dropped;
        scream_obs::counter_add("traffic.rescued", rescued);
        scream_obs::counter_add("traffic.rescue_dropped", dropped);
        (rescued, dropped)
    }

    /// Per-link offered load vs. service share under the **current** table,
    /// frame, fault state and pause state, with the analytic stability
    /// verdict. Dead links count as zero service, so any offered load on
    /// them is an infinite bottleneck.
    pub fn analytic_loads(&self) -> (Vec<LinkLoad>, StabilityVerdict) {
        let router = &self.sim.router;
        let paths = router
            .sources
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.sim.is_paused(i))
            .map(|(_, s)| (s.arrival.mean_rate(), router.routes.path_links(s.node)));
        analytic_loads(paths, |link| {
            if self.is_link_dead(link) {
                0.0
            } else {
                self.frame.service_share(link)
            }
        })
    }

    /// Runs the simulation forward `slots` slots (saturating at the end of
    /// the `u64` slot clock) and returns the segment's measurements.
    /// Pausing and resuming at any boundary does not change what a
    /// continuous run would have done.
    pub fn advance(&mut self, slots: u64) -> SegmentReport {
        self.sim.advance(&self.frame, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TrafficEngine;
    use crate::flow::FlowSet;
    use scream_scheduling::Schedule;
    use scream_topology::{DemandVector, Graph, GraphKind};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// A path 3→2→1→0 with gateway 0, served round-robin one link per slot.
    fn path_setup() -> (Schedule, ForwardingTable) {
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
        let table = ForwardingTable::from_forest(&forest);
        let frame =
            Schedule::from_slots(vec![vec![link(3, 2)], vec![link(2, 1)], vec![link(1, 0)]]);
        (frame, table)
    }

    fn session(frame: &Schedule, table: ForwardingTable, rate: f64, seed: u64) -> TrafficSession {
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(rate),
        }];
        let mut config = TrafficConfig::new(1);
        config.seed = seed;
        TrafficSession::new(FrameService::from_schedule(frame), sources, table, config).unwrap()
    }

    #[test]
    fn forwarding_table_paths_follow_the_forest() {
        let (_, table) = path_setup();
        assert_eq!(
            table.path_links(NodeId::new(3)),
            vec![link(3, 2), link(2, 1), link(1, 0)]
        );
        assert!(table.is_sink(NodeId::new(0)));
        assert_eq!(table.next_hop(NodeId::new(0)), None);
    }

    #[test]
    fn session_matches_engine_on_an_uninterrupted_run() {
        // Same path, same seed, same horizon: the session's aggregate
        // measurements must reproduce the engine's exactly.
        let (frame, table) = path_setup();
        let horizon_frames = 40u64;
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
        let demands = DemandVector::from_vec(vec![0, 1, 1, 1]);
        let flows =
            FlowSet::along_forest_with(&forest, &demands, 0.2, |_, r| ArrivalProcess::poisson(r));
        let config = TrafficConfig::new(horizon_frames).with_seed(11);
        let engine = TrafficEngine::on_schedule(&frame, flows, config).unwrap();
        let report = engine.run();

        // The forest has sources {1, 2, 3}; the engine seeds flows by index
        // in node order, so the session must list sources the same way.
        let sources: Vec<Source> = [1u32, 2, 3]
            .iter()
            .map(|&n| Source {
                node: NodeId::new(n),
                arrival: ArrivalProcess::poisson(0.2),
            })
            .collect();
        let mut session =
            TrafficSession::new(FrameService::from_schedule(&frame), sources, table, config)
                .unwrap();
        let segment = session.advance(horizon_frames * 3);
        assert_eq!(segment.injected, report.injected);
        assert_eq!(segment.delivered, report.delivered);
        assert_eq!(session.totals().in_flight, report.final_backlog);
        assert_eq!(session.totals().peak_backlog, report.peak_backlog);
        assert!((session.delay().mean_slots - report.delay.mean_slots).abs() < 1e-9);
        assert!((session.delay().p95_slots - report.delay.p95_slots).abs() < 1e-9);
    }

    #[test]
    fn segmentation_is_transparent() {
        // Advancing in many small segments must give the same cumulative
        // counts as one big segment (fresh identical session).
        let (frame, table) = path_setup();
        let mut one = session(&frame, table.clone(), 0.25, 7);
        let big = one.advance(120);
        let mut many = session(&frame, table, 0.25, 7);
        let mut injected = 0;
        let mut delivered = 0;
        for _ in 0..12 {
            let s = many.advance(10);
            injected += s.injected;
            delivered += s.delivered;
        }
        assert_eq!(injected, big.injected);
        assert_eq!(delivered, big.delivered);
        assert_eq!(many.totals(), one.totals());
        assert!((many.delay().mean_slots - one.delay().mean_slots).abs() < 1e-9);
    }

    #[test]
    fn a_dead_link_strands_packets_and_the_verdict_turns_overloaded() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 3);
        let before = s.advance(60);
        assert!(before.delivered > 0);
        let (_, verdict) = s.analytic_loads();
        assert!(verdict.is_stable());

        s.fail_link(link(2, 1));
        let during = s.advance(60);
        assert_eq!(
            during.delivered, 0,
            "everything funnels through the dead link"
        );
        assert!(during.backlog_end > 0, "strands accumulate");
        let (loads, verdict) = s.analytic_loads();
        assert!(!verdict.is_stable());
        let dead = loads.iter().find(|l| l.link == link(2, 1)).unwrap();
        assert!(dead.utilization().is_infinite());
    }

    /// A swap that moves links to other places in the frame serves each at
    /// the new frame's slots. `[(3,2)], [(2,1)], [(1,0)]` gives way at slot
    /// 33 to `[(1,0)], [(2,1)], [(3,2)]`, where the gateway link (1,0) and
    /// the source's uplink (3,2) trade places: the gateway link delivered in
    /// the slots `≡ 2 (mod 3)` and delivers in the slots `≡ 0` once a packet
    /// of the backlog on (3,2), served last now, has crossed the path.
    #[test]
    fn a_swap_that_moves_a_link_serves_it_at_the_new_frames_slots() {
        let (frame, table) = path_setup();
        // Overloaded: every link has a packet for each of its slots.
        let mut s = session(&frame, table, 0.5, 5);
        s.advance(18);
        let delivering = |s: &mut TrafficSession| {
            let from = s.now_slot();
            (from..from + 15)
                .filter(|_| s.advance(1).delivered > 0)
                .collect::<Vec<u64>>()
        };
        assert_eq!(delivering(&mut s), [20, 23, 26, 29, 32]);
        let moved =
            Schedule::from_slots(vec![vec![link(1, 0)], vec![link(2, 1)], vec![link(3, 2)]]);
        s.swap_frame(FrameService::from_schedule(&moved)).unwrap();
        assert_eq!(delivering(&mut s), [39, 42, 45]);
    }

    #[test]
    fn restore_link_resumes_service_for_stranded_packets() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 3);
        s.fail_link(link(2, 1));
        let during = s.advance(40);
        assert_eq!(during.delivered, 0);
        s.restore_link(link(2, 1));
        let after = s.advance(80);
        assert!(after.delivered > 0, "strands drain once the link returns");
        let (_, verdict) = s.analytic_loads();
        assert!(verdict.is_stable());
    }

    #[test]
    fn rescue_reroutes_strands_and_drops_the_unroutable() {
        // Diamond: 3 can reach gateway 0 via 2 or via 1. Start via 2, kill
        // (2,0), reroute via 1, rescue.
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (0, 2), (3, 1), (3, 2)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let dead = link(2, 0);
        // Build a table routing 3 → 2 → 0 by pruning the (3,1) option.
        let via2 = RoutingForest::shortest_path(
            &g.without_edges([(NodeId::new(3), NodeId::new(1))]),
            &[NodeId::new(0)],
            1,
        )
        .unwrap();
        let frame = Schedule::from_slots(vec![
            vec![link(3, 2)],
            vec![dead],
            vec![link(3, 1)],
            vec![link(1, 0)],
        ]);
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(0.2),
        }];
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            sources,
            ForwardingTable::from_forest(&via2),
            TrafficConfig::new(1),
        )
        .unwrap();
        s.advance(20);
        s.fail_link(dead);
        s.advance(20);
        let stranded = s.sim.links.get(dead).map_or(0, |q| q.queue.len());
        assert!(stranded > 0, "packets pile on the dead link");

        // Reroute around the failure and rescue: 2's packets re-home via
        // 2 → ... under the new table. In the pruned graph without (2,0),
        // node 2 routes via 3 → 1 → 0.
        let rerouted = RoutingForest::shortest_path(
            &g.without_edges([(dead.head, dead.tail)]),
            &[NodeId::new(0)],
            1,
        )
        .unwrap();
        s.set_routes(ForwardingTable::from_forest(&rerouted));
        let (rescued, dropped) = s.rescue_stranded();
        assert_eq!(rescued as usize, stranded);
        assert_eq!(dropped, 0);
        // The rescued packets need service on their rescue path; the frame
        // already serves (3,1) and (1,0)... but 2 routes via (2,3) which the
        // frame never serves, so they strand again until a frame swap. Swap
        // in a frame that serves the rescue path.
        let repaired =
            Schedule::from_slots(vec![vec![link(2, 3)], vec![link(3, 1)], vec![link(1, 0)]]);
        s.swap_frame(FrameService::from_schedule(&repaired))
            .unwrap();
        let (rescued2, dropped2) = s.rescue_stranded();
        assert_eq!((rescued2, dropped2), (0, 0), "nothing left stranded");
        let after = s.advance(120);
        assert!(after.delivered > 0, "rescued packets reach the gateway");
        assert_eq!(s.totals().rescued, rescued);
    }

    #[test]
    fn rescue_drops_packets_with_no_remaining_route() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 9);
        s.advance(40);
        s.fail_link(link(1, 0));
        s.advance(40);
        // Cut node 1 off entirely: the partial forest reaches only {0}.
        let g = Graph::new(4, GraphKind::Undirected);
        let (orphaned, _) = RoutingForest::shortest_path_partial(&g, &[NodeId::new(0)], 1).unwrap();
        s.set_routes(ForwardingTable::from_forest(&orphaned));
        let before = s.totals();
        let (rescued, dropped) = s.rescue_stranded();
        assert_eq!(rescued, 0);
        assert!(dropped > 0, "unroutable strands are dropped");
        assert_eq!(s.totals().dropped, before.dropped + dropped);
        assert_eq!(s.totals().in_flight, before.in_flight - dropped);
    }

    #[test]
    fn paused_sources_inject_nothing_and_resume_cleanly() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table, 0.25, 5);
        s.pause_source(NodeId::new(3));
        let paused = s.advance(40);
        assert_eq!(paused.injected, 0);
        s.resume_source(NodeId::new(3));
        let resumed = s.advance(40);
        assert!(resumed.injected > 0);
        // Fast-forward: roughly the paused interval's arrivals are gone.
        assert!(resumed.injected <= 11);
    }

    #[test]
    fn a_node_names_its_first_source_and_unknown_nodes_are_ignored() {
        let (frame, table) = path_setup();
        let source = |node| Source {
            node: NodeId::new(node),
            arrival: ArrivalProcess::deterministic(0.25),
        };
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            vec![source(3), source(2), source(3)],
            table,
            TrafficConfig::new(1),
        )
        .unwrap();
        s.pause_source(NodeId::new(3));
        s.pause_source(NodeId::new(99));
        assert!(s.is_source_paused(NodeId::new(3)));
        assert!(!s.is_source_paused(NodeId::new(2)));
        assert!(!s.is_source_paused(NodeId::new(99)));
        // Node 3's second source still injects: arrivals at 4, 8, …, 36 from
        // two of the three sources.
        assert_eq!(s.advance(40).injected, 2 * 9);
    }

    #[test]
    fn advance_saturates_at_the_end_of_the_slot_clock() {
        let (frame, table) = path_setup();
        let mut s = session(&frame, table.clone(), 0.25, 5);
        s.pause_source(NodeId::new(3));
        s.advance(10);
        // Nothing queued and nothing arriving: the segment is empty, and its
        // end is the last representable slot rather than a wrapped one.
        let rest = s.advance(u64::MAX);
        assert_eq!((rest.start_slot, rest.end_slot), (10, u64::MAX));
        assert_eq!(s.now_slot(), u64::MAX);
        assert_eq!(s.advance(1).end_slot, u64::MAX);

        // With 1-ns slots the slot clock and the time clock end together.
        // Node 2's one arrival falls about 4 096 slots before the end, and
        // packets stranded on a dead link are booked again from 1 000 slots
        // before it, so the pending events sit within one event-calendar
        // window of `u64::MAX`.
        let far = 1.0 / (u64::MAX - 4_096) as f64;
        let sources = [
            (3, ArrivalProcess::deterministic(0.25)),
            (2, ArrivalProcess::deterministic(far)),
        ]
        .map(|(node, arrival)| Source {
            node: NodeId::new(node),
            arrival,
        });
        let config = TrafficConfig::new(1).with_slot_duration(SimTime::from_nanos(1));
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            sources.to_vec(),
            table,
            config,
        )
        .unwrap();
        s.advance(10);
        s.fail_link(link(1, 0));
        s.advance(20);
        s.pause_source(NodeId::new(3));
        let stranded = s.advance(u64::MAX - 1_030);
        assert_eq!(stranded.end_slot, u64::MAX - 1_000);
        assert_eq!((stranded.injected, stranded.delivered), (1, 0));
        let queued = s.totals().in_flight;
        assert_eq!(queued, 7);
        assert_eq!(
            s.sim.links.get(link(1, 0)).map(|q| q.queue.len()),
            Some(queued as usize)
        );
        s.restore_link(link(1, 0));
        let last = s.advance(u64::MAX);
        assert_eq!(
            (last.start_slot, last.end_slot),
            (u64::MAX - 1_000, u64::MAX)
        );
        assert_eq!((last.injected, last.delivered), (0, queued));
        assert_eq!(s.totals().in_flight, 0);
        assert_eq!(s.advance(1).end_slot, u64::MAX);
    }

    #[test]
    fn frame_swap_phase_aligns_to_the_swap_slot() {
        // A frame serving the link only in its first slot: after a swap at
        // slot 30, service happens at slots 30, 33, 36... (epoch-relative),
        // not at 30, 32, 34 (origin-relative would hit 32's frame start).
        let l = link(1, 0);
        let frame = Schedule::from_slots(vec![vec![l], vec![], vec![]]);
        let mut g = Graph::new(2, GraphKind::Undirected);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let forest = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 1).unwrap();
        let sources = vec![Source {
            node: NodeId::new(1),
            arrival: ArrivalProcess::deterministic(0.25),
        }];
        let mut s = TrafficSession::new(
            FrameService::from_schedule(&frame),
            sources,
            ForwardingTable::from_forest(&forest),
            TrafficConfig::new(1),
        )
        .unwrap();
        s.advance(30);
        let delivered_before = s.totals().delivered;
        s.swap_frame(FrameService::from_schedule(&frame)).unwrap();
        let seg = s.advance(30);
        assert!(s.totals().delivered > delivered_before);
        // Same frame, same phase relative to the swap: throughput holds.
        assert!(seg.delivered >= 6);
    }

    #[test]
    fn construction_rejects_degenerate_inputs() {
        let (frame, table) = path_setup();
        let empty_frame = FrameService::from_schedule(&Schedule::new());
        let sources = vec![Source {
            node: NodeId::new(3),
            arrival: ArrivalProcess::deterministic(0.1),
        }];
        assert!(matches!(
            TrafficSession::new(
                empty_frame,
                sources.clone(),
                table.clone(),
                TrafficConfig::new(1)
            ),
            Err(TrafficError::EmptyFrame)
        ));
        assert!(matches!(
            TrafficSession::new(
                FrameService::from_schedule(&frame),
                Vec::new(),
                table.clone(),
                TrafficConfig::new(1)
            ),
            Err(TrafficError::NoFlows)
        ));
        let mut zero = TrafficConfig::new(1);
        zero.slot_duration = SimTime::ZERO;
        assert!(matches!(
            TrafficSession::new(FrameService::from_schedule(&frame), sources, table, zero),
            Err(TrafficError::ZeroSlotDuration)
        ));
    }
}
