//! Abstraction over interference models for slot-feasibility checks.
//!
//! The schedulers ask three questions: "is this set of links feasible in one
//! slot?", "can this link be added to that set?", and — on the hot path —
//! "let me build a slot incrementally, probing candidates as I go". The
//! [`SlotFeasibility`] trait captures all three; the stateful
//! [`SlotAccumulator`] returned by [`open_slot`](SlotFeasibility::open_slot)
//! is what makes the third one cheap. The verifier and repair ask a fourth of
//! the accumulator — "here is a whole pattern; does it stand?" — by filling
//! it ([`assign_all`](SlotAccumulator::assign_all)) and reading the verdict
//! ([`channel_feasible`](SlotAccumulator::channel_feasible)), never by
//! probing entry by entry.
//!
//! A slot is always a set of `(channel, link)` entries: interference accrues
//! within a channel, and every node has one radio, so it may appear on at
//! most one channel of a slot (the cross-channel half-duplex rule). The
//! single shared channel of the original SCREAM setting is the value
//! `C = 1` of that one representation — the cross-channel rule is vacuous
//! and every entry sits on channel 0 — not a second code path.
//!
//! Two implementations are provided:
//!
//! * [`RadioEnvironment`] — the physical
//!   (SINR) interference model of Section II, the paper's subject, answered
//!   by the interference ledger alone: `slot_feasible` fills a
//!   [`SlotLedger`] and reads it, and the accumulator is the
//!   [`ChannelSlotLedger`]: O(k) probes against cached per-receiver
//!   interference sums instead of an O(k²) recomputation, one occupancy bit
//!   per node and channel for the
//!   one-radio-per-node rule, a filled slot's verdict read off those sums,
//!   and a [refusal screen](SlotAccumulator::surely_refuses) that lets
//!   first-fit pass a saturated slot by without probing it;
//! * [`ProtocolModel`] — the conservative protocol interference model that
//!   CSMA/CA-style scheduling corresponds to, provided as the comparison
//!   baseline the paper's introduction argues against. It precomputes the
//!   all-pairs hop-distance matrix of its graph once, so its pairwise
//!   conflict test is an O(1) table lookup and its accumulator probes in
//!   O(k).
//!
//! Any other implementation gets a correct [`SlotAccumulator`] for free: the
//! provided `open_slot` keeps the per-channel link lists, re-checks
//! candidates with [`can_add`](SlotFeasibility::can_add), answers
//! `channel_feasible` with [`slot_feasible`](SlotFeasibility::slot_feasible)
//! over the channel's list, and screens nothing
//! ([`surely_refuses`](SlotAccumulator::surely_refuses) is `false`: every
//! slot is probed). Implementations must be *downward-closed* (every subset
//! of a feasible set is feasible) for incremental building to coincide with
//! whole-set feasibility; interference models are, since removing a
//! transmitter can only reduce interference.

pub use scream_netsim::{ChannelId, LinkSinrMargin, SlotLedger};
use scream_netsim::{ChannelSlotLedger, RadioEnvironment};
use scream_topology::{Graph, Link, NodeId};

/// Stateful, incrementally-built view of one slot under construction: one
/// sub-slot per orthogonal channel plus the cross-channel half-duplex rule.
///
/// Obtained from [`SlotFeasibility::open_slot`]; the schedulers keep one
/// accumulator per open run so that every feasibility probe is answered
/// from accumulated state instead of re-deriving it from the link list.
pub trait SlotAccumulator {
    /// Number of channels in the slot (at least one).
    fn channel_count(&self) -> usize;

    /// Whether `candidate` can join the slot on `channel` without breaking
    /// per-channel feasibility or the cross-channel half-duplex rule.
    fn can_add(&self, channel: ChannelId, candidate: Link) -> bool;

    /// Adds `link` to the slot on `channel` unconditionally, updating
    /// internal state. (The greedy scheduler opens slots around links that
    /// are infeasible even alone, so `assign` must not require a prior
    /// passing [`can_add`](Self::can_add).)
    fn assign(&mut self, channel: ChannelId, link: Link);

    /// Adds `links` to the slot on `channel` in order; the same state as one
    /// [`assign`](Self::assign) per link. How a whole pattern is filled —
    /// the verifier and repair fill, then read
    /// [`channel_feasible`](Self::channel_feasible); they never probe.
    fn assign_all(&mut self, channel: ChannelId, links: &[Link]) {
        for &link in links {
            self.assign(channel, link);
        }
    }

    /// Whether the links on `channel` are a feasible slot as they stand
    /// (the cross-channel rule is not this question). For a downward-closed
    /// model it is `true` exactly when every link passed
    /// [`can_add`](Self::can_add) on its way in.
    fn channel_feasible(&self, channel: ChannelId) -> bool;

    /// Empties every channel without releasing buffers, so one accumulator
    /// can be reused across many slots (the verifier re-checks every pattern
    /// of a schedule through a single accumulator this way).
    fn clear(&mut self);

    /// The links assigned to `channel` so far, in assignment order.
    fn links(&self, channel: ChannelId) -> &[Link];

    /// Whether `link` is assigned on any channel.
    fn contains_link(&self, link: Link) -> bool {
        (0..self.channel_count()).any(|c| self.links(ChannelId::new(c as u16)).contains(&link))
    }

    /// A cheap screen in front of [`can_add`](Self::can_add): `true` only if
    /// `can_add(c, candidate)` is `false` on every channel `c`, so first-fit
    /// may pass the slot by without probing it. It can change what a
    /// placement costs, never what it decides; the default screens nothing.
    fn surely_refuses(&self, _candidate: Link) -> bool {
        false
    }
}

/// Interference-model interface used by the schedulers.
pub trait SlotFeasibility {
    /// Whether the whole set of links can transmit concurrently in one slot
    /// on one channel.
    fn slot_feasible(&self, links: &[Link]) -> bool;

    /// Whether `candidate` can be added to the already-feasible set
    /// `existing` without breaking feasibility. The default implementation
    /// re-checks the combined set; implementations may override it with
    /// something cheaper.
    fn can_add(&self, existing: &[Link], candidate: Link) -> bool {
        let mut all = existing.to_vec();
        all.push(candidate);
        self.slot_feasible(&all)
    }

    /// Opens a stateful accumulator for building one slot incrementally,
    /// with [`channel_count`](Self::channel_count) channels.
    ///
    /// The default keeps the per-channel link lists and answers probes
    /// through [`can_add`](Self::can_add) (correct for any model,
    /// from-scratch cost); [`RadioEnvironment`] overrides it with the O(k)
    /// [`ChannelSlotLedger`].
    fn open_slot(&self) -> Box<dyn SlotAccumulator + '_> {
        Box::new(RecheckSlot {
            model: self,
            channels: vec![Vec::new(); self.channel_count().max(1)],
            occupancy: Vec::new(),
        })
    }

    /// Per-link SINR margins of the given single-channel link group, in dB
    /// relative to the model's threshold, for diagnostics. Models without a
    /// notion of SINR (e.g. graph-based models) return an empty vector.
    fn slot_margins(&self, _links: &[Link]) -> Vec<LinkSinrMargin> {
        Vec::new()
    }

    /// Number of orthogonal channels the model provides. Interference only
    /// accrues within a channel; the single shared channel of the original
    /// SCREAM setting is the default.
    fn channel_count(&self) -> usize {
        1
    }
}

/// The fallback accumulator behind the default
/// [`SlotFeasibility::open_slot`]: per-channel link lists probed through the
/// model's `can_add`, plus an O(k)-scan `(node, channel)` occupancy list for
/// the cross-channel half-duplex rule. A model reporting zero channels is
/// given the one shared channel.
struct RecheckSlot<'a, M: SlotFeasibility + ?Sized> {
    model: &'a M,
    channels: Vec<Vec<Link>>,
    occupancy: Vec<(NodeId, ChannelId)>,
}

impl<M: SlotFeasibility + ?Sized> SlotAccumulator for RecheckSlot<'_, M> {
    fn channel_count(&self) -> usize {
        self.channels.len()
    }

    fn can_add(&self, channel: ChannelId, candidate: Link) -> bool {
        let busy_elsewhere = self
            .occupancy
            .iter()
            .any(|&(node, c)| c != channel && (node == candidate.head || node == candidate.tail));
        !busy_elsewhere
            && self
                .model
                .can_add(&self.channels[channel.index()], candidate)
    }

    fn assign(&mut self, channel: ChannelId, link: Link) {
        self.occupancy.push((link.head, channel));
        self.occupancy.push((link.tail, channel));
        self.channels[channel.index()].push(link);
    }

    fn channel_feasible(&self, channel: ChannelId) -> bool {
        self.model.slot_feasible(&self.channels[channel.index()])
    }

    fn clear(&mut self) {
        self.occupancy.clear();
        for links in &mut self.channels {
            links.clear();
        }
    }

    fn links(&self, channel: ChannelId) -> &[Link] {
        &self.channels[channel.index()]
    }
}

impl SlotAccumulator for ChannelSlotLedger<'_> {
    fn channel_count(&self) -> usize {
        ChannelSlotLedger::channel_count(self)
    }

    fn can_add(&self, channel: ChannelId, candidate: Link) -> bool {
        ChannelSlotLedger::can_add(self, channel, candidate)
    }

    fn assign(&mut self, channel: ChannelId, link: Link) {
        ChannelSlotLedger::assign(self, channel, link);
    }

    fn assign_all(&mut self, channel: ChannelId, links: &[Link]) {
        ChannelSlotLedger::assign_all(self, channel, links);
    }

    fn channel_feasible(&self, channel: ChannelId) -> bool {
        self.channel(channel).slot_feasible()
    }

    fn clear(&mut self) {
        ChannelSlotLedger::clear(self);
    }

    fn links(&self, channel: ChannelId) -> &[Link] {
        ChannelSlotLedger::links(self, channel)
    }

    fn contains_link(&self, link: Link) -> bool {
        ChannelSlotLedger::contains_link(self, link)
    }

    fn surely_refuses(&self, candidate: Link) -> bool {
        ChannelSlotLedger::surely_refuses(self, candidate)
    }
}

impl SlotFeasibility for RadioEnvironment {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        SlotLedger::with_links(self, links).slot_feasible()
    }

    fn open_slot(&self) -> Box<dyn SlotAccumulator + '_> {
        Box::new(self.open_channel_ledger())
    }

    fn slot_margins(&self, links: &[Link]) -> Vec<LinkSinrMargin> {
        SlotLedger::with_links(self, links).margins()
    }

    fn channel_count(&self) -> usize {
        RadioEnvironment::channel_count(self)
    }
}

/// Blanket implementation so shared references can be passed where an owner
/// is expected. Forwards every method, so a `&RadioEnvironment` still gets
/// the ledger-backed accumulator.
impl<T: SlotFeasibility + ?Sized> SlotFeasibility for &T {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        (**self).slot_feasible(links)
    }

    fn can_add(&self, existing: &[Link], candidate: Link) -> bool {
        (**self).can_add(existing, candidate)
    }

    fn open_slot(&self) -> Box<dyn SlotAccumulator + '_> {
        (**self).open_slot()
    }

    fn slot_margins(&self, links: &[Link]) -> Vec<LinkSinrMargin> {
        (**self).slot_margins(links)
    }

    fn channel_count(&self) -> usize {
        (**self).channel_count()
    }
}

/// Wrapper around a [`RadioEnvironment`] whose ledgers are built with
/// spatial pruning **disabled** (`SlotLedger::exact`,
/// `ChannelSlotLedger::exact`), while every other method forwards to the
/// environment unchanged.
///
/// The pruned ledger is verdict-identical to the exact one by construction
/// (every screen carries a conservative margin and ambiguity falls back to
/// the exact code path), so `ExactPhysical(&env)` and `&env` must produce
/// byte-identical schedules. This wrapper exists so that claim is testable
/// (the `pruned_ledger_matches_exact_*` property tests) and measurable (the
/// large-scale probe benchmark reports pruned-vs-exact speedup).
pub struct ExactPhysical<'a>(pub &'a RadioEnvironment);

impl SlotFeasibility for ExactPhysical<'_> {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        let mut ledger = SlotLedger::exact(self.0);
        ledger.assign_all(links);
        ledger.slot_feasible()
    }

    fn open_slot(&self) -> Box<dyn SlotAccumulator + '_> {
        Box::new(ChannelSlotLedger::exact(self.0))
    }

    fn slot_margins(&self, links: &[Link]) -> Vec<LinkSinrMargin> {
        SlotFeasibility::slot_margins(self.0, links)
    }

    fn channel_count(&self) -> usize {
        RadioEnvironment::channel_count(self.0)
    }
}

/// The protocol interference model: a communication from `u` to `v` succeeds
/// iff no node within `interference_range_hops` hops of either endpoint (in
/// the communication graph) is simultaneously active.
///
/// With `interference_range_hops = 1` this is the classic "no active node may
/// be a neighbor of a receiver" rule; with 2 it approximates RTS/CTS-silenced
/// 802.11 neighborhoods. The model is *more conservative* than the physical
/// model in dense regions (it silences nodes whose aggregate interference
/// would actually be tolerable) which is exactly the capacity argument the
/// paper's introduction makes.
///
/// Construction precomputes the all-pairs hop-distance matrix of the graph
/// (one BFS per node), so every pairwise conflict test afterwards is an O(1)
/// lookup instead of a fresh BFS.
///
/// Deliberately *not* serde-derived: the hop matrix is O(n²) state derivable
/// from the graph, and deserializing it would mean trusting (and shipping)
/// an invariant `new` exists to establish. Serialize the graph and range and
/// rebuild with [`ProtocolModel::new`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolModel {
    graph: Graph,
    interference_range_hops: usize,
    /// Row-major `n × n` hop distances; `u32::MAX` encodes "unreachable".
    hop_matrix: Vec<u32>,
}

const UNREACHABLE: u32 = u32::MAX;

impl ProtocolModel {
    /// Creates a protocol-model checker over the given communication graph,
    /// precomputing its hop-distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if `interference_range_hops` is zero.
    pub fn new(graph: Graph, interference_range_hops: usize) -> Self {
        assert!(
            interference_range_hops > 0,
            "interference range must be at least one hop"
        );
        let n = graph.node_count();
        let mut hop_matrix = vec![UNREACHABLE; n * n];
        for source in 0..n {
            let distances = graph.bfs_distances(NodeId::new(source as u32));
            for (target, &d) in distances.iter().enumerate() {
                if d != usize::MAX {
                    hop_matrix[source * n + target] = d as u32;
                }
            }
        }
        Self {
            graph,
            interference_range_hops,
            hop_matrix,
        }
    }

    /// The configured interference range in hops.
    pub fn interference_range_hops(&self) -> usize {
        self.interference_range_hops
    }

    /// Precomputed hop distance between two nodes, or `None` when they are
    /// disconnected. Equivalent to `graph.hop_distance(a, b)` at O(1) cost.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let n = self.graph.node_count();
        match self.hop_matrix[a.index() * n + b.index()] {
            UNREACHABLE => None,
            d => Some(d as usize),
        }
    }

    fn within_interference_range(&self, a: NodeId, b: NodeId) -> bool {
        self.hop_distance(a, b)
            .is_some_and(|d| d <= self.interference_range_hops)
    }

    /// Whether two links cannot share a slot under this model: they share an
    /// endpoint, or a transmitter of one is within interference range of a
    /// receiver of the other (both data and ACK directions considered).
    pub fn links_conflict(&self, a: Link, b: Link) -> bool {
        a.shares_endpoint(&b)
            || self.within_interference_range(a.head, b.tail)
            || self.within_interference_range(b.head, a.tail)
            || self.within_interference_range(a.tail, b.head)
            || self.within_interference_range(b.tail, a.head)
    }
}

impl SlotFeasibility for ProtocolModel {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        for (i, a) in links.iter().enumerate() {
            if a.head == a.tail {
                return false;
            }
            for b in links.iter().skip(i + 1) {
                if self.links_conflict(*a, *b) {
                    return false;
                }
            }
        }
        true
    }

    fn can_add(&self, existing: &[Link], candidate: Link) -> bool {
        if candidate.head == candidate.tail {
            return false;
        }
        existing
            .iter()
            .all(|&link| !self.links_conflict(link, candidate))
    }

    // No `open_slot` override: the default accumulator probes through the
    // O(k) `can_add` above, which is already the cheapest possible check for
    // a pairwise model.
}

#[cfg(test)]
mod tests {
    use super::*;
    use scream_netsim::PropagationModel;
    use scream_topology::{GridDeployment, Meters, NodeId, UnitDiskGraphBuilder};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    fn line_graph(n: usize) -> Graph {
        let d = GridDeployment::new(n, 1, 100.0).build();
        UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d)
    }

    #[test]
    fn protocol_model_rejects_nearby_concurrent_links() {
        let m = ProtocolModel::new(line_graph(8), 1);
        // Links 0->1 and 2->3: transmitter 2 is 1 hop from receiver... wait,
        // receiver of the first link is node 1, which is 1 hop from node 2.
        assert!(!m.slot_feasible(&[link(1, 0), link(3, 2)]));
        // Links 0->1 and 5->4 are far apart.
        assert!(m.slot_feasible(&[link(1, 0), link(5, 4)]));
    }

    #[test]
    fn protocol_model_larger_range_is_more_conservative() {
        let near = ProtocolModel::new(line_graph(10), 1);
        let far = ProtocolModel::new(line_graph(10), 3);
        let links = [link(1, 0), link(5, 4)];
        assert!(near.slot_feasible(&links));
        assert!(!far.slot_feasible(&links));
        assert_eq!(far.interference_range_hops(), 3);
    }

    #[test]
    fn protocol_model_rejects_shared_endpoints_and_self_links() {
        let m = ProtocolModel::new(line_graph(5), 1);
        assert!(!m.slot_feasible(&[link(1, 0), link(2, 1)]));
        assert!(!m.slot_feasible(&[link(2, 2)]));
        assert!(m.slot_feasible(&[]));
    }

    #[test]
    fn hop_matrix_matches_per_query_bfs() {
        let graph = line_graph(7);
        let m = ProtocolModel::new(graph.clone(), 2);
        for a in 0..7u32 {
            for b in 0..7u32 {
                assert_eq!(
                    m.hop_distance(NodeId::new(a), NodeId::new(b)),
                    graph.hop_distance(NodeId::new(a), NodeId::new(b)),
                    "hop matrix diverges for ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn protocol_accumulator_agrees_with_whole_set_checks() {
        let m = ProtocolModel::new(line_graph(12), 1);
        let c0 = ChannelId::ZERO;
        let mut acc = m.open_slot();
        assert_eq!(acc.channel_count(), 1);
        let mut assigned: Vec<Link> = Vec::new();
        for candidate in [link(1, 0), link(3, 2), link(5, 4), link(11, 10), link(2, 2)] {
            let mut with_candidate = assigned.clone();
            with_candidate.push(candidate);
            assert_eq!(
                acc.can_add(c0, candidate),
                m.slot_feasible(&with_candidate),
                "accumulator diverges adding {candidate}"
            );
            if acc.can_add(c0, candidate) {
                acc.assign(c0, candidate);
                assigned.push(candidate);
            }
        }
        assert_eq!(acc.links(c0), assigned.as_slice());
        assert!(acc.contains_link(link(1, 0)));
        acc.clear();
        assert!(acc.links(c0).is_empty());
        assert!(!acc.contains_link(link(1, 0)));
    }

    #[test]
    fn fallback_accumulator_keeps_channels_apart_but_radios_shared() {
        // A model with two channels and no accumulator of its own: the
        // provided one prices each channel through `can_add` separately and
        // refuses a node on two channels of one slot.
        struct TwoChannels(ProtocolModel);
        impl SlotFeasibility for TwoChannels {
            fn slot_feasible(&self, links: &[Link]) -> bool {
                self.0.slot_feasible(links)
            }
            fn channel_count(&self) -> usize {
                2
            }
        }
        let m = TwoChannels(ProtocolModel::new(line_graph(8), 1));
        let (c0, c1) = (ChannelId::new(0), ChannelId::new(1));
        let mut acc = m.open_slot();
        assert_eq!(acc.channel_count(), 2);
        acc.assign(c0, link(1, 0));
        // Conflicting on the shared channel, fine on the orthogonal one.
        assert!(!acc.can_add(c0, link(3, 2)));
        assert!(acc.can_add(c1, link(3, 2)));
        // Node 1 already has its radio on channel 0.
        assert!(!acc.can_add(c1, link(2, 1)));
        acc.assign(c1, link(3, 2));
        assert_eq!(acc.links(c0), &[link(1, 0)]);
        assert_eq!(acc.links(c1), &[link(3, 2)]);
        assert!(acc.contains_link(link(3, 2)));
    }

    #[test]
    fn a_model_reporting_zero_channels_gets_the_one_shared_channel() {
        struct NoChannels;
        impl SlotFeasibility for NoChannels {
            fn slot_feasible(&self, _links: &[Link]) -> bool {
                true
            }
            fn channel_count(&self) -> usize {
                0
            }
        }
        let mut acc = NoChannels.open_slot();
        assert_eq!(acc.channel_count(), 1);
        assert!(acc.can_add(ChannelId::ZERO, link(1, 0)));
        acc.assign(ChannelId::ZERO, link(1, 0));
        assert_eq!(acc.links(ChannelId::ZERO), &[link(1, 0)]);
    }

    #[test]
    fn radio_environment_implements_the_trait() {
        let d = GridDeployment::new(8, 1, 200.0).build();
        let env = scream_netsim::RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let checker: &dyn SlotFeasibility = &env;
        assert!(checker.slot_feasible(&[link(1, 0)]));
        assert!(!checker.slot_feasible(&[link(1, 0), link(2, 1)]));
        // can_add agrees with slot_feasible through the trait object.
        let far = link(7, 6);
        assert_eq!(
            checker.can_add(&[link(1, 0)], far),
            checker.slot_feasible(&[link(1, 0), far])
        );
    }

    #[test]
    fn environment_accumulator_is_ledger_backed_and_agrees_with_can_add() {
        let d = GridDeployment::new(10, 1, 200.0).build();
        let env = scream_netsim::RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let c0 = ChannelId::ZERO;
        let mut acc = SlotFeasibility::open_slot(&env);
        let mut assigned: Vec<Link> = Vec::new();
        for candidate in [link(0, 1), link(4, 5), link(2, 3), link(8, 9)] {
            assert_eq!(
                acc.can_add(c0, candidate),
                SlotFeasibility::can_add(&env, &assigned, candidate),
                "ledger accumulator diverges adding {candidate}"
            );
            if acc.can_add(c0, candidate) {
                acc.assign(c0, candidate);
                assigned.push(candidate);
            }
        }
        assert_eq!(acc.links(c0), assigned.as_slice());
    }

    #[test]
    fn environment_reports_margins_and_protocol_model_does_not() {
        let d = GridDeployment::new(8, 1, 200.0).build();
        let env = scream_netsim::RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let slot = [link(1, 0), link(7, 6)];
        let margins = SlotFeasibility::slot_margins(&env, &slot);
        assert_eq!(margins.len(), 2);
        assert!(margins.iter().all(LinkSinrMargin::ok));

        let m = ProtocolModel::new(line_graph(8), 1);
        assert!(m.slot_margins(&slot).is_empty());
    }

    #[test]
    fn exact_physical_agrees_with_pruned_environment() {
        let d = GridDeployment::new(6, 6, 180.0).build();
        let env = scream_netsim::RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let exact = ExactPhysical(&env);
        assert_eq!(
            SlotFeasibility::channel_count(&exact),
            SlotFeasibility::channel_count(&env)
        );

        let mut pruned_acc = SlotFeasibility::open_slot(&env);
        let mut exact_acc = SlotFeasibility::open_slot(&exact);
        let c0 = ChannelId::ZERO;
        // Row-adjacent links across the grid; some conflict, some do not.
        let candidates: Vec<Link> = (0..36u32)
            .filter(|n| n % 6 != 5)
            .map(|n| link(n, n + 1))
            .collect();
        for &candidate in &candidates {
            let pruned_verdict = pruned_acc.can_add(c0, candidate);
            assert_eq!(
                pruned_verdict,
                exact_acc.can_add(c0, candidate),
                "pruned and exact accumulators diverge on {candidate}"
            );
            if pruned_verdict {
                pruned_acc.assign(c0, candidate);
                exact_acc.assign(c0, candidate);
            }
        }
        assert_eq!(pruned_acc.links(c0), exact_acc.links(c0));
        assert_eq!(
            SlotFeasibility::slot_margins(&exact, pruned_acc.links(c0)),
            SlotFeasibility::slot_margins(&env, pruned_acc.links(c0))
        );
    }

    #[test]
    fn reference_blanket_impl_delegates() {
        let m = ProtocolModel::new(line_graph(8), 1);
        let by_ref: &ProtocolModel = &m;
        assert_eq!(
            SlotFeasibility::slot_feasible(&by_ref, &[link(1, 0), link(5, 4)]),
            m.slot_feasible(&[link(1, 0), link(5, 4)])
        );
        // The forwarded accumulator still short-circuits pairwise.
        let acc = SlotFeasibility::open_slot(&by_ref);
        assert!(acc.can_add(ChannelId::ZERO, link(1, 0)));
    }

    #[test]
    fn physical_model_admits_sets_a_conservative_protocol_model_rejects() {
        // The motivating claim of the paper: the physical model admits more
        // concurrency than a conservative protocol-model rule. Build a line
        // of 12 nodes at 150 m spacing; the links (1->0), (5->4), (9->8) are
        // 4 hops apart, which a CSMA/CA-like rule silencing a 3-hop
        // neighborhood (carrier-sense range ~2x communication range) forbids,
        // while the aggregate SINR at every receiver stays above beta.
        let d = GridDeployment::new(12, 1, 150.0).build();
        let env = scream_netsim::RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&d);
        let graph = env.communication_graph();
        let protocol = ProtocolModel::new(graph, 3);
        let links = [link(1, 0), link(5, 4), link(9, 8)];
        let physical_ok = SlotFeasibility::slot_feasible(&env, &links);
        let protocol_ok = protocol.slot_feasible(&links);
        assert!(physical_ok);
        assert!(!protocol_ok);
    }
}
