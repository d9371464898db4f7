//! Communication and sensitivity graphs, plus the graph algorithms used by
//! the SCREAM protocols and their analysis.
//!
//! The paper distinguishes the *communication graph* `G = (V, E)` (links that
//! exist in the absence of interference) from the *sensitivity graph*
//! `G_S = (V, E_S)` (Definition 1: `(u, v) ∈ E_S` iff `v` can detect channel
//! activity when only `u` transmits). The SCREAM primitive floods one hop of
//! `G_S` per scream slot, so its required duration is the *interference
//! diameter* `ID(G_S)` (Definition 2) — the maximum hop distance between any
//! pair of nodes.

use serde::{Deserialize, Serialize};

use crate::deploy::Deployment;
use crate::error::TopologyError;
use crate::node::NodeId;
use crate::units::Meters;

/// Whether a [`Graph`] is directed or undirected.
///
/// The communication graph is undirected (unidirectional links are discarded
/// because link-layer ACKs are required, Section II); the sensitivity graph is
/// directed in general but becomes undirected under the equal-carrier-sense
///-range assumption of Section IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphKind {
    /// Every edge `(u, v)` implies the reverse edge `(v, u)`.
    Undirected,
    /// Edges are one-way.
    Directed,
}

/// A graph over the nodes of a deployment, stored as adjacency lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    kind: GraphKind,
    adjacency: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph (no edges) over `n` nodes.
    pub fn new(n: usize, kind: GraphKind) -> Self {
        Self {
            kind,
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Whether the graph is directed or undirected.
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges. For undirected graphs each edge is counted once.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub(crate) fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Adds an edge from `u` to `v`. For undirected graphs the reverse edge
    /// is added implicitly. Duplicate edges and self-loops are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownNode`] if either endpoint is out of
    /// range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), TopologyError> {
        let n = self.node_count();
        for id in [u, v] {
            if id.index() >= n {
                return Err(TopologyError::UnknownNode { id, node_count: n });
            }
        }
        if u != v && !self.has_edge(u, v) {
            self.push_edge(u, v);
        }
        Ok(())
    }

    /// Adds an edge the caller guarantees is new: both endpoints in range,
    /// `u ≠ v`, and neither `(u, v)` nor, in an undirected graph, `(v, u)`
    /// already present — e.g. builders visiting each node pair of `0..n`
    /// once. An O(1) push with none of [`Self::add_edge`]'s duplicate and
    /// self-loop handling; a broken contract is a caller bug, checked in
    /// debug builds.
    pub fn add_edge_unchecked(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "add_edge_unchecked endpoints out of range: ({u}, {v}) with {} nodes",
            self.node_count()
        );
        debug_assert!(u != v, "add_edge_unchecked self-loop at {u}");
        debug_assert!(
            !self.has_edge(u, v),
            "add_edge_unchecked duplicate edge ({u}, {v})"
        );
        self.push_edge(u, v);
    }

    /// Appends the edge `(u, v)` (and its reverse in an undirected graph)
    /// with no check at all.
    fn push_edge(&mut self, u: NodeId, v: NodeId) {
        self.adjacency[u.index()].push(v);
        if self.kind == GraphKind::Undirected {
            self.adjacency[v.index()].push(u);
        }
        self.edge_count += 1;
    }

    /// A copy of this graph with the given edges removed (fault pruning).
    ///
    /// Each pair removes the edge between its endpoints regardless of
    /// orientation in an undirected graph; pairs naming absent edges or
    /// out-of-range nodes are ignored, so a stale fault list is harmless.
    /// Node count and ids are preserved — pruning never reindexes.
    pub fn without_edges(&self, dead: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        // Undirected pairs are looked up as `edges` yields them, smaller id first.
        let undirected = self.kind == GraphKind::Undirected;
        let mut dead: Vec<(NodeId, NodeId)> = dead
            .into_iter()
            .map(|(a, b)| if undirected && b < a { (b, a) } else { (a, b) })
            .collect();
        dead.sort_unstable();
        // The survivors are re-inserted in `edges` order: the adjacency order
        // seeded routing reads. The source holds no duplicate and no
        // self-loop, so a kept edge is a push into pre-sized lists.
        let reserved = |nbrs: &Vec<NodeId>| Vec::with_capacity(nbrs.len());
        let mut pruned = Self {
            kind: self.kind,
            adjacency: self.adjacency.iter().map(reserved).collect(),
            edge_count: 0,
        };
        let alive = |pair: &(NodeId, NodeId)| dead.binary_search(pair).is_err();
        for (u, v) in self.edges().filter(alive) {
            pruned.push_edge(u, v);
        }
        pruned
    }

    /// Returns `true` if an edge from `u` to `v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency
            .get(u.index())
            .map(|nbrs| nbrs.contains(&v))
            .unwrap_or(false)
    }

    /// Out-neighbors of `u`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adjacency[u.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterator over all edges. For undirected graphs each edge appears once,
    /// with the smaller id first.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(move |(u, nbrs)| {
                let u = NodeId::new(u as u32);
                nbrs.iter()
                    .copied()
                    .filter(move |&v| self.kind == GraphKind::Directed || u < v)
                    .map(move |v| (u, v))
            })
    }

    /// Average node degree, i.e. the *neighbor density* `ρ(G)` of
    /// Definition 6 in the paper.
    pub fn neighbor_density(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let total: usize = self.adjacency.iter().map(Vec::len).sum();
        total as f64 / self.node_count() as f64
    }

    /// Breadth-first hop distances from `source` to every node.
    ///
    /// Unreachable nodes get `usize::MAX`.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        let n = self.node_count();
        let mut dist = vec![usize::MAX; n];
        if source.index() >= n {
            return dist;
        }
        let mut queue = std::collections::VecDeque::new();
        dist[source.index()] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &v in self.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Hop distance from `u` to `v`, or `None` if `v` is unreachable.
    pub fn hop_distance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let d = self.bfs_distances(u)[v.index()];
        (d != usize::MAX).then_some(d)
    }

    /// Whether every node is reachable from every other node.
    ///
    /// For undirected graphs this is ordinary connectivity; for directed
    /// graphs it is strong connectivity (checked by running a forward BFS
    /// from node 0 and a BFS from node 0 in the transposed graph).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let start = NodeId::new(0);
        let forward_ok = self.bfs_distances(start).iter().all(|&d| d != usize::MAX);
        if !forward_ok {
            return false;
        }
        match self.kind {
            GraphKind::Undirected => true,
            GraphKind::Directed => {
                let t = self.transposed();
                t.bfs_distances(start).iter().all(|&d| d != usize::MAX)
            }
        }
    }

    /// Number of nodes unreachable from `source`.
    pub(crate) fn unreachable_from(&self, source: NodeId) -> usize {
        self.bfs_distances(source)
            .iter()
            .filter(|&&d| d == usize::MAX)
            .count()
    }

    /// The transposed graph (edges reversed). For undirected graphs this is
    /// a clone. The source holds no duplicate and no self-loop, so each
    /// reversed edge is a push.
    pub(crate) fn transposed(&self) -> Graph {
        match self.kind {
            GraphKind::Undirected => self.clone(),
            GraphKind::Directed => {
                let mut t = Graph::new(self.node_count(), GraphKind::Directed);
                for (u, v) in self.edges() {
                    t.push_edge(v, u);
                }
                t
            }
        }
    }

    /// The hop diameter of the graph: the maximum finite hop distance between
    /// any ordered pair of nodes, or `None` if the graph is not (strongly)
    /// connected.
    ///
    /// Applied to the sensitivity graph this is exactly the *interference
    /// diameter* `ID(G_S)` of Definition 2, which lower-bounds the number of
    /// scream slots `K` needed for the SCREAM primitive to implement a
    /// network-wide OR.
    ///
    /// One BFS per source over bit rows: node `u`'s out-neighbours are one
    /// `u64` row, and a BFS level is the OR of the frontier's rows minus the
    /// nodes already seen. A source that does not reach every node answers
    /// `None` at once, which is the strong-connectivity check.
    pub(crate) fn diameter(&self) -> Option<usize> {
        let n = self.node_count();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        for (row, nbrs) in rows.chunks_exact_mut(words).zip(&self.adjacency) {
            for v in nbrs {
                row[v.index() / 64] |= 1 << (v.index() % 64);
            }
        }
        let (mut seen, mut frontier, mut next) =
            (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
        let mut best = 0;
        for source in 0..n {
            seen.fill(0);
            frontier.fill(0);
            seen[source / 64] = 1 << (source % 64);
            frontier[source / 64] = seen[source / 64];
            let (mut reached, mut depth) = (1, 0);
            while reached < n {
                next.fill(0);
                for (w, &bits) in frontier.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let u = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let row = &rows[u * words..(u + 1) * words];
                        for (out, &r) in next.iter_mut().zip(row) {
                            *out |= r;
                        }
                    }
                }
                let mut fresh = 0;
                for (out, seen) in next.iter_mut().zip(seen.iter_mut()) {
                    *out &= !*seen;
                    *seen |= *out;
                    fresh += out.count_ones() as usize;
                }
                if fresh == 0 {
                    return None;
                }
                reached += fresh;
                depth += 1;
                std::mem::swap(&mut frontier, &mut next);
            }
            best = best.max(depth);
        }
        Some(best)
    }

    /// Interference diameter as defined in the paper: the hop diameter, with
    /// disconnected graphs mapping to infinity (represented as `usize::MAX`).
    pub fn interference_diameter(&self) -> usize {
        self.diameter().unwrap_or(usize::MAX)
    }

    /// Minimum hop distance between two *links* (Definition 3): the minimum
    /// hop distance between any endpoint of `a` and any endpoint of `b`.
    pub fn link_hop_distance(&self, a: (NodeId, NodeId), b: (NodeId, NodeId)) -> Option<usize> {
        let mut best: Option<usize> = None;
        for &u in &[a.0, a.1] {
            let dist = self.bfs_distances(u);
            for &v in &[b.0, b.1] {
                let d = dist[v.index()];
                if d != usize::MAX {
                    best = Some(best.map_or(d, |b| b.min(d)));
                }
            }
        }
        best
    }
}

/// Builds a communication graph by connecting every pair of nodes within a
/// fixed communication range (a *unit-disk* graph).
///
/// This is the geometric graph model used throughout Section IV-B of the
/// paper (where the carrier-sense range is assumed equal to the communication
/// range `r`, making the sensitivity graph coincide with the communication
/// graph). For SINR-derived communication graphs with heterogeneous powers,
/// see `scream-netsim`'s `RadioEnvironment::communication_graph`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitDiskGraphBuilder {
    range: Meters,
}

impl UnitDiskGraphBuilder {
    /// Creates a builder with the given communication range in meters.
    ///
    /// # Panics
    ///
    /// Panics if the range is not strictly positive and finite.
    pub fn new(range: Meters) -> Self {
        let range_m = range.get();
        assert!(
            range_m.is_finite() && range_m > 0.0,
            "communication range must be positive and finite, got {range_m}"
        );
        Self { range }
    }

    /// Builds the undirected unit-disk graph over the deployment's nodes.
    pub fn build(&self, deployment: &Deployment) -> Graph {
        let n = deployment.len();
        let mut g = Graph::new(n, GraphKind::Undirected);
        let r2 = self.range.get() * self.range.get();
        for i in 0..n {
            let pi = deployment.position(NodeId::new(i as u32));
            for j in (i + 1)..n {
                let pj = deployment.position(NodeId::new(j as u32));
                if pi.distance_squared(pj) <= r2 {
                    g.add_edge_unchecked(NodeId::new(i as u32), NodeId::new(j as u32));
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::GridDeployment;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n, GraphKind::Undirected);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(NodeId::new(i as u32), NodeId::new(i as u32 + 1))
                .unwrap();
        }
        g
    }

    #[test]
    fn without_edges_prunes_either_orientation_and_keeps_ids() {
        let g = path_graph(4);
        // The dead pair is given tail-first; the undirected graph must still
        // drop the edge, and absent pairs are ignored.
        let pruned = g.without_edges([
            (NodeId::new(2), NodeId::new(1)),
            (NodeId::new(0), NodeId::new(3)),
        ]);
        assert_eq!(pruned.node_count(), 4);
        assert_eq!(pruned.edge_count(), 2);
        assert!(pruned.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!pruned.has_edge(NodeId::new(1), NodeId::new(2)));
        assert!(!pruned.is_connected());
        // The original is untouched.
        assert_eq!(g.edge_count(), 3);
    }

    /// `without_edges` as it stood before the linear-time rebuild: every
    /// surviving edge re-inserted through `add_edge`. The reference the
    /// product path must equal, adjacency order and edge count included.
    fn reference_without_edges(g: &Graph, dead: &[(NodeId, NodeId)]) -> Graph {
        let is_dead = |u: NodeId, v: NodeId| {
            dead.iter().any(|&(a, b)| {
                (a, b) == (u, v) || (g.kind == GraphKind::Undirected && (a, b) == (v, u))
            })
        };
        let mut pruned = Graph::new(g.node_count(), g.kind);
        for (u, v) in g.edges() {
            if !is_dead(u, v) {
                pruned.add_edge(u, v).unwrap();
            }
        }
        pruned
    }

    #[test]
    fn fault_pruning_equals_the_reinsertion_reference_on_every_graph() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x9a27);
        let mut pruned_something = 0;
        for case in 0..120u32 {
            let n = rng.gen_range(1..40usize);
            let kind = if case % 2 == 0 {
                GraphKind::Undirected
            } else {
                GraphKind::Directed
            };
            // Shuffled insertion order (adjacency lists are not sorted),
            // with duplicates, reversed duplicates and self-loops offered.
            let mut offered: Vec<(u32, u32)> = (0..rng.gen_range(0..4 * n))
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            offered.extend(offered.clone().iter().take(n / 2).map(|&(a, b)| (b, a)));
            offered.shuffle(&mut rng);
            let mut g = Graph::new(n, kind);
            for &(a, b) in &offered {
                g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
            }

            // Dead pairs: present, absent, repeated, either orientation, and
            // out of range.
            let any_id = |rng: &mut ChaCha8Rng| NodeId::new(rng.gen_range(0..n as u32 + 3));
            let mut dead_edges: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..8))
                .map(|_| (any_id(&mut rng), any_id(&mut rng)))
                .collect();
            for &(a, b) in offered.iter().take(rng.gen_range(0..6usize)) {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                dead_edges.push(if rng.gen_bool(0.5) { (a, b) } else { (b, a) });
            }

            let by_edges = g.without_edges(dead_edges.iter().copied());
            assert_eq!(
                by_edges,
                reference_without_edges(&g, &dead_edges),
                "case {case}"
            );
            pruned_something += usize::from(by_edges.edge_count() < g.edge_count());
        }
        assert!(pruned_something > 60, "the dead lists rarely hit an edge");
    }

    #[test]
    fn empty_graph_is_connected_with_zero_diameter() {
        let g = Graph::new(0, GraphKind::Undirected);
        assert!(g.is_connected());
        assert!(g.is_empty());
        assert_eq!(g.neighbor_density(), 0.0);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new(1, GraphKind::Undirected);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.interference_diameter(), 0);
    }

    #[test]
    fn add_edge_rejects_unknown_nodes() {
        let mut g = Graph::new(3, GraphKind::Undirected);
        let err = g.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert!(matches!(err, TopologyError::UnknownNode { .. }));
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_ignored() {
        let mut g = Graph::new(3, GraphKind::Undirected);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(0)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(2)).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(NodeId::new(0)).len(), 1);
        assert_eq!(g.neighbors(NodeId::new(2)).len(), 0);
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut g = Graph::new(2, GraphKind::Undirected);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut g = Graph::new(2, GraphKind::Directed);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn path_graph_distances_and_diameter() {
        let g = path_graph(5);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(g.hop_distance(NodeId::new(0), NodeId::new(4)), Some(4));
        assert_eq!(g.hop_distance(NodeId::new(2), NodeId::new(2)), Some(0));
    }

    #[test]
    fn disconnected_graph_has_infinite_interference_diameter() {
        let mut g = path_graph(4);
        // Add an isolated node.
        g = {
            let mut h = Graph::new(5, GraphKind::Undirected);
            for (u, v) in g.edges() {
                h.add_edge(u, v).unwrap();
            }
            h
        };
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.interference_diameter(), usize::MAX);
        assert_eq!(g.unreachable_from(NodeId::new(0)), 1);
    }

    #[test]
    fn directed_cycle_is_strongly_connected_but_chain_is_not() {
        let mut cycle = Graph::new(3, GraphKind::Directed);
        cycle.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        cycle.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        cycle.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        assert!(cycle.is_connected());
        assert_eq!(cycle.diameter(), Some(2));

        let mut chain = Graph::new(3, GraphKind::Directed);
        chain.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        chain.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        assert!(!chain.is_connected());
    }

    /// `diameter` by its definition: the largest finite `bfs_distances`
    /// entry over every source, or `None` once some node is unreachable
    /// from some source.
    fn reference_diameter(g: &Graph) -> Option<usize> {
        let mut best = 0;
        for u in g.nodes() {
            for d in g.bfs_distances(u) {
                if d == usize::MAX {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// A seeded connected draw over `n ≥ 2` nodes: a path (undirected) or a
    /// one-way cycle (directed) through a shuffled order ending at node
    /// `n − 1`, plus `chords` random chords. No chord enters node `n − 1`
    /// (nor, undirected, touches it), so the returned edge into it is its
    /// only way in: the one one-way edge whose removal disconnects the draw.
    fn drawn_graph(
        n: usize,
        kind: GraphKind,
        chords: usize,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> (Graph, (NodeId, NodeId)) {
        use rand::seq::SliceRandom;
        use rand::Rng;

        let last = n as u32 - 1;
        let mut order: Vec<u32> = (0..last).collect();
        order.shuffle(rng);
        order.push(last);
        let mut g = Graph::new(n, kind);
        let id = NodeId::new;
        for hop in order.windows(2) {
            g.add_edge(id(hop[0]), id(hop[1])).unwrap();
        }
        if kind == GraphKind::Directed {
            g.add_edge(id(last), id(order[0])).unwrap();
        }
        let tails = if kind == GraphKind::Directed {
            n as u32
        } else {
            last
        };
        for _ in 0..chords {
            let (a, b) = (rng.gen_range(0..tails), rng.gen_range(0..last));
            g.add_edge(id(a), id(b)).unwrap();
        }
        (g, (id(order[order.len() - 2]), id(last)))
    }

    #[test]
    fn bit_parallel_diameter_equals_the_bfs_reference_across_word_boundaries() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0xd1a3);
        let mut broken = 0;
        for n in [0, 1, 2, 63, 64, 65, 127, 128, 129, 200] {
            for kind in [GraphKind::Undirected, GraphKind::Directed] {
                if n < 2 {
                    let g = Graph::new(n, kind);
                    assert_eq!(g.diameter(), Some(0), "{kind:?} n = {n}");
                    continue;
                }
                // Sparse (a path or cycle plus a few chords) to dense.
                for chords in [0, n / 8, n, n * n / 4] {
                    let (g, bridge) = drawn_graph(n, kind, chords, &mut rng);
                    let want = reference_diameter(&g);
                    assert!(want.is_some(), "{kind:?} n = {n}: the draw is connected");
                    assert_eq!(g.diameter(), want, "{kind:?} n = {n}, {chords} chords");

                    let cut = g.without_edges([bridge]);
                    assert_eq!(cut.edge_count() + 1, g.edge_count());
                    assert_eq!(reference_diameter(&cut), None);
                    assert_eq!(cut.diameter(), None, "{kind:?} n = {n}, {bridge:?} cut");
                    broken += 1;
                }
            }
        }
        assert_eq!(broken, 8 * 8);

        // The closed forms: a line's diameter is its length, a one-way
        // cycle's is one hop short of its size.
        assert_eq!(path_graph(8).diameter(), Some(7));
        for n in [2usize, 3, 64, 65, 129] {
            let mut cycle = Graph::new(n, GraphKind::Directed);
            for u in 0..n {
                let v = (u + 1) % n;
                cycle.add_edge_unchecked(NodeId::new(u as u32), NodeId::new(v as u32));
            }
            assert_eq!(cycle.diameter(), Some(n - 1), "one-way {n}-cycle");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate edge")]
    fn add_edge_unchecked_refuses_a_repeated_pair_in_debug_builds() {
        let mut g = Graph::new(2, GraphKind::Undirected);
        g.add_edge_unchecked(NodeId::new(0), NodeId::new(1));
        g.add_edge_unchecked(NodeId::new(1), NodeId::new(0));
    }

    #[test]
    fn transposing_twice_gives_back_the_edge_set() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x7a05);
        for n in [2, 9, 65] {
            for kind in [GraphKind::Undirected, GraphKind::Directed] {
                let (g, _) = drawn_graph(n, kind, n, &mut rng);
                let sorted = |g: &Graph| {
                    let mut edges: Vec<_> = g.edges().collect();
                    edges.sort_unstable();
                    edges
                };
                let twice = g.transposed().transposed();
                assert_eq!(twice.edge_count(), g.edge_count());
                assert_eq!(sorted(&twice), sorted(&g), "{kind:?} n = {n}");
            }
        }
    }

    #[test]
    fn neighbor_density_counts_average_degree() {
        let g = path_graph(4); // degrees 1,2,2,1 -> average 1.5
        assert!((g.neighbor_density() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_yields_each_undirected_edge_once() {
        let g = path_graph(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn transposed_directed_graph_reverses_edges() {
        let mut g = Graph::new(2, GraphKind::Directed);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let t = g.transposed();
        assert!(t.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!t.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn link_hop_distance_uses_closest_endpoints() {
        let g = path_graph(6);
        let a = (NodeId::new(0), NodeId::new(1));
        let b = (NodeId::new(4), NodeId::new(5));
        assert_eq!(g.link_hop_distance(a, b), Some(3));
        assert_eq!(g.link_hop_distance(a, a), Some(0));
    }

    #[test]
    fn unit_disk_graph_on_grid_connects_lattice_neighbors_only() {
        let d = GridDeployment::new(4, 4, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        assert!(g.is_connected());
        // Interior nodes have 4 neighbors, corners 2, edges 3.
        let degrees: Vec<usize> = g.nodes().map(|u| g.neighbors(u).len()).collect();
        assert_eq!(*degrees.iter().max().unwrap(), 4);
        assert_eq!(*degrees.iter().min().unwrap(), 2);
        // Diagonal neighbors (distance ~141m) must not be connected.
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(5)));
    }

    #[test]
    fn unit_disk_grid_diameter_is_manhattan_diameter() {
        let d = GridDeployment::new(4, 4, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        // Manhattan distance corner to corner of a 4x4 grid: 3 + 3 = 6 hops.
        assert_eq!(g.diameter(), Some(6));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn unit_disk_builder_rejects_nonpositive_range() {
        let _ = UnitDiskGraphBuilder::new(Meters::new(0.0));
    }
}
