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
    pub fn is_empty(&self) -> bool {
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
        self.insert_edge(u, v);
        Ok(())
    }

    /// Adds an edge whose endpoints the caller guarantees are in range, e.g.
    /// builders iterating node indices `0..n` of this very graph. Public
    /// counterpart of `insert_edge` for those callers, so in-range
    /// insertion does not force an `expect` on an error that cannot occur
    /// (P1). Out-of-range endpoints are a caller bug, checked in debug builds.
    pub fn add_edge_unchecked(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(
            u.index() < self.node_count() && v.index() < self.node_count(),
            "add_edge_unchecked endpoints out of range: ({u}, {v}) with {} nodes",
            self.node_count()
        );
        self.insert_edge(u, v);
    }

    /// Edge insertion for callers that guarantee both endpoints are in range
    /// (pruned copies, transposes, builders iterating `0..n`). Keeps the
    /// duplicate/self-loop handling of [`Self::add_edge`] without forcing an
    /// `expect` on an error that cannot occur (P1).
    fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v || self.has_edge(u, v) {
            return;
        }
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
        self.filtered(|u, v| dead.binary_search(&(u, v)).is_err())
    }

    /// A copy of this graph with the given nodes isolated (fault pruning):
    /// every edge incident to a dead node is dropped, but the node itself
    /// keeps its id so downstream indexing stays valid. Out-of-range ids are
    /// ignored.
    pub fn without_nodes(&self, dead: &[NodeId]) -> Self {
        let mut is_dead = vec![false; self.node_count()];
        let in_range = dead.iter().filter(|id| id.index() < self.node_count());
        in_range.for_each(|id| is_dead[id.index()] = true);
        self.filtered(|u, v| !is_dead[u.index()] && !is_dead[v.index()])
    }

    /// The edges `keep` admits, re-inserted in [`edges`](Self::edges) order:
    /// the adjacency order seeded routing reads. The source holds no duplicate
    /// and no self-loop, so a kept edge is a push into pre-sized lists.
    fn filtered(&self, keep: impl Fn(NodeId, NodeId) -> bool) -> Self {
        let reserved = |nbrs: &Vec<NodeId>| Vec::with_capacity(nbrs.len());
        let mut pruned = Self {
            kind: self.kind,
            adjacency: self.adjacency.iter().map(reserved).collect(),
            edge_count: 0,
        };
        for (u, v) in self.edges().filter(|&(u, v)| keep(u, v)) {
            pruned.adjacency[u.index()].push(v);
            if self.kind == GraphKind::Undirected {
                pruned.adjacency[v.index()].push(u);
            }
            pruned.edge_count += 1;
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
    pub fn unreachable_from(&self, source: NodeId) -> usize {
        self.bfs_distances(source)
            .iter()
            .filter(|&&d| d == usize::MAX)
            .count()
    }

    /// The transposed graph (edges reversed). For undirected graphs this is
    /// a clone.
    pub fn transposed(&self) -> Graph {
        match self.kind {
            GraphKind::Undirected => self.clone(),
            GraphKind::Directed => {
                let mut t = Graph::new(self.node_count(), GraphKind::Directed);
                for (u, v) in self.edges() {
                    t.insert_edge(v, u);
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
    pub fn diameter(&self) -> Option<usize> {
        if !self.is_connected() {
            return None;
        }
        let mut best = 0usize;
        for u in self.nodes() {
            let far = self
                .bfs_distances(u)
                .into_iter()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0);
            best = best.max(far);
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
                    g.insert_edge(NodeId::new(i as u32), NodeId::new(j as u32));
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

    #[test]
    fn without_nodes_isolates_but_never_reindexes() {
        let g = path_graph(5);
        let pruned = g.without_nodes(&[NodeId::new(2)]);
        assert_eq!(pruned.node_count(), 5);
        assert_eq!(pruned.edge_count(), 2);
        assert_eq!(pruned.neighbors(NodeId::new(2)).len(), 0);
        assert!(pruned.has_edge(NodeId::new(3), NodeId::new(4)));
        assert!(!pruned.is_connected());
    }

    /// `without_edges` as it stood before the linear-time rebuild: every
    /// surviving edge re-inserted through `insert_edge`. The reference the
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
                pruned.insert_edge(u, v);
            }
        }
        pruned
    }

    /// `without_nodes` as it stood before the linear-time rebuild.
    fn reference_without_nodes(g: &Graph, dead: &[NodeId]) -> Graph {
        let mut pruned = Graph::new(g.node_count(), g.kind);
        for (u, v) in g.edges() {
            if !dead.contains(&u) && !dead.contains(&v) {
                pruned.insert_edge(u, v);
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

            // Dead ids: present, absent, repeated, either orientation, and
            // out of range.
            let any_id = |rng: &mut ChaCha8Rng| NodeId::new(rng.gen_range(0..n as u32 + 3));
            let dead_nodes: Vec<NodeId> =
                (0..rng.gen_range(0..6)).map(|_| any_id(&mut rng)).collect();
            let mut dead_edges: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..8))
                .map(|_| (any_id(&mut rng), any_id(&mut rng)))
                .collect();
            for &(a, b) in offered.iter().take(rng.gen_range(0..6usize)) {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                dead_edges.push(if rng.gen_bool(0.5) { (a, b) } else { (b, a) });
            }

            let by_nodes = g.without_nodes(&dead_nodes);
            assert_eq!(
                by_nodes,
                reference_without_nodes(&g, &dead_nodes),
                "case {case}"
            );
            let by_edges = g.without_edges(dead_edges.iter().copied());
            assert_eq!(
                by_edges,
                reference_without_edges(&g, &dead_edges),
                "case {case}"
            );
            // The rescheduler's composition, on the already pruned copy.
            assert_eq!(
                by_nodes.without_edges(dead_edges.iter().copied()),
                reference_without_edges(&by_nodes, &dead_edges),
                "case {case}"
            );
            pruned_something += usize::from(by_edges.edge_count() < g.edge_count());
            pruned_something += usize::from(by_nodes.edge_count() < g.edge_count());
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
