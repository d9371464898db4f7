//! Routing forests towards the gateways and the node↔edge association used
//! by the distributed schedulers.
//!
//! Traffic in the mesh is routed along reverse trees rooted at the gateways
//! (Section II): each non-gateway node joins the tree of the gateway at
//! minimum hop distance, breaking ties randomly. The edge connecting a node
//! to its parent is "owned" by the deeper node (the child), which is the node
//! in charge of allocating slots for it; this gives the one-to-one mapping
//! between non-root nodes and edges that the PDD/FDD protocols rely on.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::TopologyError;
use crate::graph::Graph;
use crate::node::NodeId;

/// A directed link `head -> tail` along which data packets flow (the ACK
/// flows `tail -> head` in the second sub-slot).
///
/// In a routing forest the head is the child (deeper) node and the tail is
/// its parent; the head owns the link for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting endpoint (the child in the routing tree).
    pub head: NodeId,
    /// Receiving endpoint (the parent in the routing tree).
    pub tail: NodeId,
}

impl Link {
    /// Creates a link from head (transmitter) to tail (receiver).
    pub const fn new(head: NodeId, tail: NodeId) -> Self {
        Self { head, tail }
    }

    /// Returns `true` if `node` is one of the two endpoints.
    pub(crate) fn touches(&self, node: NodeId) -> bool {
        self.head == node || self.tail == node
    }

    /// Returns `true` if the two links share an endpoint. Links sharing an
    /// endpoint can never be scheduled in the same slot (a half-duplex radio
    /// cannot transmit and receive simultaneously).
    pub fn shares_endpoint(&self, other: &Link) -> bool {
        self.touches(other.head) || self.touches(other.tail)
    }

    /// The reverse link (ACK direction).
    pub fn reversed(&self) -> Link {
        Link::new(self.tail, self.head)
    }
}

impl std::fmt::Display for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{}", self.head, self.tail)
    }
}

/// A forest of reverse trees rooted at the gateway nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingForest {
    /// `parent[v]` is the parent of `v` on its route to a gateway, or `None`
    /// for gateways themselves.
    parent: Vec<Option<NodeId>>,
    /// `depth[v]` is the hop distance from `v` to its gateway (0 for
    /// gateways).
    depth: Vec<usize>,
    gateways: Vec<NodeId>,
}

impl RoutingForest {
    /// Builds a shortest-path routing forest over `graph` rooted at
    /// `gateways`, breaking ties with a deterministic RNG seeded by `seed`
    /// (the paper breaks ties randomly).
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NoGateways`] if `gateways` is empty;
    /// * [`TopologyError::DuplicateGateway`] for repeated gateway ids;
    /// * [`TopologyError::UnknownNode`] for out-of-range gateway ids;
    /// * [`TopologyError::Disconnected`] if some node cannot reach any
    ///   gateway.
    pub fn shortest_path(
        graph: &Graph,
        gateways: &[NodeId],
        seed: u64,
    ) -> Result<Self, TopologyError> {
        let (forest, unreachable) = Self::shortest_path_partial(graph, gateways, seed)?;
        if !unreachable.is_empty() {
            return Err(TopologyError::Disconnected {
                unreachable: unreachable.len(),
            });
        }
        Ok(forest)
    }

    /// Like [`shortest_path`](Self::shortest_path), but tolerates nodes that
    /// cannot reach any gateway (a faulted topology): the forest covers the
    /// reachable component and the cut-off nodes are returned alongside it,
    /// sorted by id. Cut-off nodes own no tree edge, appear in no
    /// [`flow_routes`](Self::flow_routes), and report `false` from
    /// [`is_reachable`](Self::is_reachable).
    ///
    /// # Errors
    ///
    /// The gateway-set errors of [`shortest_path`](Self::shortest_path)
    /// (`NoGateways`, `DuplicateGateway`, `UnknownNode`); disconnection is
    /// not an error here.
    pub fn shortest_path_partial(
        graph: &Graph,
        gateways: &[NodeId],
        seed: u64,
    ) -> Result<(Self, Vec<NodeId>), TopologyError> {
        Self::shortest_path_masked(graph, gateways, seed, |_, _| true)
    }

    /// Like [`shortest_path_partial`](Self::shortest_path_partial), over
    /// only the edges `alive(u, v)` admits (a faulted topology, without a
    /// pruned copy of the graph). The mask is asked about each adjacency
    /// entry `u → v` the search reaches, `u` on the frontier.
    ///
    /// Where every adjacency list of `graph` is ascending — as every
    /// communication graph's is — this returns exactly what
    /// `shortest_path_partial` returns over a copy of `graph` holding only
    /// the admitted edges, re-inserted in [`Graph::edges`] order: the
    /// candidate order, and so the seeded draws, are the same.
    ///
    /// # Errors
    ///
    /// Those of [`shortest_path_partial`](Self::shortest_path_partial).
    pub fn shortest_path_masked(
        graph: &Graph,
        gateways: &[NodeId],
        seed: u64,
        alive: impl Fn(NodeId, NodeId) -> bool,
    ) -> Result<(Self, Vec<NodeId>), TopologyError> {
        let n = graph.node_count();
        if gateways.is_empty() {
            return Err(TopologyError::NoGateways);
        }
        let mut is_gateway = vec![false; n];
        for &g in gateways {
            if g.index() >= n {
                return Err(TopologyError::UnknownNode {
                    id: g,
                    node_count: n,
                });
            }
            if is_gateway[g.index()] {
                return Err(TopologyError::DuplicateGateway(g));
            }
            is_gateway[g.index()] = true;
        }

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![usize::MAX; n];

        // Multi-source BFS from all gateways over the admitted edges. To
        // honor the random tie-breaking rule, candidate parents at equal
        // depth are collected per node and one is chosen uniformly at random.
        let mut frontier: Vec<NodeId> = Vec::new();
        for &g in gateways {
            depth[g.index()] = 0;
            frontier.push(g);
        }
        // One level's `(child, parent)` pairs in frontier-then-adjacency
        // order. The stable sort by child keeps that order inside each
        // child's group and visits the children in id order, which fixes
        // the rng consumption order.
        let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
        let mut level = 0usize;
        while !frontier.is_empty() {
            level += 1;
            candidates.clear();
            for &u in &frontier {
                for &v in graph.neighbors(u) {
                    if depth[v.index()] == usize::MAX && alive(u, v) {
                        candidates.push((v, u));
                    }
                }
            }
            candidates.sort_by_key(|&(child, _)| child);
            frontier.clear();
            for group in candidates.chunk_by(|a, b| a.0 == b.0) {
                // `chunk_by` yields no empty group.
                let Some(&(child, chosen)) = group.choose(&mut rng) else {
                    continue;
                };
                parent[child.index()] = Some(chosen);
                depth[child.index()] = level;
                frontier.push(child);
            }
        }

        let unreachable: Vec<NodeId> = (0..n as u32)
            .map(NodeId::new)
            .filter(|v| depth[v.index()] == usize::MAX)
            .collect();

        Ok((
            Self {
                parent,
                depth,
                gateways: gateways.to_vec(),
            },
            unreachable,
        ))
    }

    /// Number of nodes covered by the forest.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The gateway nodes (tree roots).
    pub fn gateways(&self) -> &[NodeId] {
        &self.gateways
    }

    /// Returns `true` if `node` is a gateway.
    pub fn is_gateway(&self, node: NodeId) -> bool {
        self.depth[node.index()] == 0
    }

    /// Returns `true` if `node` reaches a gateway through this forest.
    /// Always `true` for forests built by
    /// [`shortest_path`](Self::shortest_path); partial forests
    /// ([`shortest_path_partial`](Self::shortest_path_partial)) report
    /// `false` for the cut-off nodes.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.depth[node.index()] != usize::MAX
    }

    /// Parent of `node` in its routing tree, or `None` for gateways.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Hop distance from `node` to its gateway.
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()]
    }

    /// The tree edge owned by `node` (the link from `node` to its parent),
    /// or `None` for gateways.
    pub fn link_of(&self, node: NodeId) -> Option<Link> {
        self.parent(node).map(|p| Link::new(node, p))
    }

    /// Iterator over all tree edges (one per non-gateway node), ordered by
    /// owner id.
    pub fn tree_edges(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.node_count() as u32)
            .map(NodeId::new)
            .filter_map(move |v| self.link_of(v))
    }

    /// The route from `node` to its gateway, starting with `node`'s own link.
    pub(crate) fn route_to_gateway(&self, node: NodeId) -> Vec<Link> {
        let mut route = Vec::new();
        let mut current = node;
        while let Some(p) = self.parent(current) {
            route.push(Link::new(current, p));
            current = p;
        }
        route
    }

    /// One traffic flow source per non-gateway node: the node paired with
    /// its full route to the gateway (starting with the node's own link), in
    /// node-id order. This is the packet-level reading of the forest — every
    /// mesh node is a flow source whose packets traverse exactly these links
    /// — and the input the `scream-traffic` engine builds its flow sets
    /// from.
    pub fn flow_routes(&self) -> impl Iterator<Item = (NodeId, Vec<Link>)> + '_ {
        (0..self.node_count() as u32)
            .map(NodeId::new)
            .filter(|&v| self.is_reachable(v) && !self.is_gateway(v))
            .map(|v| (v, self.route_to_gateway(v)))
    }

    /// Children of `node` in its routing tree.
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId::new)
            .filter(|&v| self.parent(v) == Some(node))
            .collect()
    }

    /// All nodes in the subtree rooted at `node` (including `node` itself).
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut result = vec![node];
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            for c in self.children(u) {
                result.push(c);
                stack.push(c);
            }
        }
        result
    }

    /// Maximum depth over all nodes (the height of the tallest tree).
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::GridDeployment;
    use crate::graph::{GraphKind, UnitDiskGraphBuilder};
    use crate::units::Meters;

    fn grid_forest(side: usize) -> (Graph, RoutingForest) {
        let d = GridDeployment::new(side, side, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        let gateways = vec![NodeId::new(0)];
        let f = RoutingForest::shortest_path(&g, &gateways, 1).unwrap();
        (g, f)
    }

    #[test]
    fn partial_forest_reports_cut_off_nodes_and_routes_the_rest() {
        // Path 0-1-2-3 with gateway 0; removing edge (1,2) strands {2, 3}.
        let mut g = Graph::new(4, GraphKind::Undirected);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let pruned = g.without_edges([(NodeId::new(1), NodeId::new(2))]);
        let gateways = vec![NodeId::new(0)];
        assert!(matches!(
            RoutingForest::shortest_path(&pruned, &gateways, 1),
            Err(TopologyError::Disconnected { unreachable: 2 })
        ));
        let (forest, cut_off) =
            RoutingForest::shortest_path_partial(&pruned, &gateways, 1).unwrap();
        assert_eq!(cut_off, vec![NodeId::new(2), NodeId::new(3)]);
        assert!(forest.is_reachable(NodeId::new(1)));
        assert!(!forest.is_reachable(NodeId::new(3)));
        assert!(forest.is_gateway(NodeId::new(0)));
        assert!(!forest.is_gateway(NodeId::new(2)), "cut off, not a root");
        let routes: Vec<_> = forest.flow_routes().collect();
        assert_eq!(routes.len(), 1, "only node 1 still has a route");
        assert_eq!(routes[0].0, NodeId::new(1));
        assert_eq!(forest.tree_edges().count(), 1);
    }

    #[test]
    fn link_endpoint_relations() {
        let a = Link::new(NodeId::new(1), NodeId::new(2));
        let b = Link::new(NodeId::new(2), NodeId::new(3));
        let c = Link::new(NodeId::new(4), NodeId::new(5));
        assert!(a.touches(NodeId::new(1)));
        assert!(!a.touches(NodeId::new(3)));
        assert!(a.shares_endpoint(&b));
        assert!(!a.shares_endpoint(&c));
        assert_eq!(a.reversed(), Link::new(NodeId::new(2), NodeId::new(1)));
    }

    #[test]
    fn forest_depth_matches_bfs_distance_to_nearest_gateway() {
        let (g, f) = grid_forest(4);
        let dist = g.bfs_distances(NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(f.depth(v), dist[v.index()]);
        }
    }

    #[test]
    fn forest_has_one_edge_per_non_gateway_node() {
        let (_, f) = grid_forest(4);
        assert_eq!(f.tree_edges().count(), 15);
        assert!(f.is_gateway(NodeId::new(0)));
        assert_eq!(f.parent(NodeId::new(0)), None);
        assert_eq!(f.link_of(NodeId::new(0)), None);
    }

    #[test]
    fn parent_is_always_one_hop_closer_to_gateway() {
        let (_, f) = grid_forest(5);
        for v in (0..25).map(NodeId::new) {
            if let Some(p) = f.parent(v) {
                assert_eq!(f.depth(p) + 1, f.depth(v));
            }
        }
    }

    #[test]
    fn routes_terminate_at_the_assigned_gateway() {
        let (_, f) = grid_forest(5);
        for v in (0..25).map(NodeId::new) {
            let route = f.route_to_gateway(v);
            assert_eq!(route.len(), f.depth(v));
            if let Some(last) = route.last() {
                assert!(f.is_gateway(last.tail));
            }
        }
    }

    #[test]
    fn multi_gateway_forest_assigns_nearest_gateway() {
        let d = GridDeployment::new(8, 8, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        let gateways = d.corner_nodes();
        let f = RoutingForest::shortest_path(&g, &gateways, 3).unwrap();
        assert_eq!(f.gateways(), &gateways[..]);
        // Node 9 (row 1, col 1) is closest to gateway 0.
        let gateway_of = |v: u32| f.route_to_gateway(NodeId::new(v)).last().unwrap().tail;
        assert_eq!(gateway_of(9), NodeId::new(0));
        // Node 54 (row 6, col 6) is closest to gateway 63.
        assert_eq!(gateway_of(54), NodeId::new(63));
        // Depth of any node equals min distance over gateways.
        for v in g.nodes() {
            let min_d = gateways
                .iter()
                .map(|&gw| g.hop_distance(gw, v).unwrap())
                .min()
                .unwrap();
            assert_eq!(f.depth(v), min_d);
        }
    }

    #[test]
    fn tie_breaking_is_deterministic_per_seed() {
        let d = GridDeployment::new(6, 6, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        let gws = d.corner_nodes();
        let f1 = RoutingForest::shortest_path(&g, &gws, 42).unwrap();
        let f2 = RoutingForest::shortest_path(&g, &gws, 42).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn subtree_contains_all_descendants() {
        let (_, f) = grid_forest(3);
        let all = f.subtree(NodeId::new(0));
        assert_eq!(all.len(), 9, "gateway subtree covers the whole tree");
        for v in (1..9).map(NodeId::new) {
            let sub = f.subtree(v);
            assert!(sub.contains(&v));
            // Every member of the subtree routes through v.
            for &m in &sub {
                assert!(
                    f.route_to_gateway(m).iter().any(|l| l.head == v) || m == v,
                    "node {m} in subtree of {v} should route through it"
                );
            }
        }
    }

    #[test]
    fn flow_routes_cover_every_non_gateway_node() {
        let (_, f) = grid_forest(4);
        let routes: Vec<(NodeId, Vec<Link>)> = f.flow_routes().collect();
        assert_eq!(routes.len(), 15, "one flow per non-gateway node");
        for (node, route) in &routes {
            assert!(!f.is_gateway(*node));
            assert_eq!(route, &f.route_to_gateway(*node));
            assert_eq!(route[0].head, *node, "routes start at the source");
            assert!(
                f.is_gateway(route.last().unwrap().tail),
                "routes end at a gateway"
            );
            // Contiguity: each hop hands over to the next.
            for pair in route.windows(2) {
                assert_eq!(pair[0].tail, pair[1].head);
            }
        }
        // Node-id order.
        let ids: Vec<u32> = routes.iter().map(|(n, _)| n.index() as u32).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn children_and_subtree_are_consistent() {
        let (_, f) = grid_forest(4);
        let total_children: usize = (0..16).map(|i| f.children(NodeId::new(i)).len()).sum();
        assert_eq!(
            total_children, 15,
            "every non-gateway node is someone's child"
        );
    }

    #[test]
    fn errors_on_no_or_bad_gateways() {
        let (g, _) = grid_forest(3);
        assert!(matches!(
            RoutingForest::shortest_path(&g, &[], 0),
            Err(TopologyError::NoGateways)
        ));
        assert!(matches!(
            RoutingForest::shortest_path(&g, &[NodeId::new(0), NodeId::new(0)], 0),
            Err(TopologyError::DuplicateGateway(_))
        ));
        assert!(matches!(
            RoutingForest::shortest_path(&g, &[NodeId::new(100)], 0),
            Err(TopologyError::UnknownNode { .. })
        ));
    }

    #[test]
    fn errors_on_disconnected_graph() {
        let g = Graph::new(3, GraphKind::Undirected);
        let err = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 0).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::Disconnected { unreachable: 2 }
        ));
    }

    #[test]
    fn max_depth_of_line_topology() {
        let mut g = Graph::new(5, GraphKind::Undirected);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        let f = RoutingForest::shortest_path(&g, &[NodeId::new(0)], 0).unwrap();
        assert_eq!(f.max_depth(), 4);
    }
}
