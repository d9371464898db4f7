//! Per-node traffic demands and their aggregation along the routing forest.
//!
//! Each mesh node generates some number of packets per scheduling period that
//! must reach its gateway (the paper draws per-node demands uniformly from
//! `[1, 10]`, Section VI-A). Because routing follows a forest, the aggregated
//! demand on the edge owned by node `u` equals the sum of the demands
//! generated in the subtree rooted at `u` — exactly the quantity the
//! schedulers must satisfy with `demand(e)` slots.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::TopologyError;
use crate::node::NodeId;
use crate::routing::{Link, RoutingForest};

/// Configuration for randomly generated per-node demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DemandConfig {
    /// Minimum per-node demand (inclusive), in packets per period.
    pub min: u32,
    /// Maximum per-node demand (inclusive), in packets per period.
    pub max: u32,
}

impl DemandConfig {
    /// The paper's configuration: uniform in `[1, 10]`.
    pub const PAPER: DemandConfig = DemandConfig { min: 1, max: 10 };
}

/// Per-node generated traffic demands, in packets per scheduling period.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandVector {
    demands: Vec<u32>,
}

impl DemandVector {
    /// Wraps an explicit demand vector (`demands[i]` is the demand generated
    /// at node `i`).
    pub fn from_vec(demands: Vec<u32>) -> Self {
        Self { demands }
    }

    /// Generates random demands for `node_count` nodes using the supplied
    /// configuration and RNG. Gateways listed in `gateways` get demand 0
    /// (they sink traffic rather than generating upstream traffic).
    pub fn generate<R: Rng + ?Sized>(
        node_count: usize,
        config: DemandConfig,
        gateways: &[NodeId],
        rng: &mut R,
    ) -> Self {
        let mut demands: Vec<u32> = (0..node_count)
            .map(|_| rng.gen_range(config.min..=config.max))
            .collect();
        for g in gateways {
            if g.index() < node_count {
                demands[g.index()] = 0;
            }
        }
        Self { demands }
    }

    /// Demand generated at `node`.
    pub fn demand(&self, node: NodeId) -> u32 {
        self.demands[node.index()]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// Returns `true` if the vector covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Sum of all generated demands.
    pub fn total(&self) -> u64 {
        self.demands.iter().map(|&d| d as u64).sum()
    }

    /// Raw access to the demand values.
    pub fn as_slice(&self) -> &[u32] {
        &self.demands
    }
}

/// Aggregated demands on the tree edges of a routing forest.
///
/// `LinkDemands` is the actual scheduling input: every link `e` must be
/// allocated `demand(e)` slots by a feasible schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkDemands {
    /// `aggregated[v]` is the demand on the edge owned by node `v`
    /// (0 for gateways).
    aggregated: Vec<u64>,
    /// The scheduled links, sorted (both constructors ascend by owner):
    /// `demand_of_link` binary-searches it.
    links: Vec<Link>,
}

impl LinkDemands {
    /// Aggregates per-node demands along the routing forest: the demand on
    /// the edge owned by node `u` is the sum of generated demands over the
    /// subtree rooted at `u`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DemandLengthMismatch`] if the demand vector
    /// does not cover exactly the forest's nodes.
    pub fn aggregate(
        forest: &RoutingForest,
        demands: &DemandVector,
    ) -> Result<Self, TopologyError> {
        let n = forest.node_count();
        if demands.len() != n {
            return Err(TopologyError::DemandLengthMismatch {
                demands: demands.len(),
                nodes: n,
            });
        }
        // Propagate each node's generated demand up every edge on its route.
        let mut aggregated = vec![0u64; n];
        for v in (0..n as u32).map(NodeId::new) {
            let d = demands.demand(v) as u64;
            if d == 0 {
                continue;
            }
            let mut current = v;
            loop {
                aggregated[current.index()] += d;
                match forest.parent(current) {
                    Some(p) => current = p,
                    None => break,
                }
            }
        }
        // The accumulation above also adds to gateway entries; gateways own
        // no edge, so zero them out.
        for &g in forest.gateways() {
            aggregated[g.index()] = 0;
        }
        let links = forest.tree_edges().collect();
        Ok(Self { aggregated, links })
    }

    /// Builds link demands directly from an arbitrary link set with explicit
    /// per-link demands (the paper notes the protocols apply to arbitrary
    /// link sets, not only forests). Links must have distinct heads.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if two links share a head
    /// node (the node↔edge mapping requires unique owners).
    pub fn from_links(
        node_count: usize,
        link_demands: &[(Link, u64)],
    ) -> Result<Self, TopologyError> {
        let mut aggregated = vec![0u64; node_count];
        let mut links = Vec::with_capacity(link_demands.len());
        for &(link, demand) in link_demands {
            if link.head.index() >= node_count || link.tail.index() >= node_count {
                return Err(TopologyError::UnknownNode {
                    id: if link.head.index() >= node_count {
                        link.head
                    } else {
                        link.tail
                    },
                    node_count,
                });
            }
            if aggregated[link.head.index()] != 0 {
                return Err(TopologyError::InvalidParameter(format!(
                    "node {} owns more than one link",
                    link.head
                )));
            }
            if demand == 0 {
                continue;
            }
            aggregated[link.head.index()] = demand;
            links.push(link);
        }
        links.sort_unstable();
        Ok(Self { aggregated, links })
    }

    /// Aggregated demand on the edge owned by `node` (0 for gateways and for
    /// nodes that own no link).
    pub fn demand_of(&self, node: NodeId) -> u64 {
        self.aggregated[node.index()]
    }

    /// Aggregated demand on `link`, if `link` is one of the scheduled links.
    pub fn demand_of_link(&self, link: Link) -> Option<u64> {
        self.links
            .binary_search(&link)
            .ok()
            .map(|_| self.aggregated[link.head.index()])
    }

    /// The links to be scheduled, ordered by owner id.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.aggregated.len()
    }

    /// Total traffic demand `TD`: the sum of aggregated demands over all
    /// links. This is the quantity appearing in the complexity bound of
    /// Theorem 5 and the length of the *serialized* (linear) schedule that
    /// Figures 6 and 7 normalize against. Saturates at `u64::MAX`.
    pub fn total_demand(&self) -> u64 {
        self.links.iter().fold(0u64, |sum, l| {
            sum.saturating_add(self.aggregated[l.head.index()])
        })
    }

    /// Links with non-zero demand, paired with their demand.
    pub fn demanded_links(&self) -> impl Iterator<Item = (Link, u64)> + '_ {
        self.links
            .iter()
            .map(move |&l| (l, self.aggregated[l.head.index()]))
            .filter(|&(_, d)| d > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::GridDeployment;
    use crate::graph::UnitDiskGraphBuilder;
    use crate::units::Meters;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn line_forest(n: usize) -> RoutingForest {
        let mut g = crate::graph::Graph::new(n, crate::graph::GraphKind::Undirected);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i as u32), NodeId::new(i as u32 + 1))
                .unwrap();
        }
        RoutingForest::shortest_path(&g, &[NodeId::new(0)], 0).unwrap()
    }

    #[test]
    fn demand_config_paper_bounds() {
        assert_eq!(DemandConfig::PAPER.min, 1);
        assert_eq!(DemandConfig::PAPER.max, 10);
    }

    #[test]
    fn generated_demands_respect_bounds_and_zero_gateways() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let d = DemandVector::generate(64, DemandConfig::PAPER, &[NodeId::new(0)], &mut rng);
        assert_eq!(d.len(), 64);
        assert_eq!(d.demand(NodeId::new(0)), 0);
        for v in (1..64).map(NodeId::new) {
            assert!((1..=10).contains(&d.demand(v)));
        }
        assert!(d.total() >= 63 && d.total() <= 630);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = DemandVector::generate(
            32,
            DemandConfig::PAPER,
            &[],
            &mut ChaCha8Rng::seed_from_u64(5),
        );
        let b = DemandVector::generate(
            32,
            DemandConfig::PAPER,
            &[],
            &mut ChaCha8Rng::seed_from_u64(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn line_aggregation_accumulates_subtree_demands() {
        // Line 0 - 1 - 2 - 3 rooted at 0 with unit demands: the edge owned by
        // node 1 carries the demand of nodes 1, 2 and 3.
        let forest = line_forest(4);
        let demands = DemandVector::from_vec(vec![0, 1, 1, 1]);
        let link_demands = LinkDemands::aggregate(&forest, &demands).unwrap();
        assert_eq!(link_demands.demand_of(NodeId::new(1)), 3);
        assert_eq!(link_demands.demand_of(NodeId::new(2)), 2);
        assert_eq!(link_demands.demand_of(NodeId::new(3)), 1);
        assert_eq!(link_demands.demand_of(NodeId::new(0)), 0);
        assert_eq!(link_demands.total_demand(), 6);
    }

    #[test]
    fn aggregation_conserves_flow_at_every_node() {
        // At every non-gateway node: outgoing demand = generated + sum of
        // children's outgoing demands.
        let d = GridDeployment::new(6, 6, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&g, &gws, 7).unwrap();
        let demands = DemandVector::generate(
            36,
            DemandConfig::PAPER,
            &gws,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let agg = LinkDemands::aggregate(&forest, &demands).unwrap();
        for v in (0..36).map(NodeId::new) {
            if forest.is_gateway(v) {
                continue;
            }
            let children_sum: u64 = forest.children(v).iter().map(|&c| agg.demand_of(c)).sum();
            assert_eq!(
                agg.demand_of(v),
                demands.demand(v) as u64 + children_sum,
                "flow conservation violated at {v}"
            );
        }
    }

    #[test]
    fn gateway_inflow_equals_total_generated_demand() {
        let d = GridDeployment::new(8, 8, 100.0).build();
        let g = UnitDiskGraphBuilder::new(Meters::new(100.0)).build(&d);
        let gws = d.corner_nodes();
        let forest = RoutingForest::shortest_path(&g, &gws, 3).unwrap();
        let demands = DemandVector::generate(
            64,
            DemandConfig::PAPER,
            &gws,
            &mut ChaCha8Rng::seed_from_u64(2),
        );
        let agg = LinkDemands::aggregate(&forest, &demands).unwrap();
        // Sum of demands on edges whose tail is a gateway equals the total
        // generated demand.
        let inflow: u64 = agg
            .demanded_links()
            .filter(|(l, _)| gws.contains(&l.tail))
            .map(|(_, d)| d)
            .sum();
        assert_eq!(inflow, demands.total());
    }

    #[test]
    fn aggregate_rejects_length_mismatch() {
        let forest = line_forest(4);
        let demands = DemandVector::from_vec(vec![1, 2]);
        assert!(matches!(
            LinkDemands::aggregate(&forest, &demands),
            Err(TopologyError::DemandLengthMismatch { .. })
        ));
    }

    #[test]
    fn from_links_builds_arbitrary_link_sets() {
        let l1 = Link::new(NodeId::new(1), NodeId::new(0));
        let l2 = Link::new(NodeId::new(2), NodeId::new(3));
        let ld = LinkDemands::from_links(4, &[(l1, 5), (l2, 2)]).unwrap();
        assert_eq!(ld.demand_of_link(l1), Some(5));
        assert_eq!(ld.demand_of_link(l2), Some(2));
        assert_eq!(
            ld.demand_of_link(Link::new(NodeId::new(3), NodeId::new(0))),
            None
        );
        assert_eq!(ld.total_demand(), 7);
        assert_eq!(ld.links().len(), 2);
    }

    #[test]
    fn total_demand_saturates_at_u64_max() {
        let l1 = Link::new(NodeId::new(1), NodeId::new(0));
        let l2 = Link::new(NodeId::new(2), NodeId::new(3));
        let ld = LinkDemands::from_links(4, &[(l1, u64::MAX), (l2, 1)]).unwrap();
        assert_eq!(ld.total_demand(), u64::MAX);
    }

    #[test]
    fn from_links_rejects_duplicate_heads_and_unknown_nodes() {
        let l1 = Link::new(NodeId::new(1), NodeId::new(0));
        let l2 = Link::new(NodeId::new(1), NodeId::new(2));
        assert!(matches!(
            LinkDemands::from_links(3, &[(l1, 5), (l2, 2)]),
            Err(TopologyError::InvalidParameter(_))
        ));
        let bad = Link::new(NodeId::new(9), NodeId::new(0));
        assert!(matches!(
            LinkDemands::from_links(3, &[(bad, 1)]),
            Err(TopologyError::UnknownNode { .. })
        ));
    }

    #[test]
    fn zero_demand_links_are_dropped() {
        let l1 = Link::new(NodeId::new(1), NodeId::new(0));
        let l2 = Link::new(NodeId::new(2), NodeId::new(0));
        let ld = LinkDemands::from_links(3, &[(l1, 0), (l2, 3)]).unwrap();
        assert_eq!(ld.links().len(), 1);
        assert_eq!(ld.demanded_links().count(), 1);
    }

    #[test]
    fn demand_of_link_agrees_with_a_linear_scan() {
        // `demand_of_link` binary-searches `links`; both constructors must
        // leave it sorted for that to equal the plain membership test.
        fn check(ld: &LinkDemands) {
            assert!(ld.links().windows(2).all(|w| w[0] <= w[1]), "sorted");
            let n = ld.node_count() as u32;
            for (h, t) in (0..n).flat_map(|h| (0..n).map(move |t| (h, t))) {
                let link = Link::new(NodeId::new(h), NodeId::new(t));
                let linear = ld.links().contains(&link).then(|| ld.demand_of(link.head));
                assert_eq!(ld.demand_of_link(link), linear, "{link}");
            }
        }

        // A forest whose two deepest nodes demand nothing: their tree edges
        // stay scheduled links with demand 0.
        let demands = DemandVector::from_vec(vec![0, 2, 1, 0, 0]);
        let agg = LinkDemands::aggregate(&line_forest(5), &demands).unwrap();
        let leaf_edge = Link::new(NodeId::new(4), NodeId::new(3));
        assert_eq!(agg.demand_of_link(leaf_edge), Some(0));
        // Same head as the tree edge 2 -> 1, different tail: not a link.
        assert_eq!(
            agg.demand_of_link(Link::new(NodeId::new(2), NodeId::new(0))),
            None
        );
        check(&agg);

        // Unsorted input; 1 -> 0 is no link although node 1 owns 1 -> 2.
        let l = |h, t| Link::new(NodeId::new(h), NodeId::new(t));
        let raw = [(l(5, 4), 1), (l(1, 2), 3), (l(3, 0), 4), (l(2, 0), 2)];
        let listed = LinkDemands::from_links(6, &raw).unwrap();
        assert_eq!(listed.demand_of_link(l(1, 0)), None);
        check(&listed);
    }
}
