//! Node deployments: planned grids, unplanned uniform-random placements, and
//! the infinite-density abstraction of Section IV-B3.
//!
//! The paper's simulation study (Section VI-A) uses two topologies:
//!
//! * **planned** — a grid layout with homogeneous transmission power;
//! * **unplanned** — uniform random node placement with heterogeneous
//!   transmission power.
//!
//! In both cases 64 nodes are deployed and node density is varied by changing
//! the deployment area. [`density_to_area_m2`] performs that conversion.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::TopologyError;
use crate::geometry::{Point2, Rect};
use crate::node::{NodeId, NodeInfo};
use crate::units::{Dbm, Meters};

/// A concrete set of mesh nodes with positions and transmit powers.
///
/// A deployment is the physical-layer input shared by every other crate in
/// the workspace: the radio environment is derived from it, graphs are built
/// over its nodes, and schedules allocate slots to links between its nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    nodes: Vec<NodeInfo>,
    region: Rect,
}

impl Deployment {
    /// Creates a deployment from explicit node descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyDeployment`] if `nodes` is empty, or
    /// [`TopologyError::InvalidParameter`] if node ids are not the contiguous
    /// range `0..n`.
    pub fn from_nodes(nodes: Vec<NodeInfo>, region: Rect) -> Result<Self, TopologyError> {
        if nodes.is_empty() {
            return Err(TopologyError::EmptyDeployment);
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.id.index() != i {
                return Err(TopologyError::InvalidParameter(format!(
                    "node at position {i} has id {}, expected contiguous ids 0..{}",
                    node.id,
                    nodes.len()
                )));
            }
        }
        Ok(Self { nodes, region })
    }

    /// Constructor for the workspace builders ([`GridDeployment`],
    /// [`UniformDeployment`]) that assign ids `0..n` themselves: the
    /// contiguity [`Self::from_nodes`] re-validates holds by construction, so
    /// the fallible path would only add an `expect` on an impossible error
    /// (P1). The invariants are checked in debug builds instead.
    fn from_contiguous_nodes(nodes: Vec<NodeInfo>, region: Rect) -> Self {
        debug_assert!(!nodes.is_empty(), "builders emit at least one node");
        debug_assert!(
            nodes.iter().enumerate().all(|(i, n)| n.id.index() == i),
            "builders assign contiguous ids 0..n"
        );
        Self { nodes, region }
    }

    /// Builds a custom deployment from bare positions, all with the same
    /// transmit power. Useful for tests and hand-crafted counterexamples.
    pub fn from_positions(
        positions: &[Point2],
        tx_power_dbm: f64,
        region: Rect,
    ) -> Result<Self, TopologyError> {
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| NodeInfo::new(NodeId::new(i as u32), p, Dbm::new(tx_power_dbm)))
            .collect();
        Self::from_nodes(nodes, region)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the deployment has no nodes (never true for a value
    /// constructed through the public API).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The deployment region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Node description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// Position of node `id` in meters.
    pub fn position(&self, id: NodeId) -> Point2 {
        self.node(id).position
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId::new)
    }

    /// Node positions as struct-of-arrays flat buffers `(xs, ys)`, indexed
    /// by node id. Large-scale consumers (the radio environment, spatial
    /// grids) work on contiguous coordinate buffers rather than walking
    /// `NodeInfo` records.
    pub fn position_buffers(&self) -> (Vec<f64>, Vec<f64>) {
        let xs = self.nodes.iter().map(|n| n.position.x).collect();
        let ys = self.nodes.iter().map(|n| n.position.y).collect();
        (xs, ys)
    }

    /// The node closest to each corner of the deployment region, deduplicated
    /// and sorted. The paper places 4 gateways in its 64-node scenarios; the
    /// corner nodes are the natural planned choice.
    pub fn corner_nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .region
            .corners()
            .iter()
            .map(|&corner| self.nearest_node(corner))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The node closest to the given point.
    #[expect(
        clippy::expect_used,
        reason = "Deployment constructors reject empty node sets"
    )]
    pub(crate) fn nearest_node(&self, p: Point2) -> NodeId {
        self.nodes
            .iter()
            .min_by(|a, b| {
                // total_cmp: NaN-safe, so a degenerate deployment can never
                // panic a sweep mid-run (F1.cmp).
                a.position
                    .distance_squared(p)
                    .total_cmp(&b.position.distance_squared(p))
            })
            .expect("deployment is never empty")
            .id
    }
}

/// Converts a target density (nodes per square kilometer) and node count into
/// the area in square meters of the square deployment region that realizes it.
///
/// ```
/// use scream_topology::density_to_area_m2;
/// // 64 nodes at 1000 nodes/km^2 need 0.064 km^2 = 64_000 m^2.
/// assert!((density_to_area_m2(64, 1000.0) - 64_000.0).abs() < 1e-6);
/// ```
pub fn density_to_area_m2(node_count: usize, density_per_km2: f64) -> f64 {
    assert!(
        density_per_km2 > 0.0,
        "density must be positive, got {density_per_km2}"
    );
    node_count as f64 / density_per_km2 * 1.0e6
}

/// Builder for planned square-grid deployments with homogeneous power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridDeployment {
    columns: usize,
    rows: usize,
    step_m: f64,
    tx_power_dbm: f64,
}

impl GridDeployment {
    /// A `columns x rows` grid with the given lattice step in meters and a
    /// default transmit power of 20 dBm (100 mW, a typical mesh router).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the step is not positive.
    pub fn new(columns: usize, rows: usize, step_m: f64) -> Self {
        assert!(columns > 0 && rows > 0, "grid dimensions must be positive");
        assert!(
            step_m.is_finite() && step_m > 0.0,
            "grid step must be positive, got {step_m}"
        );
        Self {
            columns,
            rows,
            step_m,
            tx_power_dbm: 20.0,
        }
    }

    /// Sets the homogeneous transmit power in dBm.
    pub fn tx_power_dbm(mut self, dbm: f64) -> Self {
        self.tx_power_dbm = dbm;
        self
    }

    /// Builds the deployment. Node ids are assigned in row-major order.
    pub fn build(&self) -> Deployment {
        let mut nodes = Vec::with_capacity(self.columns * self.rows);
        for row in 0..self.rows {
            for col in 0..self.columns {
                let id = NodeId::new((row * self.columns + col) as u32);
                let pos = Point2::new(col as f64 * self.step_m, row as f64 * self.step_m);
                nodes.push(NodeInfo::new(id, pos, Dbm::new(self.tx_power_dbm)));
            }
        }
        let region = Rect::new(
            Point2::ORIGIN,
            Point2::new(
                (self.columns - 1) as f64 * self.step_m,
                (self.rows - 1) as f64 * self.step_m,
            ),
        );
        Deployment::from_contiguous_nodes(nodes, region)
    }
}

/// Builder for unplanned deployments: nodes placed uniformly at random in a
/// square region, optionally with heterogeneous transmit powers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformDeployment {
    node_count: usize,
    region_side_m: f64,
    tx_power_dbm: f64,
    power_spread_db: f64,
}

impl UniformDeployment {
    /// `node_count` nodes uniform in a `region_side_m x region_side_m` square,
    /// homogeneous 20 dBm transmit power.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or the side length is not positive.
    pub fn new(node_count: usize, region_side_m: f64) -> Self {
        assert!(node_count > 0, "node count must be positive");
        assert!(
            region_side_m.is_finite() && region_side_m > 0.0,
            "region side must be positive, got {region_side_m}"
        );
        Self {
            node_count,
            region_side_m,
            tx_power_dbm: 20.0,
            power_spread_db: 0.0,
        }
    }

    /// Sets the mean transmit power in dBm.
    pub fn tx_power_dbm(mut self, dbm: f64) -> Self {
        self.tx_power_dbm = dbm;
        self
    }

    /// Makes transmit powers heterogeneous: each node's power is drawn
    /// uniformly from `mean ± spread/2` dB (the paper's unplanned scenario
    /// uses heterogeneous powers).
    pub fn heterogeneous_power(mut self, spread_db: f64) -> Self {
        assert!(spread_db >= 0.0, "power spread must be non-negative");
        self.power_spread_db = spread_db;
        self
    }

    /// Builds the deployment using the supplied random number generator.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Deployment {
        let side = self.region_side_m;
        let nodes = (0..self.node_count)
            .map(|i| {
                let pos = Point2::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side));
                let power = if self.power_spread_db > 0.0 {
                    rng.gen_range(
                        self.tx_power_dbm - self.power_spread_db / 2.0
                            ..=self.tx_power_dbm + self.power_spread_db / 2.0,
                    )
                } else {
                    self.tx_power_dbm
                };
                NodeInfo::new(NodeId::new(i as u32), pos, Dbm::new(power))
            })
            .collect();
        Deployment::from_contiguous_nodes(nodes, Rect::square(side))
    }

    /// Builds deployments until one whose unit-disk graph at `range` is
    /// connected is found, trying at most `max_attempts` times.
    ///
    /// The paper's analysis assumes a (strongly) connected communication
    /// graph; at realistic densities disconnected draws are rare but possible.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if no connected draw was found.
    pub fn build_connected<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        range: Meters,
        max_attempts: usize,
    ) -> Result<Deployment, TopologyError> {
        let builder = crate::graph::UnitDiskGraphBuilder::new(range);
        let mut last_unreachable = self.node_count;
        for _ in 0..max_attempts.max(1) {
            let d = self.build(rng);
            let g = builder.build(&d);
            if g.is_connected() {
                return Ok(d);
            }
            last_unreachable = g.unreachable_from(NodeId::new(0));
        }
        Err(TopologyError::Disconnected {
            unreachable: last_unreachable,
        })
    }
}

/// Builder approximating the *infinite density* model of Section IV-B3 with a
/// very fine lattice: for every node, every distance within communication
/// range and every direction, some node exists nearby. Every node transmits
/// at [`GridDeployment`]'s default 20 dBm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InfiniteDensityDeployment {
    region_side_m: f64,
    lattice_step_m: f64,
}

impl InfiniteDensityDeployment {
    /// Fills a square region of the given side with a lattice of the given
    /// (small) step.
    ///
    /// # Panics
    ///
    /// Panics if parameters are not positive or the implied node count
    /// exceeds one million (guarding against accidental memory blow-up).
    pub fn new(region_side: Meters, lattice_step: Meters) -> Self {
        let (region_side_m, lattice_step_m) = (region_side.get(), lattice_step.get());
        assert!(region_side_m > 0.0 && lattice_step_m > 0.0);
        let per_side = (region_side_m / lattice_step_m).floor() as usize + 1;
        assert!(
            per_side * per_side <= 1_000_000,
            "infinite-density lattice would have {} nodes; use a coarser step",
            per_side * per_side
        );
        Self {
            region_side_m,
            lattice_step_m,
        }
    }

    /// Builds the dense lattice deployment.
    pub fn build(&self) -> Deployment {
        let per_side = (self.region_side_m / self.lattice_step_m).floor() as usize + 1;
        GridDeployment::new(per_side, per_side, self.lattice_step_m).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `p` lies in `region`, boundary included.
    fn inside(region: Rect, p: Point2) -> bool {
        (region.min.x..=region.max.x).contains(&p.x) && (region.min.y..=region.max.y).contains(&p.y)
    }
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn grid_has_row_major_positions() {
        let d = GridDeployment::new(3, 2, 10.0).build();
        assert_eq!(d.len(), 6);
        assert_eq!(d.position(NodeId::new(0)), Point2::new(0.0, 0.0));
        assert_eq!(d.position(NodeId::new(2)), Point2::new(20.0, 0.0));
        assert_eq!(d.position(NodeId::new(3)), Point2::new(0.0, 10.0));
        assert_eq!(d.position(NodeId::new(5)), Point2::new(20.0, 10.0));
    }

    #[test]
    fn grid_region_spans_the_lattice() {
        let d = GridDeployment::new(8, 8, 250.0).build();
        assert_eq!(d.region().width(), 7.0 * 250.0);
        assert!(d.node_ids().all(|id| inside(d.region(), d.position(id))));
    }

    #[test]
    fn corner_nodes_of_grid_are_the_four_corners() {
        let d = GridDeployment::new(8, 8, 100.0).build();
        let corners = d.corner_nodes();
        assert_eq!(
            corners,
            vec![
                NodeId::new(0),
                NodeId::new(7),
                NodeId::new(56),
                NodeId::new(63)
            ]
        );
    }

    #[test]
    fn uniform_deployment_is_reproducible_from_seed() {
        let builder = UniformDeployment::new(50, 1000.0);
        let a = builder.build(&mut ChaCha8Rng::seed_from_u64(7));
        let b = builder.build(&mut ChaCha8Rng::seed_from_u64(7));
        let c = builder.build(&mut ChaCha8Rng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_deployment_stays_in_region() {
        let d = UniformDeployment::new(200, 500.0).build(&mut ChaCha8Rng::seed_from_u64(1));
        assert!(d.node_ids().all(|id| inside(d.region(), d.position(id))));
    }

    #[test]
    fn heterogeneous_power_spread_is_respected() {
        let d = UniformDeployment::new(100, 1000.0)
            .tx_power_dbm(20.0)
            .heterogeneous_power(10.0)
            .build(&mut ChaCha8Rng::seed_from_u64(3));
        let powers: Vec<f64> = d.nodes().iter().map(|n| n.tx_power_dbm).collect();
        assert!(powers.iter().all(|&p| (15.0..=25.0).contains(&p)));
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 1.0,
            "powers should actually vary, spread={}",
            max - min
        );
    }

    #[test]
    fn density_to_area_matches_definition() {
        let area = density_to_area_m2(64, 25_000.0);
        let d = UniformDeployment::new(64, area.sqrt()).build(&mut ChaCha8Rng::seed_from_u64(0));
        assert!((d.region().area() - area).abs() < 1e-6);
        assert!((d.len() as f64 / (d.region().area() / 1.0e6) - 25_000.0).abs() < 1.0);
    }

    #[test]
    fn build_connected_returns_connected_topology() {
        // 10 000 nodes/km²: 64 nodes on 80 m × 80 m.
        let builder = UniformDeployment::new(64, 80.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let range = Meters::new(120.0);
        let d = builder.build_connected(&mut rng, range, 50).unwrap();
        let g = crate::graph::UnitDiskGraphBuilder::new(range).build(&d);
        assert!(g.is_connected());
    }

    #[test]
    fn build_connected_fails_for_hopeless_range() {
        let builder = UniformDeployment::new(50, 10_000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let err = builder
            .build_connected(&mut rng, Meters::new(1.0), 3)
            .unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected { .. }));
    }

    #[test]
    fn infinite_density_lattice_is_dense() {
        let d = InfiniteDensityDeployment::new(Meters::new(100.0), Meters::new(5.0)).build();
        assert_eq!(d.len(), 21 * 21);
    }

    #[test]
    #[should_panic(expected = "coarser step")]
    fn infinite_density_guards_against_blowup() {
        let _ = InfiniteDensityDeployment::new(Meters::new(10_000.0), Meters::new(1.0));
    }

    #[test]
    fn from_positions_assigns_contiguous_ids() {
        let d = Deployment::from_positions(
            &[Point2::new(0.0, 0.0), Point2::new(50.0, 0.0)],
            17.0,
            Rect::square(50.0),
        )
        .unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.node(NodeId::new(1)).tx_power_dbm, 17.0);
    }

    #[test]
    fn from_nodes_rejects_non_contiguous_ids() {
        let nodes = vec![NodeInfo::new(
            NodeId::new(1),
            Point2::ORIGIN,
            Dbm::new(20.0),
        )];
        let err = Deployment::from_nodes(nodes, Rect::square(1.0)).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidParameter(_)));
    }

    #[test]
    fn empty_deployment_is_rejected() {
        let err = Deployment::from_nodes(vec![], Rect::square(1.0)).unwrap_err();
        assert_eq!(err, TopologyError::EmptyDeployment);
    }

    #[test]
    fn nearest_node_picks_closest() {
        let d = GridDeployment::new(3, 3, 100.0).build();
        assert_eq!(d.nearest_node(Point2::new(10.0, 10.0)), NodeId::new(0));
        assert_eq!(d.nearest_node(Point2::new(190.0, 190.0)), NodeId::new(8));
    }
}
