//! The paper's simulation scenario (Section VI-A), parameterized.
//!
//! All simulations in the paper use 64 nodes with 4 gateways, per-node
//! demands uniform in `[1, 10]`, a log-normal propagation model with path
//! loss exponent 3, SCREAM size 15 bytes and interference diameter 5. Node
//! density is varied by changing the deployment area while holding the node
//! count fixed. Two topology families are used: a planned grid with
//! homogeneous transmit power and an unplanned uniform-random placement with
//! heterogeneous power.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream_core::{DistributedRun, DistributedScheduler, ProtocolConfig, ProtocolKind};
use scream_netsim::{ClockSkewConfig, Db, Dbm, Meters, PropagationModel, RadioEnvironment};
use scream_scheduling::{GreedyPhysical, Schedule, ScheduleMetrics};
use scream_topology::{
    density_to_area_m2, DemandConfig, DemandVector, Deployment, GridDeployment, LinkDemands,
    RoutingForest, UniformDeployment,
};
use scream_traffic::{FlowSet, TrafficConfig, TrafficEngine, TrafficReport};

use crate::error::BenchError;

/// Which of the two Section VI-A topology families to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Planned grid layout with homogeneous transmission power.
    PlannedGrid,
    /// Unplanned uniform-random placement with heterogeneous transmission
    /// power.
    UnplannedUniform,
}

/// Generator for the paper's simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperScenario {
    /// Topology family.
    pub topology: Topology,
    /// Number of mesh nodes (64 in the paper).
    pub(crate) node_count: usize,
    /// Node density in nodes per square kilometer (the paper sweeps roughly
    /// 1 000 – 25 000).
    pub density_per_km2: f64,
    /// Log-normal shadowing standard deviation (0 dB disables shadowing).
    pub shadowing_sigma_db: Db,
    /// Number of orthogonal channels available to the schedulers (the paper
    /// — and hence the default — is the single shared channel).
    pub(crate) channel_count: usize,
}

impl PaperScenario {
    /// Number of gateway nodes (4 in the paper).
    pub(crate) const GATEWAY_COUNT: usize = 4;
    /// Per-node demand distribution (uniform `[1, 10]` in the paper).
    pub(crate) const DEMAND: DemandConfig = DemandConfig::PAPER;
    /// Path-loss exponent (3 in the paper).
    pub(crate) const PATH_LOSS_EXPONENT: f64 = 3.0;
    /// Mean transmit power. The paper does not state the power used in
    /// GTNetS; 10 dBm gives a ~100 m interference-free range under the
    /// defaults here, which makes the 64-node deployments genuinely
    /// multi-hop across the evaluated density range.
    pub(crate) const TX_POWER_DBM: Dbm = Dbm::new(10.0);
    /// SINR threshold β. The paper does not state β; 6 dB corresponds to a
    /// DSSS-rate 802.11 link and is the reproduction default; every table in
    /// `FIGURES.txt` is at this β.
    pub(crate) const SINR_THRESHOLD_DB: Db = Db::new(6.0);

    /// The planned (grid) scenario of Figure 6 at the given density.
    pub fn grid(density_per_km2: f64) -> Self {
        Self {
            topology: Topology::PlannedGrid,
            node_count: 64,
            density_per_km2,
            shadowing_sigma_db: Db::new(4.0),
            channel_count: 1,
        }
    }

    /// The unplanned (uniform random) scenario of Figure 7 at the given
    /// density.
    pub fn uniform(density_per_km2: f64) -> Self {
        Self {
            topology: Topology::UnplannedUniform,
            ..Self::grid(density_per_km2)
        }
    }

    /// Overrides the node count (the paper always uses 64; smaller counts are
    /// useful for fast tests).
    pub fn with_node_count(mut self, nodes: usize) -> Self {
        self.node_count = nodes;
        self
    }

    /// Overrides the shadowing standard deviation.
    pub fn with_shadowing(mut self, sigma: Db) -> Self {
        self.shadowing_sigma_db = sigma;
        self
    }

    /// Overrides the number of orthogonal channels.
    pub fn with_channel_count(mut self, channels: usize) -> Self {
        self.channel_count = channels;
        self
    }

    /// Builds one concrete instance of the scenario. The same seed always
    /// yields the same instance.
    ///
    /// Instances are retried (perturbing the draw, never the parameters)
    /// until the SINR communication graph is connected, as the paper's
    /// analysis assumes; at the densities evaluated disconnection is rare,
    /// and 64 disconnected draws in a row are [`BenchError::Disconnected`].
    pub fn instantiate(&self, seed: u64) -> Result<ScenarioInstance, BenchError> {
        (0..64u64)
            .find_map(|attempt| self.try_instantiate(seed.wrapping_add(attempt * 0x9e37)))
            .ok_or(BenchError::Disconnected {
                topology: self.topology,
                density_per_km2: self.density_per_km2,
            })
    }

    fn try_instantiate(&self, seed: u64) -> Option<ScenarioInstance> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let deployment = self.build_deployment(&mut rng);
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(Self::PATH_LOSS_EXPONENT))
            .shadowing(self.shadowing_sigma_db.get(), seed)
            .config(
                scream_netsim::RadioConfig::mesh_default()
                    .with_sinr_threshold_db(Self::SINR_THRESHOLD_DB.get())
                    .with_channel_count(self.channel_count),
            )
            .build(&deployment);
        let graph = env.communication_graph();
        if !graph.is_connected() {
            return None;
        }
        // Gateways: the nodes closest to the region corners (up to
        // `GATEWAY_COUNT` of them), mirroring the planned placement of 4
        // gateways in the paper.
        let mut gateways = deployment.corner_nodes();
        gateways.truncate(Self::GATEWAY_COUNT);
        let forest = RoutingForest::shortest_path(&graph, &gateways, seed).ok()?;
        let demands = DemandVector::generate(deployment.len(), Self::DEMAND, &gateways, &mut rng);
        let link_demands = LinkDemands::aggregate(&forest, &demands).ok()?;
        let interference_diameter = env.interference_diameter();
        if interference_diameter == usize::MAX {
            return None;
        }
        Some(ScenarioInstance {
            deployment,
            env,
            forest,
            demands,
            link_demands,
            interference_diameter,
            seed,
        })
    }

    fn build_deployment(&self, rng: &mut ChaCha8Rng) -> Deployment {
        let area_m2 = density_to_area_m2(self.node_count, self.density_per_km2);
        match self.topology {
            Topology::PlannedGrid => {
                let side = (self.node_count as f64).sqrt().round() as usize;
                let step = (area_m2 / self.node_count as f64).sqrt();
                GridDeployment::new(side, side.max(1), step)
                    .tx_power_dbm(Self::TX_POWER_DBM.get())
                    .build()
            }
            Topology::UnplannedUniform => UniformDeployment::new(self.node_count, area_m2.sqrt())
                .tx_power_dbm(Self::TX_POWER_DBM.get())
                .heterogeneous_power(6.0)
                .build(rng),
        }
    }
}

/// A fixed deterministic heavy-demand instance: 128 nodes on a 16 × 8 planned
/// grid (150 m lattice step, homogeneous 20 dBm power), with exactly **64
/// horizontal links** — one per disjoint column pair per row — each demanding
/// `demand_per_link` slots.
///
/// Unlike [`PaperScenario`], the demand magnitude and the channel count are
/// the only knobs, which is what the `ablate channels` table sweeps to show
/// that batched placement and run-length schedules make demand nearly free
/// (the link set, and hence the packing problem, never changes). The 64 links
/// are pairwise endpoint-disjoint, so their conflicts are purely SINR-driven
/// and `channel_count` orthogonal channels shrink the schedule by almost
/// exactly `1/C`.
pub(crate) fn heavy_demand_instance(
    demand_per_link: u64,
    channel_count: usize,
) -> Result<(RadioEnvironment, LinkDemands), BenchError> {
    use scream_topology::{Link, NodeId};

    const COLUMNS: usize = 16;
    const ROWS: usize = 8;
    let deployment = GridDeployment::new(COLUMNS, ROWS, 150.0).build();
    let env = RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .config(scream_netsim::RadioConfig::mesh_default().with_channel_count(channel_count))
        .build(&deployment);
    let links: Vec<(Link, u64)> = (0..ROWS)
        .flat_map(|row| {
            (0..COLUMNS / 2).map(move |pair| {
                let tail = (row * COLUMNS + 2 * pair) as u32;
                (
                    Link::new(NodeId::new(tail + 1), NodeId::new(tail)),
                    demand_per_link,
                )
            })
        })
        .collect();
    Ok((env, LinkDemands::from_links(deployment.len(), &links)?))
}

/// The `large_scale` scenario family: planned grids sized to hit a target
/// **link** count (10⁴–10⁶), the scale axis of the ROADMAP's million-node
/// item.
///
/// The construction generalizes `heavy_demand_instance`: nodes on a
/// `columns × rows` grid (columns kept even), one horizontal link per
/// disjoint column pair per row — links are pairwise endpoint-disjoint, every
/// head is distinct and conflicts are purely SINR-driven — with unit demand
/// per link. The radio environment is built with **streamed gains** (no n×n
/// matrix, no shadowing), which is what makes 10⁵–10⁶-link instances
/// representable in memory; feasibility probes run through the spatially
/// pruned `SlotLedger` automatically.
///
/// The default geometry (250 m lattice step, 32 dBm homogeneous power,
/// β = 10 dB) gives every link ≈ 10 dB of interference-free SINR headroom —
/// an interference budget of ≈ 9× the noise floor — so slots pack thousands
/// of concurrent links at kilometer-scale reuse distances. That density is
/// what exercises the pruned ledger: exact probes must sum every co-slot
/// interferer, while the pruned path scans a cutoff disc and covers the rest
/// with the far-field bound. (With only ≈ 1 dB of headroom the budget drops
/// below the aggregate far field, a single row of links saturates each slot,
/// and both paths degenerate to small-k scans.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeScaleScenario {
    /// Number of links to generate (the grid is sized to fit exactly this).
    pub(crate) target_links: usize,
    /// Grid lattice step.
    pub(crate) step_m: Meters,
    /// Homogeneous transmit power.
    pub(crate) tx_power_dbm: Dbm,
    /// Number of orthogonal channels.
    pub(crate) channel_count: usize,
}

impl LargeScaleScenario {
    /// The family at its default geometry with the given link count.
    pub fn with_target_links(target_links: usize) -> Self {
        Self {
            target_links,
            step_m: Meters::new(250.0),
            tx_power_dbm: Dbm::new(32.0),
            channel_count: 1,
        }
    }

    /// Grid dimensions `(columns, rows)` for the target link count: columns
    /// is the smallest even number making the grid roughly square, rows the
    /// smallest count fitting `target_links` disjoint column pairs (no rows
    /// at all for a target of zero).
    pub fn grid_dimensions(&self) -> (usize, usize) {
        let columns = ((2.0 * self.target_links as f64).sqrt().ceil() as usize)
            .next_multiple_of(2)
            .max(2);
        let rows = self.target_links.div_ceil(columns / 2);
        (columns, rows)
    }

    /// Builds the instance: a streamed-gain environment plus unit demand on
    /// each of exactly `target_links` disjoint horizontal links.
    ///
    /// # Errors
    ///
    /// [`BenchError::Usage`] for a target of zero links.
    pub fn instantiate(&self) -> Result<(RadioEnvironment, LinkDemands), BenchError> {
        use scream_topology::{Link, NodeId};

        if self.target_links == 0 {
            return Err(BenchError::Usage(
                "a large-scale instance needs at least one link".into(),
            ));
        }
        let (columns, rows) = self.grid_dimensions();
        let deployment = GridDeployment::new(columns, rows, self.step_m.get())
            .tx_power_dbm(self.tx_power_dbm.get())
            .build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(
                scream_netsim::RadioConfig::mesh_default().with_channel_count(self.channel_count),
            )
            .streamed_gains()
            .build(&deployment);
        let links: Vec<(Link, u64)> = (0..rows)
            .flat_map(|row| {
                (0..columns / 2).map(move |pair| {
                    let tail = (row * columns + 2 * pair) as u32;
                    (Link::new(NodeId::new(tail + 1), NodeId::new(tail)), 1)
                })
            })
            .take(self.target_links)
            .collect();
        Ok((env, LinkDemands::from_links(deployment.len(), &links)?))
    }
}

/// One concrete, connected instance of the paper scenario.
#[derive(Debug, Clone)]
pub struct ScenarioInstance {
    /// The node placement.
    pub deployment: Deployment,
    /// The radio environment (gains, SINR, carrier sensing).
    pub env: RadioEnvironment,
    /// The routing forest towards the gateways (the flow routes of the
    /// packet-level traffic evaluation).
    pub forest: RoutingForest,
    /// The generated per-node demands the link demands were aggregated from.
    pub(crate) demands: DemandVector,
    /// Aggregated per-link demands along the routing forest.
    pub link_demands: LinkDemands,
    /// Interference diameter of the sensitivity graph.
    pub interference_diameter: usize,
    /// Seed the instance was drawn from.
    pub seed: u64,
}

impl ScenarioInstance {
    /// A protocol configuration sized for this instance: `K` set to the
    /// measured interference diameter (at least the paper's 5) and the
    /// paper's 15-byte SCREAM size.
    pub fn protocol_config(&self) -> ProtocolConfig {
        ProtocolConfig::paper_default()
            .with_scream_slots(self.interference_diameter.max(5))
            .with_seed(self.seed)
    }

    /// Runs the centralized GreedyPhysical baseline on this instance.
    pub fn run_centralized(&self) -> Schedule {
        GreedyPhysical::paper_baseline().schedule(&self.env, &self.link_demands)
    }

    /// Runs a distributed protocol on this instance with the default
    /// (paper-sized) configuration.
    pub fn run_protocol(&self, kind: ProtocolKind) -> Result<DistributedRun, BenchError> {
        self.run_protocol_with(kind, self.protocol_config())
    }

    /// Runs a distributed protocol with an explicit configuration (used by
    /// the execution-time sweeps that vary SCREAM size, `K` and clock skew).
    pub fn run_protocol_with(
        &self,
        kind: ProtocolKind,
        config: ProtocolConfig,
    ) -> Result<DistributedRun, BenchError> {
        Ok(DistributedScheduler::new(kind, config).run(&self.env, &self.link_demands)?)
    }

    /// Schedule metrics of an arbitrary schedule against this instance's
    /// demands.
    pub fn metrics(&self, schedule: &Schedule) -> ScheduleMetrics {
        ScheduleMetrics::compute(schedule, &self.link_demands)
    }

    /// A clock-skew-adjusted configuration for the Figure 9 sweep.
    pub(crate) fn config_with_skew(&self, skew: ClockSkewConfig) -> ProtocolConfig {
        self.protocol_config().with_clock_skew(skew)
    }

    /// The paper's traffic pattern at load factor `rho` against a frame of
    /// `frame_slots` slots: one deterministic flow per non-gateway node,
    /// routed along the forest, injecting `rho · demand(v) / frame_slots`
    /// packets per slot.
    ///
    /// Because a demand-satisfying frame serves link `e` for exactly
    /// `aggregate_demand(e)` of its `frame_slots` slots, this puts **every**
    /// link at utilization exactly `rho`: the whole network crosses its
    /// stability knee together at `rho = 1`, which is what makes `rho` a
    /// clean sweep axis.
    pub(crate) fn flows_at_load(&self, rho: f64, frame_slots: u64) -> FlowSet {
        assert!(rho > 0.0 && rho.is_finite(), "load factor must be positive");
        assert!(frame_slots > 0, "the frame must have slots");
        FlowSet::along_forest(&self.forest, &self.demands, rho / frame_slots as f64)
    }

    /// Runs the packet-level traffic engine over `schedule` (as a repeating
    /// TDMA frame) at load factor `rho` **relative to that schedule's own
    /// capacity**, for `horizon_frames` frame repetitions.
    pub fn run_traffic(
        &self,
        schedule: &Schedule,
        rho: f64,
        horizon_frames: u64,
    ) -> Result<TrafficReport, BenchError> {
        self.run_traffic_against(schedule, rho, schedule.length() as u64, horizon_frames)
    }

    /// Like [`run_traffic`](Self::run_traffic) but with the load factor
    /// expressed relative to an explicit reference frame length — the
    /// absolute-rate comparison the `delay_vs_load` figure uses so that
    /// Centralized, FDD and PDD face the *same* packet streams.
    pub(crate) fn run_traffic_against(
        &self,
        schedule: &Schedule,
        rho: f64,
        reference_frame_slots: u64,
        horizon_frames: u64,
    ) -> Result<TrafficReport, BenchError> {
        let engine = TrafficEngine::on_schedule(
            schedule,
            self.flows_at_load(rho, reference_frame_slots),
            TrafficConfig::new(horizon_frames).with_seed(self.seed),
        )?;
        Ok(engine.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_scenario_produces_a_connected_64_node_instance() {
        let instance = PaperScenario::grid(2000.0).instantiate(1).unwrap();
        assert_eq!(instance.deployment.len(), 64);
        assert!(instance.env.communication_graph().is_connected());
        assert!(instance.link_demands.total_demand() > 0);
        assert!(instance.interference_diameter >= 1);
    }

    #[test]
    fn uniform_scenario_uses_heterogeneous_power() {
        let instance = PaperScenario::uniform(3000.0).instantiate(2).unwrap();
        let powers: Vec<f64> = instance
            .deployment
            .nodes()
            .iter()
            .map(|n| n.tx_power_dbm)
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 1.0, "powers should vary, spread {}", max - min);
    }

    #[test]
    fn instances_are_reproducible_per_seed() {
        let a = PaperScenario::grid(2000.0).instantiate(7).unwrap();
        let b = PaperScenario::grid(2000.0).instantiate(7).unwrap();
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.link_demands, b.link_demands);
    }

    #[test]
    fn small_instance_protocols_and_baseline_agree_on_validity() {
        let instance = PaperScenario::grid(1500.0)
            .with_node_count(16)
            .instantiate(3)
            .unwrap();
        let centralized = instance.run_centralized();
        let fdd = instance.run_protocol(ProtocolKind::Fdd).unwrap();
        scream_scheduling::verify_schedule(&instance.env, &centralized, &instance.link_demands)
            .unwrap();
        scream_scheduling::verify_schedule(&instance.env, &fdd.schedule, &instance.link_demands)
            .unwrap();
        assert_eq!(fdd.schedule, centralized);
    }

    #[test]
    fn heavy_demand_instance_has_64_links_scaled_by_demand() {
        let (env, light) = heavy_demand_instance(1, 1).unwrap();
        let (_, heavy) = heavy_demand_instance(10_000, 1).unwrap();
        assert_eq!(light.demanded_links().count(), 64);
        assert_eq!(heavy.total_demand(), 640_000);
        // The link set is fixed; only multiplicities change, so the greedy
        // packing (pattern structure) is identical at every demand level.
        let light_schedule =
            scream_scheduling::GreedyPhysical::paper_baseline().schedule(&env, &light);
        let heavy_schedule =
            scream_scheduling::GreedyPhysical::paper_baseline().schedule(&env, &heavy);
        scream_scheduling::verify_schedule(&env, &heavy_schedule, &heavy).unwrap();
        assert!(light_schedule.spatial_reuse() > 1.0);
        assert_eq!(
            heavy_schedule.length(),
            light_schedule.length() * 10_000,
            "per-link demand scales the schedule uniformly on this instance"
        );
    }

    #[test]
    fn flows_at_load_put_every_link_at_exactly_rho() {
        let instance = PaperScenario::grid(1500.0)
            .with_node_count(16)
            .instantiate(3)
            .unwrap();
        let schedule = instance.run_centralized();
        let frame_slots = schedule.length() as u64;
        let flows = instance.flows_at_load(0.7, frame_slots);
        assert_eq!(
            flows.len(),
            instance
                .forest
                .flow_routes()
                .filter(|(v, _)| instance.demands.demand(*v) > 0)
                .count()
        );
        // The schedule allocates exactly demand(e) slots per frame to link e,
        // so the offered/share ratio is rho on every demanded link.
        for (link, demand) in instance.link_demands.demanded_links() {
            let share = demand as f64 / frame_slots as f64;
            assert!(
                (flows.offered_on(link) - 0.7 * share).abs() < 1e-9,
                "link {link} is not at utilization rho"
            );
        }
    }

    #[test]
    fn run_traffic_is_stable_below_the_knee_and_overloaded_above() {
        // The acceptance scenario: Centralized and FDD frames on the paper
        // grid carry sub-capacity load and saturate above it, byte-for-byte
        // reproducibly per seed.
        let instance = PaperScenario::grid(1500.0)
            .with_node_count(16)
            .instantiate(3)
            .unwrap();
        let centralized = instance.run_centralized();
        let fdd = instance.run_protocol(ProtocolKind::Fdd).unwrap();
        assert_eq!(fdd.schedule, centralized);
        for schedule in [&centralized, &fdd.schedule] {
            let below = instance.run_traffic(schedule, 0.6, 300).unwrap();
            assert!(below.verdict.is_stable());
            assert!(below.sustained_throughput_pct > 98.0, "{below}");
            assert!(
                below.final_backlog < below.injected / 20,
                "bounded backlog below the knee: {below}"
            );

            let above = instance.run_traffic(schedule, 1.5, 300).unwrap();
            assert!(!above.verdict.is_stable());
            assert!(above.sustained_throughput_pct < 90.0, "{above}");
            // Delay grows with the simulated horizon in overload.
            let above_longer = instance.run_traffic(schedule, 1.5, 600).unwrap();
            assert!(above_longer.delay.mean_slots > above.delay.mean_slots);
            // Determinism across reruns of the same seed.
            assert_eq!(below, instance.run_traffic(schedule, 0.6, 300).unwrap());
            assert_eq!(above, instance.run_traffic(schedule, 1.5, 300).unwrap());
        }
    }

    #[test]
    fn large_scale_family_builds_streamed_verified_instances() {
        let scenario = LargeScaleScenario::with_target_links(2_000);
        let (columns, rows) = scenario.grid_dimensions();
        assert_eq!(columns % 2, 0);
        assert!((columns / 2) * rows >= 2_000);
        assert!((columns / 2) * (rows - 1) < 2_000, "no wasted rows");
        let (env, demands) = scenario.instantiate().unwrap();
        assert!(env.is_streamed(), "large instances must not hold n² gains");
        assert_eq!(demands.demanded_links().count(), 2_000);
        assert_eq!(demands.total_demand(), 2_000);
        let schedule = GreedyPhysical::paper_baseline().schedule(&env, &demands);
        scream_scheduling::verify_schedule(&env, &schedule, &demands).unwrap();
        assert!(
            schedule.spatial_reuse() > 10.0,
            "kilometer-scale reuse should pack many links per slot, got {}",
            schedule.spatial_reuse()
        );
    }

    #[test]
    fn a_large_scale_target_of_zero_links_is_an_error_not_a_panic() {
        let empty = LargeScaleScenario::with_target_links(0);
        assert_eq!(empty.grid_dimensions(), (2, 0));
        assert!(matches!(empty.instantiate(), Err(BenchError::Usage(_))));
        let one = LargeScaleScenario::with_target_links(1);
        assert_eq!(one.grid_dimensions(), (2, 1));
        assert_eq!(one.instantiate().unwrap().1.total_demand(), 1);
    }

    #[test]
    fn large_scale_instances_do_not_depend_on_pruning() {
        // The committed scale benchmark compares pruned vs exact probes on
        // this family, which is only meaningful if both paths schedule it
        // byte-identically. 4000 links ≈ 22 km across — wide enough that the
        // default ledger actually builds its spatial index (the extent
        // heuristic skips it below the ~25 km far-field cutoff).
        let (env, demands) = LargeScaleScenario::with_target_links(4_000)
            .instantiate()
            .unwrap();
        assert!(
            scream_netsim::SlotLedger::new(&env).is_pruned(),
            "the instance must be wide enough to engage spatial pruning"
        );
        let pruned = GreedyPhysical::paper_baseline().schedule(&env, &demands);
        let exact = GreedyPhysical::paper_baseline()
            .schedule(&scream_scheduling::ExactPhysical(&env), &demands);
        assert_eq!(pruned, exact);
    }

    #[test]
    fn density_changes_the_region_not_the_node_count() {
        let sparse = PaperScenario::grid(1000.0).instantiate(5).unwrap();
        let dense = PaperScenario::grid(10_000.0).instantiate(5).unwrap();
        assert_eq!(sparse.deployment.len(), dense.deployment.len());
        assert!(sparse.deployment.region().area() > dense.deployment.region().area());
    }
}
