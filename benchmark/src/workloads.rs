//! The four workloads and their seeded input generators.
//!
//! Inputs are built only from `scream-topology` / `scream-netsim` public
//! constructors, with the paper's parameters copied here as constants, so a
//! refactor of `crates/bench` (`PaperScenario`, `LargeScaleScenario`) cannot
//! change what the benchmark measures. The same `(workload, seed)` always
//! yields the same [`World`]; its [`World::fingerprint`] is pinned for seeds
//! 1 and 2 by the tests below.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scream::netsim::{PropagationModel, RadioConfig, RadioEnvironment};
use scream::resilience::{ChurnConfig, ChurnTrace, FaultKind, FaultPlan, ResilienceHarness};
use scream::topology::{
    density_to_area_m2, DemandConfig, DemandVector, Deployment, GridDeployment, Link, LinkDemands,
    NodeId, Point2, Rect, RoutingForest, UniformDeployment,
};

// Section VI-A of the paper, as the reproduction instantiates it.
const PAPER_DENSITY_PER_KM2: f64 = 4_000.0;
const PAPER_GATEWAYS: usize = 4;
const PAPER_SHADOWING_SIGMA_DB: f64 = 4.0;
const PAPER_TX_POWER_DBM: f64 = 10.0;
const PAPER_POWER_SPREAD_DB: f64 = 6.0; // heterogeneous power: mean ± 3 dB
const PAPER_SINR_THRESHOLD_DB: f64 = 6.0;
const PATH_LOSS_EXPONENT: f64 = 3.0;

// The large-scale lattice: 250 m step and 32 dBm leave every link ≈ 10 dB of
// interference-free headroom, so slots pack hundreds of links at
// kilometre-scale reuse and the spatially pruned ledger is engaged.
const LATTICE_STEP_M: f64 = 250.0;
const LATTICE_JITTER: f64 = 0.10;
const LATTICE_TX_POWER_DBM: f64 = 32.0;

/// Mean outage length of the churn trace, as a share of its horizon.
const CHURN_MEAN_OUTAGE_SHARE: f64 = 0.1;
const CHURN_FADE_SIGMA_DB: f64 = 4.0;

/// How a mesh's nodes are placed and powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshFamily {
    /// The paper's planned grid: homogeneous power, shadowed links.
    PlannedGrid,
    /// The paper's unplanned placement: uniform positions, ± 3 dB power.
    UnplannedUniform,
    /// A square patch of the large-scale jittered lattice, routed as a mesh.
    /// It gives the lattice workload something to run the distributed
    /// protocols and the recovery loop on.
    LatticePatch,
}

#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    pub family: MeshFamily,
    pub nodes: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct LatticeSpec {
    /// Endpoint-disjoint unit-demand links of the single-channel instance.
    pub links: usize,
    /// Links of the (smaller) two-channel instance.
    pub c2_links: usize,
    /// Links that fail before `repair_schedule`; their demand is re-spread
    /// over surviving links.
    pub failed_links: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Horizon in repetitions of the pre-fault frame.
    pub horizon_frames: u64,
    pub link_outages: usize,
    pub node_outages: usize,
    pub flow_churns: usize,
    pub fades: usize,
    /// Per-link utilisation under the pre-fault frame.
    pub rho: f64,
}

/// One workload: which instances it draws and how much of each phase it runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// The scheduling phases run on the lattice and on every mesh. Every
    /// workload has a lattice — a small one where scheduling is not the point
    /// — so that no scheduling metric is a sub-millisecond reading anywhere.
    pub lattice: LatticeSpec,
    /// The distributed protocols run on every mesh, the churn trace on the
    /// first.
    pub meshes: &'static [MeshSpec],
    /// Tree links that fail on each mesh before `repair_schedule`; demands
    /// are rerouted around them.
    pub mesh_failed_links: usize,
    /// The traffic phases run on the lattice (one deterministic single-hop
    /// flow per link) or on every mesh (Poisson flows along the forest).
    pub traffic_on_lattice: bool,
    /// Frame repetitions simulated at 0.9 and at 1.2 load.
    pub stable_frames: u64,
    pub overload_frames: u64,
    pub churn: ChurnSpec,
}

/// The lattice of the workloads whose subject is not scheduling.
const SMALL_LATTICE: LatticeSpec = LatticeSpec {
    links: 3_000,
    c2_links: 1_500,
    failed_links: 6,
};

/// The churn trace of the workloads whose subject is not recovery.
const LIGHT_CHURN: ChurnSpec = ChurnSpec {
    horizon_frames: 150,
    link_outages: 6,
    node_outages: 1,
    flow_churns: 2,
    fades: 0,
    rho: 0.8,
};

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "grid8k",
        why: "8 000 disjoint links on a jittered 250 m lattice: scheduling::greedy and the pruned netsim::ledger do most of the work (C=1 and C=2); protocols and churn run on two small patches.",
        lattice: LatticeSpec {
            links: 8_000,
            c2_links: 3_200,
            failed_links: 12,
        },
        meshes: &[
            MeshSpec {
                family: MeshFamily::LatticePatch,
                nodes: 100,
            },
            MeshSpec {
                family: MeshFamily::LatticePatch,
                nodes: 100,
            },
        ],
        mesh_failed_links: 8,
        traffic_on_lattice: true,
        stable_frames: 60,
        overload_frames: 40,
        churn: LIGHT_CHURN,
    },
    Spec {
        name: "proto144",
        why: "Two planned-grid and two unplanned 144-node paper meshes under FDD, AFDD and PDD: core::runtime, scream and election dominate, through matrix gains and the exact ledger; greedy is milliseconds there.",
        lattice: SMALL_LATTICE,
        meshes: &[
            MeshSpec {
                family: MeshFamily::PlannedGrid,
                nodes: 144,
            },
            MeshSpec {
                family: MeshFamily::UnplannedUniform,
                nodes: 144,
            },
            MeshSpec {
                family: MeshFamily::PlannedGrid,
                nodes: 144,
            },
            MeshSpec {
                family: MeshFamily::UnplannedUniform,
                nodes: 144,
            },
        ],
        mesh_failed_links: 8,
        traffic_on_lattice: false,
        stable_frames: 150,
        overload_frames: 60,
        churn: LIGHT_CHURN,
    },
    Spec {
        name: "mesh_traffic",
        why: "Two 144-node unplanned paper meshes carrying Poisson flows for 1 400 frames, stable then overloaded: traffic::engine and netsim::des do most of the work, with shallow then deep queues.",
        lattice: SMALL_LATTICE,
        meshes: &[
            MeshSpec {
                family: MeshFamily::UnplannedUniform,
                nodes: 144,
            },
            MeshSpec {
                family: MeshFamily::UnplannedUniform,
                nodes: 144,
            },
        ],
        mesh_failed_links: 8,
        traffic_on_lattice: false,
        stable_frames: 1_400,
        overload_frames: 400,
        churn: LIGHT_CHURN,
    },
    Spec {
        name: "churn196",
        why: "196-node planned paper mesh under 46 seeded link and node outages, flow churn and fades: resilience::rescheduler reroutes, repairs, verifies and drives TrafficSession, the second packet simulator.",
        lattice: SMALL_LATTICE,
        meshes: &[
            MeshSpec {
                family: MeshFamily::PlannedGrid,
                nodes: 196,
            },
            MeshSpec {
                family: MeshFamily::PlannedGrid,
                nodes: 196,
            },
        ],
        mesh_failed_links: 8,
        traffic_on_lattice: false,
        stable_frames: 150,
        overload_frames: 60,
        churn: ChurnSpec {
            horizon_frames: 400,
            link_outages: 40,
            node_outages: 6,
            flow_churns: 12,
            fades: 2,
            rho: 0.8,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A link set on the large-scale lattice.
#[derive(Debug, Clone)]
pub struct Lattice {
    pub env: RadioEnvironment,
    pub demands: LinkDemands,
    pub c2_env: RadioEnvironment,
    pub c2_demands: LinkDemands,
    pub repair_target: LinkDemands,
}

/// A routed mesh with gateways and per-node demands.
#[derive(Debug, Clone)]
pub struct Mesh {
    pub env: RadioEnvironment,
    /// The same deployment and gains with two orthogonal channels.
    pub c2_env: RadioEnvironment,
    pub gateways: Vec<NodeId>,
    pub forest: RoutingForest,
    pub node_demands: DemandVector,
    pub link_demands: LinkDemands,
    /// Link demands after rerouting around the failed tree links.
    pub repair_target: LinkDemands,
    pub interference_diameter: usize,
    /// The seed that drew this (connected) instance; it also seeds routing
    /// tie-breaks, the protocols and packet arrivals on this mesh.
    pub draw_seed: u64,
}

/// The fault-injection experiment on the first mesh.
#[derive(Debug, Clone)]
pub struct ChurnInput {
    pub harness: ResilienceHarness,
    pub trace: ChurnTrace,
    pub horizon_slots: u64,
    pub run_seed: u64,
}

/// Wall time of the set-up steps, per layer (seconds, summed over the
/// workload's instances).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub deploy_s: f64,
    pub env_build_s: f64,
    pub comm_graph_s: f64,
    pub routing_s: f64,
    pub demand_aggregate_s: f64,
    pub interference_diameter_s: f64,
    pub total_s: f64,
}

/// Everything a workload's pipeline consumes, generated from the seed.
#[derive(Debug, Clone)]
pub struct World {
    pub lattice: Lattice,
    pub meshes: Vec<Mesh>,
    pub churn: ChurnInput,
    pub fingerprint: u64,
    pub timings: SetupTimings,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// SplitMix64 step: decorrelates the per-component streams of one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, for input fingerprints and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Fnv64 {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn link(&mut self, link: Link) {
        self.u64(u64::from(link.head.0));
        self.u64(u64::from(link.tail.0));
    }

    fn deployment(&mut self, deployment: &Deployment) {
        self.u64(deployment.len() as u64);
        for node in deployment.nodes() {
            self.f64(node.position.x);
            self.f64(node.position.y);
            self.f64(node.tx_power_dbm);
        }
    }

    fn link_demands(&mut self, demands: &LinkDemands) {
        for (link, demand) in demands.demanded_links() {
            self.link(link);
            self.u64(demand);
        }
    }

    fn trace(&mut self, trace: &ChurnTrace) {
        for event in trace.events() {
            self.u64(event.slot);
            match event.kind {
                FaultKind::LinkDown(link) => {
                    self.u64(1);
                    self.link(link);
                }
                FaultKind::LinkUp(link) => {
                    self.u64(2);
                    self.link(link);
                }
                FaultKind::NodeDown(node) => self.u64(3 << 32 | u64::from(node.0)),
                FaultKind::NodeUp(node) => self.u64(4 << 32 | u64::from(node.0)),
                FaultKind::Fade { sigma_db, seed } => {
                    self.u64(5);
                    self.f64(sigma_db);
                    self.u64(seed);
                }
                FaultKind::FlowStop(node) => self.u64(6 << 32 | u64::from(node.0)),
                FaultKind::FlowStart(node) => self.u64(7 << 32 | u64::from(node.0)),
            }
        }
    }
}

/// `columns × rows` lattice positions, each jittered by ± 10 % of the step.
fn jittered_lattice(columns: usize, rows: usize, rng: &mut ChaCha8Rng) -> Deployment {
    let mut positions = Vec::with_capacity(columns * rows);
    for row in 0..rows {
        for column in 0..columns {
            let dx: f64 = rng.gen_range(-LATTICE_JITTER..LATTICE_JITTER);
            let dy: f64 = rng.gen_range(-LATTICE_JITTER..LATTICE_JITTER);
            positions.push(Point2::new(
                (column as f64 + 0.5 + dx) * LATTICE_STEP_M,
                (row as f64 + 0.5 + dy) * LATTICE_STEP_M,
            ));
        }
    }
    let region = Rect::new(
        Point2::new(0.0, 0.0),
        Point2::new(
            columns as f64 * LATTICE_STEP_M,
            rows as f64 * LATTICE_STEP_M,
        ),
    );
    Deployment::from_positions(&positions, LATTICE_TX_POWER_DBM, region)
        .expect("a lattice has at least one node with contiguous ids")
}

/// `links` endpoint-disjoint horizontal unit-demand links (one per column
/// pair per row) on a roughly square jittered lattice, with streamed gains.
fn lattice_link_set(
    links: usize,
    channels: usize,
    rng: &mut ChaCha8Rng,
    fingerprint: &mut Fnv64,
    timings: &mut SetupTimings,
) -> (RadioEnvironment, LinkDemands) {
    let columns = ((2.0 * links as f64).sqrt().ceil() as usize).next_multiple_of(2);
    let rows = links.div_ceil(columns / 2);
    let deployment = timed(&mut timings.deploy_s, || {
        jittered_lattice(columns, rows, rng)
    });
    fingerprint.deployment(&deployment);
    let env = timed(&mut timings.env_build_s, || {
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(PATH_LOSS_EXPONENT))
            .config(RadioConfig::mesh_default().with_channel_count(channels))
            .streamed_gains()
            .build(&deployment)
    });
    let link_list: Vec<(Link, u64)> = (0..rows)
        .flat_map(|row| {
            (0..columns / 2).map(move |pair| {
                let tail = (row * columns + 2 * pair) as u32;
                (Link::new(NodeId::new(tail + 1), NodeId::new(tail)), 1)
            })
        })
        .take(links)
        .collect();
    let demands = LinkDemands::from_links(deployment.len(), &link_list)
        .expect("lattice links are distinct and in range");
    fingerprint.link_demands(&demands);
    (env, demands)
}

/// `count` distinct indices below `len`, in draw order.
fn sample_indices(len: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..len).collect();
    let count = count.min(len);
    for i in 0..count {
        let j = rng.gen_range(i..len);
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

fn generate_lattice(
    spec: &LatticeSpec,
    seed: u64,
    fingerprint: &mut Fnv64,
    timings: &mut SetupTimings,
) -> Lattice {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (env, demands) = lattice_link_set(spec.links, 1, &mut rng, fingerprint, timings);
    let (c2_env, c2_demands) = lattice_link_set(spec.c2_links, 2, &mut rng, fingerprint, timings);

    // The failure: each dead link's demand moves onto a surviving link.
    let all: Vec<(Link, u64)> = demands.demanded_links().collect();
    let dead = sample_indices(all.len(), spec.failed_links, &mut rng);
    let mut target: Vec<(Link, u64)> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .map(|(_, &entry)| entry)
        .collect();
    for &index in &dead {
        let heir = rng.gen_range(0..target.len());
        target[heir].1 += all[index].1;
    }
    let repair_target = LinkDemands::from_links(demands.node_count(), &target)
        .expect("surviving links are distinct and in range");
    fingerprint.link_demands(&repair_target);

    Lattice {
        env,
        demands,
        c2_env,
        c2_demands,
        repair_target,
    }
}

fn mesh_deployment(spec: &MeshSpec, rng: &mut ChaCha8Rng) -> Deployment {
    let side = (spec.nodes as f64).sqrt().round() as usize;
    match spec.family {
        MeshFamily::LatticePatch => jittered_lattice(side, side, rng),
        MeshFamily::PlannedGrid => {
            let area_m2 = density_to_area_m2(spec.nodes, PAPER_DENSITY_PER_KM2);
            GridDeployment::new(side, side, (area_m2 / spec.nodes as f64).sqrt())
                .tx_power_dbm(PAPER_TX_POWER_DBM)
                .build()
        }
        MeshFamily::UnplannedUniform => {
            let area_m2 = density_to_area_m2(spec.nodes, PAPER_DENSITY_PER_KM2);
            UniformDeployment::new(spec.nodes, area_m2.sqrt())
                .tx_power_dbm(PAPER_TX_POWER_DBM)
                .heterogeneous_power(PAPER_POWER_SPREAD_DB)
                .build(rng)
        }
    }
}

fn mesh_environment(
    spec: &MeshSpec,
    deployment: &Deployment,
    draw_seed: u64,
    channels: usize,
) -> RadioEnvironment {
    let builder =
        RadioEnvironment::builder().propagation(PropagationModel::log_distance(PATH_LOSS_EXPONENT));
    match spec.family {
        MeshFamily::LatticePatch => builder
            .config(RadioConfig::mesh_default().with_channel_count(channels))
            .build(deployment),
        MeshFamily::PlannedGrid | MeshFamily::UnplannedUniform => builder
            .shadowing(PAPER_SHADOWING_SIGMA_DB, draw_seed)
            .config(
                RadioConfig::mesh_default()
                    .with_sinr_threshold_db(PAPER_SINR_THRESHOLD_DB)
                    .with_channel_count(channels),
            )
            .build(deployment),
    }
}

/// Per-node demands with the paper's U[1, 10] marginal, stratified: every
/// value is used equally often and the draw only decides which node gets
/// which. Total offered demand — and with it frame length and protocol time —
/// then varies from seed to seed with the topology, not with the luck of the
/// demand draw. Gateways sink traffic and demand nothing.
fn stratified_demands(nodes: usize, gateways: &[NodeId], rng: &mut ChaCha8Rng) -> DemandVector {
    let DemandConfig { min, max } = DemandConfig::PAPER;
    let sources = nodes - gateways.len();
    let mut values: Vec<u32> = (0..sources as u32)
        .map(|i| min + i % (max - min + 1))
        .collect();
    for i in (1..values.len()).rev() {
        values.swap(i, rng.gen_range(0..=i));
    }
    let mut values = values.into_iter();
    DemandVector::from_vec(
        (0..nodes as u32)
            .map(|node| {
                if gateways.contains(&NodeId::new(node)) {
                    0
                } else {
                    values.next().expect("one value per source")
                }
            })
            .collect(),
    )
}

/// Demands of `demands` with every node in `cut` silenced.
fn without_cut_off(demands: &DemandVector, cut: &[NodeId]) -> DemandVector {
    let mut values = demands.as_slice().to_vec();
    for node in cut {
        values[node.index()] = 0;
    }
    DemandVector::from_vec(values)
}

/// Draws one mesh, perturbing the draw (never the parameters) until the SINR
/// communication graph is connected and the sensitivity graph has a finite
/// interference diameter, as the paper's analysis assumes.
fn generate_mesh(
    spec: &MeshSpec,
    failed_links: usize,
    seed: u64,
    fingerprint: &mut Fnv64,
    timings: &mut SetupTimings,
) -> Mesh {
    for attempt in 0..64u64 {
        let draw_seed = seed.wrapping_add(attempt.wrapping_mul(0x9e37));
        let mut rng = ChaCha8Rng::seed_from_u64(draw_seed);
        let deployment = timed(&mut timings.deploy_s, || mesh_deployment(spec, &mut rng));
        let env = timed(&mut timings.env_build_s, || {
            mesh_environment(spec, &deployment, draw_seed, 1)
        });
        let graph = timed(&mut timings.comm_graph_s, || env.communication_graph());
        if !graph.is_connected() {
            continue;
        }
        let interference_diameter = timed(&mut timings.interference_diameter_s, || {
            env.interference_diameter()
        });
        if interference_diameter == usize::MAX {
            continue;
        }
        let mut gateways = deployment.corner_nodes();
        gateways.truncate(PAPER_GATEWAYS);
        let forest = timed(&mut timings.routing_s, || {
            RoutingForest::shortest_path(&graph, &gateways, draw_seed)
        })
        .expect("a connected graph routes every node to a gateway");
        let node_demands = stratified_demands(deployment.len(), &gateways, &mut rng);
        let link_demands = timed(&mut timings.demand_aggregate_s, || {
            LinkDemands::aggregate(&forest, &node_demands)
        })
        .expect("the demand vector covers the forest");
        let c2_env = timed(&mut timings.env_build_s, || {
            mesh_environment(spec, &deployment, draw_seed, 2)
        });

        // The failure: tree links die and demands are rerouted around them.
        let tree: Vec<Link> = forest.tree_edges().collect();
        let dead = sample_indices(tree.len(), failed_links, &mut rng);
        let pruned = graph.without_edges(dead.iter().map(|&i| (tree[i].head, tree[i].tail)));
        let (rerouted, cut) = timed(&mut timings.routing_s, || {
            RoutingForest::shortest_path_partial(&pruned, &gateways, draw_seed)
        })
        .expect("the gateway set is unchanged");
        let repair_target = timed(&mut timings.demand_aggregate_s, || {
            LinkDemands::aggregate(&rerouted, &without_cut_off(&node_demands, &cut))
        })
        .expect("the demand vector covers the rerouted forest");

        fingerprint.u64(draw_seed);
        fingerprint.deployment(&deployment);
        for &gateway in &gateways {
            fingerprint.u64(u64::from(gateway.0));
        }
        for &demand in node_demands.as_slice() {
            fingerprint.u64(u64::from(demand));
        }
        fingerprint.link_demands(&link_demands);
        fingerprint.link_demands(&repair_target);

        return Mesh {
            env,
            c2_env,
            gateways,
            forest,
            node_demands,
            link_demands,
            repair_target,
            interference_diameter,
            draw_seed,
        };
    }
    panic!(
        "no connected {:?} mesh of {} nodes in 64 draws from seed {seed}",
        spec.family, spec.nodes
    );
}

fn generate_churn(spec: &ChurnSpec, mesh: &Mesh, seed: u64) -> ChurnInput {
    let harness = ResilienceHarness::new(
        mesh.env.clone(),
        mesh.gateways.clone(),
        mesh.node_demands.clone(),
        spec.rho,
    );
    // A one-slot fault-free run reports the length of the pre-fault frame
    // the harness builds, which the trace's horizon is a multiple of.
    let frame_slots = harness
        .run(&ChurnTrace::default(), 1, mesh.draw_seed)
        .expect("a connected mesh with positive demands offers traffic")
        .frame_slots_initial;
    let horizon_slots = spec.horizon_frames * frame_slots;
    let links: Vec<Link> = mesh.forest.tree_edges().collect();
    let nodes: Vec<NodeId> = (0..mesh.env.node_count() as u32)
        .map(NodeId::new)
        .filter(|&node| !mesh.forest.is_gateway(node))
        .collect();
    let config = ChurnConfig {
        horizon_slots,
        link_failures: spec.link_outages,
        node_failures: spec.node_outages,
        flow_churns: spec.flow_churns,
        fades: spec.fades,
        mean_outage_slots: horizon_slots as f64 * CHURN_MEAN_OUTAGE_SHARE,
        fade_sigma_db: CHURN_FADE_SIGMA_DB,
    };
    let trace = FaultPlan::new()
        .random_churn(config, &links, &nodes, seed)
        .build();
    ChurnInput {
        harness,
        trace,
        horizon_slots,
        run_seed: mesh.draw_seed,
    }
}

impl World {
    pub fn generate(spec: &Spec, seed: u64) -> World {
        let start = Instant::now();
        let mut timings = SetupTimings::default();
        let mut fingerprint = Fnv64::new();
        let lattice = generate_lattice(&spec.lattice, mix(seed, 1), &mut fingerprint, &mut timings);
        let meshes: Vec<Mesh> = spec
            .meshes
            .iter()
            .zip(2u64..)
            .map(|(mesh, stream)| {
                generate_mesh(
                    mesh,
                    spec.mesh_failed_links,
                    mix(seed, stream),
                    &mut fingerprint,
                    &mut timings,
                )
            })
            .collect();
        let churn = generate_churn(&spec.churn, &meshes[0], mix(seed, 0));
        fingerprint.u64(churn.horizon_slots);
        fingerprint.trace(&churn.trace);
        timings.total_s = start.elapsed().as_secs_f64();
        World {
            lattice,
            meshes,
            churn,
            fingerprint: fingerprint.0,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_distinct_and_findable() {
        for spec in &WORKLOADS {
            assert_eq!(find(spec.name).map(|s| s.name), Some(spec.name));
            assert!(spec.why.len() <= 200, "{}: why is too long", spec.name);
            assert!(!spec.meshes.is_empty());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        for spec in &WORKLOADS {
            let a = World::generate(spec, 7);
            let b = World::generate(spec, 7);
            let c = World::generate(spec, 8);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", spec.name);
            assert_ne!(a.fingerprint, c.fingerprint, "{}", spec.name);
            assert_eq!(a.churn.trace, b.churn.trace, "{}", spec.name);
        }
    }

    /// The inputs of seeds 1 and 2, pinned: a refactor anywhere below the
    /// generators (deployment builders, routing tie-breaks, the RNG shims)
    /// that changes what the benchmark measures fails here, not silently in
    /// the numbers. (`BENCHMARK.json` admits no extra keys, so the pins live
    /// with the generators.)
    #[test]
    fn the_inputs_of_seeds_1_and_2_are_pinned() {
        let pinned: [(&str, [u64; 2]); 4] = [
            ("grid8k", [0x8da5_437c_927d_4596, 0x6740_8a60_287e_ae5b]),
            ("proto144", [0x71e0_3495_d543_8c22, 0xe1d1_6788_a6b2_4b92]),
            (
                "mesh_traffic",
                [0x0f07_a7a7_7a96_9ac1, 0xc62b_5fdc_79e5_a83f],
            ),
            ("churn196", [0x3ce3_23e3_8c9d_91eb, 0xa0fb_aff3_df32_d4e0]),
        ];
        for (name, fingerprints) in pinned {
            let spec = find(name).expect("a pinned workload exists");
            for (seed, fingerprint) in (1..).zip(fingerprints) {
                assert_eq!(
                    World::generate(spec, seed).fingerprint,
                    fingerprint,
                    "{name}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn lattice_links_are_endpoint_disjoint_and_the_failure_keeps_total_demand() {
        let spec = find("grid8k").expect("the lattice workload exists");
        let lattice_spec = spec.lattice;
        let lattice = World::generate(spec, 1).lattice;
        assert!(lattice.env.is_streamed());
        assert_eq!(lattice.c2_env.channel_count(), 2);
        assert_eq!(lattice.demands.demanded_links().count(), lattice_spec.links);
        let mut endpoints: Vec<NodeId> = lattice
            .demands
            .demanded_links()
            .flat_map(|(link, _)| [link.head, link.tail])
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), 2 * lattice_spec.links);
        assert_eq!(
            lattice.repair_target.demanded_links().count(),
            lattice_spec.links - lattice_spec.failed_links
        );
        assert_eq!(
            lattice.repair_target.total_demand(),
            lattice.demands.total_demand()
        );
    }

    #[test]
    fn meshes_are_connected_routed_and_rerouted_around_the_failure() {
        for spec in &WORKLOADS {
            let world = World::generate(spec, 2);
            for mesh in &world.meshes {
                assert!(mesh.env.communication_graph().is_connected());
                assert_eq!(mesh.gateways.len(), PAPER_GATEWAYS);
                assert_eq!(mesh.c2_env.channel_count(), 2);
                assert!(mesh.link_demands.total_demand() > 0);
                assert_ne!(mesh.repair_target, mesh.link_demands, "{}", spec.name);
            }
            assert!(!world.churn.trace.is_empty());
            assert!(world.churn.trace.last_slot() < Some(world.churn.horizon_slots));
        }
    }
}
