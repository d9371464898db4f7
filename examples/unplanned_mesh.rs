//! The unplanned scenario of the paper's Figure 7: 64 mesh routers dropped
//! uniformly at random with heterogeneous transmit powers, 4 gateways, and
//! traffic routed along a shortest-path forest.
//!
//! The example highlights two things the planned grid hides:
//!
//! * heterogeneous powers create *unidirectional* links, which the
//!   communication graph discards because link-layer ACKs are required;
//! * the randomized PDD protocol's schedule quality depends on its activation
//!   probability, while FDD remains glued to the centralized baseline.
//!
//! Run with: `cargo run --release --example unplanned_mesh`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream::prelude::*;
use scream::protocols::ProtocolKind;

fn main() {
    let seed = 11u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // 64 routers uniform in a 700 m x 700 m area, mean 10 dBm with a 6 dB
    // spread (the paper's "heterogeneous transmission power").
    let mut deployment = UniformDeployment::new(64, 700.0)
        .tx_power_dbm(12.0)
        .heterogeneous_power(6.0)
        .build(&mut rng);

    // Retry the draw until the SINR communication graph is connected.
    let env = loop {
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(RadioConfig::mesh_default().with_sinr_threshold_db(6.0))
            .build(&deployment);
        if env.communication_graph().is_connected() {
            break env;
        }
        deployment = UniformDeployment::new(64, 700.0)
            .tx_power_dbm(12.0)
            .heterogeneous_power(6.0)
            .build(&mut rng);
    };
    let graph = env.communication_graph();

    // How asymmetric did the heterogeneous powers make the physical layer?
    // A lone link's two margins are its data (u -> v) and ACK (v -> u)
    // directions over the noise floor: one-way when exactly one clears β.
    let mut one_way = 0usize;
    for u in deployment.node_ids() {
        for v in deployment.node_ids() {
            if u < v {
                let lone = SlotLedger::with_links(&env, &[Link::new(u, v)]).margins()[0];
                if (lone.data_margin_db >= Db::new(0.0)) != (lone.ack_margin_db >= Db::new(0.0)) {
                    one_way += 1;
                }
            }
        }
    }
    println!(
        "unplanned deployment: {} nodes, {} bidirectional links, {} one-way links discarded, ID(G_S) = {}",
        deployment.len(),
        graph.edge_count(),
        one_way,
        env.interference_diameter()
    );

    let gateways = deployment.corner_nodes();
    let forest = RoutingForest::shortest_path(&graph, &gateways, seed).expect("connected");
    let demands =
        DemandVector::generate(deployment.len(), DemandConfig::PAPER, &gateways, &mut rng);
    let link_demands = LinkDemands::aggregate(&forest, &demands).expect("sizes match");
    println!(
        "routing forest: {} gateways, max depth {}, total demand {}",
        gateways.len(),
        forest.max_depth(),
        link_demands.total_demand()
    );

    let config = ProtocolConfig::paper_default()
        .with_scream_slots(env.interference_diameter().max(5))
        .with_seed(seed);
    let centralized = GreedyPhysical::paper_baseline().schedule(&env, &link_demands);
    verify_schedule(&env, &centralized, &link_demands).expect("centralized valid");
    println!(
        "centralized GreedyPhysical: {}",
        ScheduleMetrics::compute(&centralized, &link_demands)
    );

    for kind in [
        ProtocolKind::Fdd,
        ProtocolKind::pdd_unchecked(0.8),
        ProtocolKind::pdd_unchecked(0.2),
    ] {
        let run = DistributedScheduler::new(kind, config)
            .run(&env, &link_demands)
            .expect("protocol completes");
        verify_schedule(&env, &run.schedule, &link_demands).expect("schedule valid");
        println!(
            "{:<12} {}  ({} rounds, {:.2}s of protocol execution)",
            kind.name(),
            ScheduleMetrics::compute(&run.schedule, &link_demands),
            run.stats.rounds,
            run.execution_secs()
        );
        if kind == ProtocolKind::Fdd {
            assert_eq!(
                run.schedule, centralized,
                "Theorem 4: FDD == GreedyPhysical"
            );
        }
    }
}
