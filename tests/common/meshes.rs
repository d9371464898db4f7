//! The seeded meshes the integration suites build and hand to the
//! [`Oracle`]: planned grids and lines (one with streamed gains), the
//! σ = 4 dB and the heterogeneous-power unplanned meshes, and paper-scenario
//! instances with the oracle over their shadowing draws.
#![allow(dead_code, reason = "each suite uses the meshes it judges")]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scream::netsim::ShadowingField;
use scream::prelude::*;
use scream_bench::{PaperScenario, ScenarioInstance};

use super::oracle::Oracle;

/// One deployment, its radio environment and the oracle of both.
pub struct Mesh {
    pub label: String,
    pub deployment: Deployment,
    pub env: RadioEnvironment,
    pub oracle: Oracle,
}

impl Mesh {
    /// A `cols × rows` planned grid at `step_m`: α = 3, homogeneous power,
    /// no shadowing. One row is a line.
    pub fn planned(cols: usize, rows: usize, step_m: f64) -> Self {
        let deployment = GridDeployment::new(cols, rows, step_m).build();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(&deployment);
        let oracle = Oracle::unshadowed(&deployment, env.config());
        Self {
            label: format!("{cols}x{rows} grid at {step_m} m"),
            deployment,
            env,
            oracle,
        }
    }

    /// [`planned`](Self::planned) with streamed gains: no matrix, every gain
    /// evaluated from the squared node distance on demand.
    pub fn planned_streamed(cols: usize, rows: usize, step_m: f64) -> Self {
        let mut mesh = Self::planned(cols, rows, step_m);
        mesh.env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .streamed_gains()
            .build(&mesh.deployment);
        mesh.label += ", streamed gains";
        mesh
    }

    /// 36 nodes placed uniformly over 800 m × 800 m, transmit power drawn
    /// from 16 ± 4 dBm, no shadowing: the first draw from seed 31 whose
    /// SINR communication graph is connected, searching at most `DRAWS`
    /// draws whose unit-disk graph at 200 m is (the 100th is). The
    /// unit-disk check alone does not give it: the weakest transmitter
    /// reaches only about 117 m at β over the noise floor.
    pub fn unplanned_heterogeneous() -> Self {
        const DRAWS: usize = 200;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let placement = UniformDeployment::new(36, 800.0)
            .tx_power_dbm(16.0)
            .heterogeneous_power(8.0);
        for draw in 1..=DRAWS {
            let deployment = placement
                .build_connected(&mut rng, Meters::new(200.0), 200)
                .unwrap();
            let env = RadioEnvironment::builder()
                .propagation(PropagationModel::log_distance(3.0))
                .build(&deployment);
            if env.communication_graph().is_connected() {
                let oracle = Oracle::unshadowed(&deployment, env.config());
                return Self {
                    label: format!("36-node heterogeneous-power mesh, draw {draw} of seed 31"),
                    deployment,
                    env,
                    oracle,
                };
            }
        }
        panic!("none of {DRAWS} draws from seed 31 has a connected SINR graph");
    }

    /// 25 nodes placed uniformly over 700 m × 700 m, transmit power spread
    /// over 6 dB, σ = 4 dB shadowing, seed 21.
    pub fn unplanned_shadowed() -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let deployment = UniformDeployment::new(25, 700.0)
            .heterogeneous_power(6.0)
            .build_connected(&mut rng, Meters::new(180.0), 100)
            .unwrap();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(4.0, 21)
            .build(&deployment);
        let shadowing = ShadowingField::generate(deployment.len(), Db::new(4.0), 21);
        let oracle = Oracle::new(&deployment, env.config(), shadowing);
        Self {
            label: "25-node unplanned mesh, σ = 4 dB".to_string(),
            deployment,
            env,
            oracle,
        }
    }

    /// `scenario` instantiated at `seed`.
    pub fn paper(scenario: &PaperScenario, seed: u64) -> Self {
        let instance = scenario.instantiate(seed).unwrap();
        let oracle = paper_oracle(scenario, &instance);
        Self {
            label: format!(
                "{:?} at {} nodes/km², seed {seed}",
                scenario.topology, scenario.density_per_km2
            ),
            deployment: instance.deployment,
            env: instance.env,
            oracle,
        }
    }
}

/// The oracle of a paper-scenario instance: the scenario's σ drawn at the
/// instance's own seed, which a disconnected first draw moves.
pub fn paper_oracle(scenario: &PaperScenario, instance: &ScenarioInstance) -> Oracle {
    let shadowing = ShadowingField::generate(
        instance.deployment.len(),
        scenario.shadowing_sigma_db,
        instance.seed,
    );
    Oracle::new(&instance.deployment, instance.env.config(), shadowing)
}

/// The ten meshes the SCREAM oracle suite runs over: three planned grids, a
/// streamed-gain 8×8 grid, the shadowed and the heterogeneous-power
/// unplanned meshes, and two planned and two unplanned 64-node paper
/// instances.
pub fn scream_meshes() -> Vec<Mesh> {
    vec![
        Mesh::planned(4, 4, 150.0),
        Mesh::planned(5, 5, 140.0),
        Mesh::planned(6, 6, 130.0),
        Mesh::planned_streamed(8, 8, 150.0),
        Mesh::unplanned_shadowed(),
        Mesh::unplanned_heterogeneous(),
        Mesh::paper(&PaperScenario::grid(2_000.0), 1),
        Mesh::paper(&PaperScenario::grid(4_000.0), 2),
        Mesh::paper(&PaperScenario::uniform(3_000.0), 3),
        Mesh::paper(&PaperScenario::uniform(10_000.0), 5),
    ]
}
