//! The seeded meshes the integration suites build and hand to the
//! [`Oracle`]: planned grids and lines, the σ = 4 dB unplanned mesh, and
//! paper-scenario instances with the oracle over their shadowing draws.
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

/// The eight meshes the SCREAM oracle suite runs over: three planned grids,
/// the shadowed unplanned mesh, and two planned and two unplanned 64-node
/// paper instances.
pub fn scream_meshes() -> Vec<Mesh> {
    vec![
        Mesh::planned(4, 4, 150.0),
        Mesh::planned(5, 5, 140.0),
        Mesh::planned(6, 6, 130.0),
        Mesh::unplanned_shadowed(),
        Mesh::paper(&PaperScenario::grid(2_000.0), 1),
        Mesh::paper(&PaperScenario::grid(4_000.0), 2),
        Mesh::paper(&PaperScenario::uniform(3_000.0), 3),
        Mesh::paper(&PaperScenario::uniform(10_000.0), 5),
    ]
}
