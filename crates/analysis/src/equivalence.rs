//! FDD ≡ GreedyPhysical equivalence (Theorem 4).
//!
//! The approximation bound of the paper is inherited from the centralized
//! GreedyPhysical algorithm through a structural argument: FDD, run to
//! completion, produces exactly the schedule GreedyPhysical produces when it
//! considers edges in decreasing order of their head node's id. This module
//! provides a harness that checks the equivalence instance-by-instance and
//! summarizes the comparison (including how far PDD strays from the common
//! schedule), which is also what the `theory_complexity` and figure binaries
//! report.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scream_core::ProtocolKind;
use scream_scheduling::{verify_schedule, EdgeOrdering, GreedyPhysical};
use scream_topology::{Deployment, GridDeployment, Meters, UniformDeployment};

use crate::instance::{AnalysisError, Instance};

/// Outcome of comparing FDD against GreedyPhysical on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceOutcome {
    /// Number of orthogonal channels both schedulers ran with (1 is the
    /// paper's single shared channel).
    pub(crate) channel_count: usize,
    /// Total traffic demand of the instance.
    pub(crate) total_demand: u64,
    /// Length of the centralized GreedyPhysical schedule.
    pub(crate) centralized_length: usize,
    /// Length of the FDD schedule.
    pub(crate) fdd_length: usize,
    /// Whether the two schedules are identical slot-by-slot.
    pub identical: bool,
    /// Whether both schedules passed feasibility + demand verification.
    pub(crate) both_valid: bool,
}

/// Aggregated result over a batch of random instances.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EquivalenceReport {
    /// Per-instance outcomes.
    pub outcomes: Vec<EquivalenceOutcome>,
}

impl EquivalenceReport {
    /// Checks the equivalence on `instances` random grid instances of
    /// `side × side` nodes (seeded deterministically from `base_seed`), both
    /// FDD and GreedyPhysical running with `channel_count` orthogonal
    /// channels (1 is the paper's single shared channel). The structural
    /// argument survives the channel dimension — FDD's channel-assignment
    /// phase first-fits exactly like the centralized `(slot, channel)` scan —
    /// so the schedules must stay identical, channel tags included.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Disconnected`] if `step` exceeds the radio range,
    /// or whatever routing, demand aggregation or the FDD run refused.
    pub fn on_grid_instances(
        side: usize,
        step: Meters,
        instances: usize,
        base_seed: u64,
        channel_count: usize,
    ) -> Result<Self, AnalysisError> {
        let deployment = GridDeployment::new(side, side, step.get()).build();
        let outcomes = (0..instances)
            .map(|i| Self::compare(&deployment, base_seed + i as u64, channel_count))
            .collect::<Result<_, _>>()?;
        Ok(Self { outcomes })
    }

    /// The unplanned-topology variant: `instances` random uniform draws with
    /// heterogeneous transmit power. A draw whose SINR communication graph
    /// is disconnected (possible with heterogeneous power, where one-way
    /// links are discarded) admits no routing forest covering every node and
    /// is skipped, so the report may hold fewer than `instances` outcomes.
    ///
    /// # Errors
    ///
    /// Whatever routing, demand aggregation or the FDD run refused on a
    /// connected draw.
    pub fn on_uniform_instances(
        node_count: usize,
        region_side: Meters,
        instances: usize,
        base_seed: u64,
        channel_count: usize,
    ) -> Result<Self, AnalysisError> {
        let mut outcomes = Vec::new();
        for i in 0..instances {
            let seed = base_seed + i as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let outcome = UniformDeployment::new(node_count, region_side.get())
                .heterogeneous_power(6.0)
                .build_connected(&mut rng, Meters::new(region_side.get() / 4.0), 100)
                .map_err(AnalysisError::from)
                .and_then(|deployment| Self::compare(&deployment, seed, channel_count));
            match outcome {
                Ok(outcome) => outcomes.push(outcome),
                Err(AnalysisError::Disconnected) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Self { outcomes })
    }

    /// Runs the comparison on one deployment.
    fn compare(
        deployment: &Deployment,
        seed: u64,
        channel_count: usize,
    ) -> Result<EquivalenceOutcome, AnalysisError> {
        let gateways = [deployment.corner_nodes()[0]];
        let instance = Instance::build(deployment, &gateways, channel_count, seed)?;
        let (env, link_demands) = (&instance.env, &instance.link_demands);

        let centralized =
            GreedyPhysical::new(EdgeOrdering::DecreasingHeadId).schedule(env, link_demands);
        let fdd = instance.run(ProtocolKind::Fdd)?;

        let both_valid = verify_schedule(env, &centralized, link_demands).is_ok()
            && verify_schedule(env, &fdd.schedule, link_demands).is_ok();
        Ok(EquivalenceOutcome {
            channel_count,
            total_demand: link_demands.total_demand(),
            centralized_length: centralized.length(),
            fdd_length: fdd.schedule.length(),
            identical: fdd.schedule == centralized,
            both_valid,
        })
    }

    /// Fraction of instances on which the schedules were identical.
    pub fn equivalence_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.identical).count() as f64 / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdd_equals_greedy_physical_on_grid_instances() {
        let report = EquivalenceReport::on_grid_instances(4, Meters::new(150.0), 3, 10, 1).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(
            report.outcomes.iter().all(|o| o.identical && o.both_valid),
            "outcomes: {:?}",
            report.outcomes
        );
        assert_eq!(report.equivalence_rate(), 1.0);
    }

    #[test]
    fn fdd_equals_greedy_physical_on_unplanned_instances() {
        let report =
            EquivalenceReport::on_uniform_instances(16, Meters::new(600.0), 3, 42, 1).unwrap();
        assert!(!report.outcomes.is_empty());
        assert!(
            report.outcomes.iter().all(|o| o.identical && o.both_valid),
            "outcomes: {:?}",
            report.outcomes
        );
        assert!(report.outcomes.iter().all(|o| o.channel_count == 1));
    }

    #[test]
    fn channel_aware_fdd_equals_channel_aware_greedy_physical() {
        // Theorem 4, extended by the channel dimension: the distributed
        // channel-assignment phase makes the same (slot, channel) first-fit
        // decisions as the centralized scan, so the equivalence survives at
        // every channel count.
        for channels in [2usize, 4] {
            let report =
                EquivalenceReport::on_grid_instances(4, Meters::new(150.0), 2, 21, channels)
                    .unwrap();
            assert_eq!(report.outcomes.len(), 2);
            assert!(
                report.outcomes.iter().all(|o| o.identical && o.both_valid),
                "C = {channels} outcomes: {:?}",
                report.outcomes
            );
            assert!(report.outcomes.iter().all(|o| o.channel_count == channels));
        }
        let unplanned =
            EquivalenceReport::on_uniform_instances(16, Meters::new(600.0), 2, 42, 2).unwrap();
        assert!(!unplanned.outcomes.is_empty());
        assert!(
            unplanned
                .outcomes
                .iter()
                .all(|o| o.identical && o.both_valid),
            "{:?}",
            unplanned.outcomes
        );
    }

    #[test]
    fn multi_channel_instances_never_schedule_longer_than_single_channel() {
        let single = EquivalenceReport::on_grid_instances(4, Meters::new(150.0), 2, 33, 1).unwrap();
        let dual = EquivalenceReport::on_grid_instances(4, Meters::new(150.0), 2, 33, 2).unwrap();
        for (s, d) in single.outcomes.iter().zip(&dual.outcomes) {
            assert_eq!(s.total_demand, d.total_demand);
            assert!(d.centralized_length <= s.centralized_length);
            assert!(d.fdd_length <= s.fdd_length);
        }
    }

    #[test]
    fn a_grid_step_beyond_radio_range_is_an_error_not_a_panic() {
        assert_eq!(
            EquivalenceReport::on_grid_instances(3, Meters::new(5_000.0), 2, 5, 1),
            Err(AnalysisError::Disconnected)
        );
    }

    #[test]
    fn empty_report_is_not_vacuously_equivalent() {
        assert_eq!(EquivalenceReport::default().equivalence_rate(), 0.0);
    }
}
