//! Time-complexity accounting for FDD (Theorem 5).
//!
//! Theorem 5 bounds FDD's running time by `O(TD · ID(G) · n · log n)`
//! synchronized steps: at most `TD` rounds, each needing at most `n` active
//! trials, each trial costing a leader election of `ID(G) · log n` slots.
//! This module measures the actual number of synchronized steps of real runs
//! and relates them to the bound, giving the empirical counterpart of the
//! theorem (and the data for the `theory_complexity` binary).

use serde::{Deserialize, Serialize};

use scream_core::ProtocolKind;
use scream_topology::{GridDeployment, Meters};

use crate::instance::{AnalysisError, Instance};

/// Measured step counts of one protocol run, next to the Theorem 5 bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComplexityObservation {
    /// Protocol variant that was run.
    pub protocol: String,
    /// Number of nodes `n`.
    pub node_count: usize,
    /// Total traffic demand `TD`.
    pub total_demand: u64,
    /// Interference diameter `ID(G)` used to size the SCREAM primitive.
    pub interference_diameter: usize,
    /// Total synchronized steps (SCREAM slots + handshake slots + barriers)
    /// the run executed.
    pub measured_steps: u64,
    /// The Theorem 5 bound `TD · ID(G) · n · log2(n)` evaluated for this
    /// instance.
    pub theorem_bound: f64,
}

impl ComplexityObservation {
    /// Ratio of measured steps to the bound; Theorem 5 promises this is `O(1)`
    /// (in practice far below 1 because most rounds finish early).
    pub fn utilization_of_bound(&self) -> f64 {
        // Exact-zero guard: any nonzero bound is safe to divide by.
        if self.theorem_bound == 0.0 {
            0.0
        } else {
            self.measured_steps as f64 / self.theorem_bound
        }
    }
}

/// A batch of complexity observations over growing instance sizes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComplexityReport {
    /// One observation per instance.
    pub observations: Vec<ComplexityObservation>,
}

impl ComplexityReport {
    /// Measures FDD (and optionally PDD) on square grids of the given sides.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Disconnected`] if `step` exceeds the radio range,
    /// or whatever routing, demand aggregation or a protocol run refused.
    pub fn on_grids(
        sides: &[usize],
        step: Meters,
        include_pdd: bool,
        seed: u64,
    ) -> Result<Self, AnalysisError> {
        let mut observations = Vec::new();
        for &side in sides {
            let deployment = GridDeployment::new(side, side, step.get()).build();
            let instance = Instance::build(&deployment, &deployment.corner_nodes(), 1, seed)?;
            observations.push(Self::measure(&instance, ProtocolKind::Fdd)?);
            if include_pdd {
                observations.push(Self::measure(&instance, ProtocolKind::pdd(0.6)?)?);
            }
        }
        Ok(Self { observations })
    }

    fn measure(
        instance: &Instance,
        kind: ProtocolKind,
    ) -> Result<ComplexityObservation, AnalysisError> {
        let run = instance.run(kind)?;
        let n = instance.env.node_count();
        let td = instance.link_demands.total_demand();
        let id = instance.interference_diameter;
        let bound = td as f64 * id.max(1) as f64 * n as f64 * (n as f64).log2().max(1.0);
        Ok(ComplexityObservation {
            protocol: match kind {
                ProtocolKind::Fdd => "FDD".to_string(),
                ProtocolKind::Afdd => "AFDD".to_string(),
                ProtocolKind::Pdd { .. } => "PDD".to_string(),
            },
            node_count: n,
            total_demand: td,
            interference_diameter: id,
            measured_steps: run.timing.total_steps(),
            theorem_bound: bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_steps_respect_theorem_5_bound() {
        let report = ComplexityReport::on_grids(&[3, 4], Meters::new(150.0), true, 7).unwrap();
        assert_eq!(report.observations.len(), 4);
        assert!(
            report
                .observations
                .iter()
                .all(|o| o.measured_steps as f64 <= o.theorem_bound),
            "{:#?}",
            report.observations
        );
    }

    #[test]
    fn utilization_is_well_below_one_in_practice() {
        let report = ComplexityReport::on_grids(&[4], Meters::new(150.0), false, 3).unwrap();
        let fdd = &report.observations;
        assert_eq!(fdd.len(), 1);
        assert!(fdd[0].utilization_of_bound() < 0.5);
        assert!(fdd[0].utilization_of_bound() > 0.0);
    }

    #[test]
    fn steps_grow_with_instance_size() {
        let report = ComplexityReport::on_grids(&[3, 5], Meters::new(150.0), false, 11).unwrap();
        let fdd = &report.observations;
        assert!(fdd[1].measured_steps > fdd[0].measured_steps);
        assert!(fdd[1].theorem_bound > fdd[0].theorem_bound);
    }

    #[test]
    fn pdd_executes_fewer_steps_than_fdd() {
        let report = ComplexityReport::on_grids(&[4], Meters::new(150.0), true, 13).unwrap();
        let fdd = report
            .observations
            .iter()
            .find(|o| o.protocol == "FDD")
            .unwrap();
        let pdd = report
            .observations
            .iter()
            .find(|o| o.protocol == "PDD")
            .unwrap();
        assert!(pdd.measured_steps < fdd.measured_steps);
    }

    #[test]
    fn a_grid_step_beyond_radio_range_is_an_error_not_a_panic() {
        assert_eq!(
            ComplexityReport::on_grids(&[3], Meters::new(5_000.0), true, 7),
            Err(AnalysisError::Disconnected)
        );
    }
}
