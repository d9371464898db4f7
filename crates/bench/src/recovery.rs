//! Fault-injection recovery experiments on the paper scenario: the
//! `recovery_vs_load` figure data and its CSV/table exports.
//!
//! Each point runs the **same seeded single-link failure** twice on one
//! [`PaperScenario`] instance — once with the no-repair baseline (the
//! outage just strands packets) and once with the full rescheduler
//! (reroute + incremental frame repair + admission control) — and records
//! the graceful-degradation headline numbers side by side: delivery during
//! the outage, time-to-recover, repair counts and the final stability
//! verdict. The failed link is always the *busiest uplink* (the tree edge
//! under the largest routing subtree), the worst single-link case short of
//! partition.

use scream_netsim::RadioEnvironment;
use scream_resilience::{
    FaultPlan, ReschedulerConfig, ResilienceError, ResilienceHarness, ResilienceReport,
};
use scream_topology::{DemandVector, Link, NodeId, RoutingForest};

use crate::error::BenchError;
use crate::report::Table;
use crate::scenario::{PaperScenario, ScenarioInstance};

/// One paper-scenario world prepared for fault-injection runs: the radio
/// environment, gateways and per-node demands of a [`ScenarioInstance`],
/// plus the seed that reproduces its routing and arrivals.
#[derive(Debug, Clone)]
pub struct RecoveryExperiment {
    env: RadioEnvironment,
    gateways: Vec<NodeId>,
    demands: DemandVector,
    seed: u64,
}

impl RecoveryExperiment {
    /// Prepares the experiment from a drawn scenario instance.
    pub fn from_instance(instance: &ScenarioInstance) -> Self {
        let gateways = (0..instance.deployment.len() as u32)
            .map(NodeId::new)
            .filter(|&v| instance.forest.is_gateway(v))
            .collect();
        Self {
            env: instance.env.clone(),
            gateways,
            demands: instance.demands.clone(),
            seed: instance.seed,
        }
    }

    /// The link the experiment fails: the uplink of the non-gateway node
    /// with the largest routing subtree under the harness's own forest —
    /// the single-link failure that strands the most traffic. A world whose
    /// every reachable node is a gateway has no such link and no traffic
    /// sources either, which is the error it reports.
    pub fn failed_link(&self) -> Result<Link, BenchError> {
        let graph = self.env.communication_graph();
        let (forest, _) = RoutingForest::shortest_path_partial(&graph, &self.gateways, self.seed)?;
        (0..forest.node_count() as u32)
            .map(NodeId::new)
            .filter(|&v| !forest.is_gateway(v) && forest.is_reachable(v))
            .max_by_key(|&v| (forest.subtree(v).len(), std::cmp::Reverse(v)))
            .and_then(|v| forest.link_of(v))
            .ok_or(BenchError::Traffic(ResilienceError::NoSources))
    }

    /// A harness over this world at load factor `rho`.
    pub fn harness(&self, rho: f64) -> ResilienceHarness {
        ResilienceHarness::new(
            self.env.clone(),
            self.gateways.clone(),
            self.demands.clone(),
            rho,
        )
    }

    /// The initial (pre-fault) frame length at load `rho`, from a one-slot
    /// probe run.
    pub fn initial_frame_slots(&self, rho: f64) -> Result<u64, BenchError> {
        let probe = self
            .harness(rho)
            .run(&FaultPlan::new().build(), 1, self.seed)?;
        Ok(probe.frame_slots_initial)
    }

    /// Runs the busiest-uplink single-link failure at load `rho` over
    /// `horizon_frames` initial-frame repetitions (fault at one quarter of
    /// the horizon), with and without the rescheduler, and returns both
    /// outcomes as one [`RecoveryPoint`].
    pub fn single_link_outage(
        &self,
        rho: f64,
        horizon_frames: u64,
    ) -> Result<RecoveryPoint, BenchError> {
        let frame_slots = self.initial_frame_slots(rho)?;
        let horizon = horizon_frames.max(4) * frame_slots;
        let fault_slot = horizon / 4;
        let trace = FaultPlan::new()
            .link_down(self.failed_link()?, fault_slot)
            .build();
        let repaired = self.harness(rho).run(&trace, horizon, self.seed)?;
        let baseline = self
            .harness(rho)
            .with_config(ReschedulerConfig::baseline())
            .run(&trace, horizon, self.seed)?;
        Ok(RecoveryPoint::from_reports(
            rho, self.seed, fault_slot, &baseline, &repaired,
        ))
    }
}

/// One load point of the recovery figure: the same seeded single-link
/// failure with and without online recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Offered-load factor (per-link utilization of the pre-fault frame).
    pub offered_load: f64,
    /// Instance seed.
    pub seed: u64,
    /// Pre-fault frame length in slots.
    pub frame_slots_initial: u64,
    /// Slot of the injected link failure.
    pub fault_slot: u64,
    /// No-repair baseline: overall delivery percentage.
    pub baseline_delivery_pct: f64,
    /// No-repair baseline: delivery percentage after the fault.
    pub baseline_outage_delivery_pct: f64,
    /// No-repair baseline: analytic verdict at the horizon.
    pub baseline_stable: bool,
    /// Rescheduler: overall delivery percentage.
    pub delivery_pct: f64,
    /// Rescheduler: delivery percentage over the outage window.
    pub outage_delivery_pct: f64,
    /// Rescheduler: sustained delivery percentage after recovery.
    pub post_recovery_delivery_pct: f64,
    /// Rescheduler: slots from the fault to sustained recovery.
    pub time_to_recover_slots: Option<u64>,
    /// Rescheduler: repairs installed.
    pub repairs: usize,
    /// Rescheduler: repairs applied incrementally (vs. full rebuilds).
    pub incremental_repairs: usize,
    /// Rescheduler: peak in-flight backlog (the disruption cost).
    pub disruption_peak_backlog: u64,
    /// Rescheduler: flows still deferred by admission at the horizon.
    pub deferred_flows: usize,
    /// Rescheduler: analytic verdict at the horizon.
    pub stable: bool,
}

impl RecoveryPoint {
    fn from_reports(
        offered_load: f64,
        seed: u64,
        fault_slot: u64,
        baseline: &ResilienceReport,
        repaired: &ResilienceReport,
    ) -> Self {
        Self {
            offered_load,
            seed,
            frame_slots_initial: repaired.frame_slots_initial,
            fault_slot,
            baseline_delivery_pct: baseline.delivery_pct(),
            baseline_outage_delivery_pct: baseline.outage_delivery_pct,
            baseline_stable: baseline.final_verdict_stable,
            delivery_pct: repaired.delivery_pct(),
            outage_delivery_pct: repaired.outage_delivery_pct,
            post_recovery_delivery_pct: repaired.post_recovery_delivery_pct,
            time_to_recover_slots: repaired.time_to_recover_slots,
            repairs: repaired.repairs.len(),
            incremental_repairs: repaired.incremental_repairs(),
            disruption_peak_backlog: repaired.disruption_peak_backlog,
            deferred_flows: repaired.deferred_flows,
            stable: repaired.final_verdict_stable,
        }
    }
}

/// The recovery-vs-load figure data: the busiest-uplink single-link failure
/// on one paper grid instance, swept across offered-load factors.
/// Deterministic per `(node_count, seed)`.
pub fn recovery_vs_load(
    loads: &[f64],
    node_count: usize,
    seed: u64,
    horizon_frames: u64,
) -> Result<Vec<RecoveryPoint>, BenchError> {
    let instance = PaperScenario::grid(2_000.0)
        .with_node_count(node_count)
        .instantiate(seed)?;
    let experiment = RecoveryExperiment::from_instance(&instance);
    loads
        .iter()
        .map(|&rho| experiment.single_link_outage(rho, horizon_frames))
        .collect()
}

/// The collected recovery points, exportable as CSV or an aligned table.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Per-load points in sweep order.
    pub points: Vec<RecoveryPoint>,
}

impl RecoveryReport {
    /// The table's column headers.
    pub const COLUMNS: [&'static str; 16] = [
        "offered_load",
        "seed",
        "frame_slots",
        "fault_slot",
        "base_delivery_pct",
        "base_outage_pct",
        "base_stable",
        "delivery_pct",
        "outage_pct",
        "post_recovery_pct",
        "ttr_slots",
        "repairs",
        "incremental",
        "peak_backlog",
        "deferred",
        "stable",
    ];

    fn row(p: &RecoveryPoint) -> Vec<String> {
        let ttr = match p.time_to_recover_slots {
            // `-1` keeps the CSV numeric; the run never recovered.
            None => "-1".to_string(),
            Some(slots) => slots.to_string(),
        };
        vec![
            format!("{:.2}", p.offered_load),
            p.seed.to_string(),
            p.frame_slots_initial.to_string(),
            p.fault_slot.to_string(),
            format!("{:.2}", p.baseline_delivery_pct),
            format!("{:.2}", p.baseline_outage_delivery_pct),
            u8::from(p.baseline_stable).to_string(),
            format!("{:.2}", p.delivery_pct),
            format!("{:.2}", p.outage_delivery_pct),
            format!("{:.2}", p.post_recovery_delivery_pct),
            ttr,
            p.repairs.to_string(),
            p.incremental_repairs.to_string(),
            p.disruption_peak_backlog.to_string(),
            p.deferred_flows.to_string(),
            u8::from(p.stable).to_string(),
        ]
    }

    /// The points as a [`Table`], one row per point; [`Table::to_csv`] is
    /// its CSV.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(title, &Self::COLUMNS);
        for p in &self.points {
            table.push_row(Self::row(p));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_experiment() -> RecoveryExperiment {
        let instance = PaperScenario::grid(1_500.0)
            .with_node_count(16)
            .instantiate(3)
            .unwrap();
        RecoveryExperiment::from_instance(&instance)
    }

    #[test]
    fn the_rescheduler_beats_the_baseline_on_the_same_failure() {
        let point = small_experiment().single_link_outage(0.7, 40).unwrap();
        assert!(
            !point.baseline_stable,
            "a dead uplink overloads the baseline"
        );
        assert!(point.stable, "the rescheduler reroutes back to Stable");
        assert!(point.repairs >= 1);
        let ttr = point
            .time_to_recover_slots
            .expect("the repair arm recovers");
        assert!(ttr < 30 * point.frame_slots_initial);
        // The denominator counts the backlog carried into the window, so
        // the ratio is <= 100 by construction; the shortfall from 100 is
        // the in-flight pipeline at the horizon, not loss.
        assert!(point.post_recovery_delivery_pct >= 98.5);
        assert!(point.post_recovery_delivery_pct <= 100.0);
        assert!(
            point.delivery_pct > point.baseline_delivery_pct,
            "recovery must deliver more overall: {} vs {}",
            point.delivery_pct,
            point.baseline_delivery_pct
        );
    }

    #[test]
    fn recovery_points_are_deterministic() {
        let experiment = small_experiment();
        let a = experiment.single_link_outage(0.7, 20).unwrap();
        let b = experiment.single_link_outage(0.7, 20).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn csv_and_table_share_the_column_contract() {
        let report = RecoveryReport {
            points: vec![small_experiment().single_link_outage(0.7, 20).unwrap()],
        };
        let table = report.to_table("recovery");
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert_eq!(line.split(',').count(), RecoveryReport::COLUMNS.len());
        }
        assert!(!csv.contains('\r') && !csv.contains('"'));
        let rendered = table.render();
        for column in RecoveryReport::COLUMNS {
            assert!(rendered.contains(column), "table misses column {column}");
        }
    }
}
