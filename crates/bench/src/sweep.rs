//! Density × channel × seed scenario sweeps.
//!
//! The paper's evaluation (and every dense-scenario workload on the roadmap)
//! is a grid of independent experiments: one [`PaperScenario`] family,
//! swept over node densities (and optionally channel counts), with several
//! seeds per cell. [`ScenarioSweep`] is that nested loop: it instantiates
//! the cells one after another in grid order on the caller's thread, so a
//! sweep is **deterministic** — [`PaperScenario::instantiate`] is
//! deterministic per seed — and an installed `scream-obs` sink counts every
//! cell's probes, rounds and packets.
//!
//! ```
//! use scream_bench::{PaperScenario, ScenarioSweep};
//!
//! let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
//!     .densities(&[1_500.0, 3_000.0])
//!     .seeds(&[1, 2]);
//! let points = sweep.run()?;
//! assert_eq!(points.len(), 4);
//! assert!(points.iter().all(|p| p.centralized.improvement_over_linear_pct >= 0.0));
//! # Ok::<(), scream_bench::BenchError>(())
//! ```

use scream_core::ProtocolKind;
use scream_scheduling::{serialized_schedule, verify_schedule, ScheduleMetrics};

use crate::error::BenchError;
use crate::report::Table;
use crate::scenario::{PaperScenario, ScenarioInstance};

/// Offered-load factor of every cell's traffic run: each link sits at 90 %
/// of its per-frame service share, below the stability knee at 1.0 (the
/// `delay-vs-load` figure is the one that varies load).
const TRAFFIC_LOAD: f64 = 0.9;

/// Frame repetitions each cell's traffic run simulates.
const TRAFFIC_HORIZON_FRAMES: u64 = 50;

/// A density × channel × seed grid of paper-scenario experiments.
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    base: PaperScenario,
    densities: Vec<f64>,
    channel_counts: Vec<usize>,
    seeds: Vec<u64>,
}

/// One sweep cell's coordinates plus the value the sweep computed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell<T> {
    /// Node density of this cell, in nodes per km².
    pub density_per_km2: f64,
    /// Number of orthogonal channels of this cell.
    pub channel_count: usize,
    /// Instance seed of this cell.
    pub seed: u64,
    /// Whatever the sweep's function computed on the instance.
    pub value: T,
}

/// The packet-level outcome of one sweep cell: the traffic engine run on
/// the cell's verified schedule (used as a repeating TDMA frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficPoint {
    /// Offered-load factor (per-link utilization; 1.0 is the knee).
    pub offered_load: f64,
    /// Percentage of injected packets delivered within the horizon.
    pub sustained_throughput_pct: f64,
    /// 95th-percentile end-to-end delay, in slots.
    pub delay_p95_slots: f64,
    /// Analytic stability verdict (offered load vs. per-link share).
    pub stable: bool,
}

/// The default per-cell result of [`ScenarioSweep::run`]: the verified
/// centralized GreedyPhysical schedule plus the FDD and serialized-baseline
/// comparisons, with their schedule metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Node density of this cell, in nodes per km².
    pub density_per_km2: f64,
    /// Number of orthogonal channels of this cell.
    pub channel_count: usize,
    /// Instance seed of this cell.
    pub seed: u64,
    /// Measured interference diameter of the drawn instance.
    pub interference_diameter: usize,
    /// Total traffic demand `TD` of the drawn instance.
    pub total_demand: u64,
    /// Schedule metrics of the verified centralized GreedyPhysical schedule.
    pub centralized: ScheduleMetrics,
    /// Schedule metrics of the verified FDD run on the same instance. The
    /// distributed runtime is channel-aware, so on multi-channel cells this
    /// is a true distributed multi-channel schedule — by the channel-aware
    /// Theorem 4 it tracks the centralized column exactly, and the
    /// `fdd_vs_centralized_pct` report column pins that at 100.
    pub fdd: ScheduleMetrics,
    /// Schedule metrics of the serialized (one link per slot) baseline.
    pub linear: ScheduleMetrics,
    /// Packet-level traffic outcome on the centralized frame (which the FDD
    /// frame equals by Theorem 4) at 90 % offered load.
    pub traffic: TrafficPoint,
}

impl ScenarioSweep {
    /// Starts a sweep over the given scenario family. Density values from
    /// the base scenario are replaced by [`densities`](Self::densities); the
    /// base's other parameters (topology, node count, shadowing, β, …) apply
    /// to every cell.
    pub fn new(base: PaperScenario) -> Self {
        Self {
            base,
            densities: vec![base.density_per_km2],
            channel_counts: vec![base.channel_count],
            seeds: vec![0],
        }
    }

    /// Sets the densities to sweep (nodes per km²).
    pub fn densities(mut self, densities: &[f64]) -> Self {
        assert!(!densities.is_empty(), "sweep needs at least one density");
        self.densities = densities.to_vec();
        self
    }

    /// Sets the channel counts to sweep (the channel-ablation axis).
    pub fn channel_counts(mut self, channel_counts: &[usize]) -> Self {
        assert!(
            !channel_counts.is_empty(),
            "sweep needs at least one channel count"
        );
        self.channel_counts = channel_counts.to_vec();
        self
    }

    /// Sets the seeds to run per (density, channel count).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "sweep needs at least one seed");
        self.seeds = seeds.to_vec();
        self
    }

    /// The (density, channel count, seed) coordinate grid, density-major,
    /// then channel-major, then by seed — the order every `run` variant
    /// returns its cells in.
    pub fn grid(&self) -> Vec<(f64, usize, u64)> {
        self.densities
            .iter()
            .flat_map(|&d| {
                self.channel_counts
                    .iter()
                    .flat_map(move |&c| self.seeds.iter().map(move |&s| (d, c, s)))
            })
            .collect()
    }

    /// Number of cells in the sweep.
    pub fn len(&self) -> usize {
        self.densities.len() * self.channel_counts.len() * self.seeds.len()
    }

    /// Whether the sweep grid is empty (never, given the constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on every instantiated cell, in grid order. The first
    /// failing cell fails the sweep.
    pub fn run_with<T, F>(&self, f: F) -> Result<Vec<SweepCell<T>>, BenchError>
    where
        F: Fn(&ScenarioInstance) -> Result<T, BenchError>,
    {
        self.grid()
            .into_iter()
            .map(|(density_per_km2, channel_count, seed)| {
                let scenario = PaperScenario {
                    density_per_km2,
                    channel_count,
                    ..self.base
                };
                Ok(SweepCell {
                    density_per_km2,
                    channel_count,
                    seed,
                    value: f(&scenario.instantiate(seed)?)?,
                })
            })
            .collect()
    }

    /// Runs the sweep like [`run`](Self::run) and wraps the points in a
    /// [`SweepReport`] for CSV/table export.
    pub fn report(&self) -> Result<SweepReport, BenchError> {
        Ok(SweepReport {
            points: self.run()?,
        })
    }

    /// Runs the centralized GreedyPhysical baseline, the FDD protocol, the
    /// serialized baseline and the packet engine on every cell, verifying
    /// the centralized and FDD schedules against their instance.
    ///
    /// # Errors
    ///
    /// Fails on the first cell (in grid order) that cannot be drawn, run or
    /// verified — the sweep is a measurement harness, and a schedule that
    /// fails verification means the measurement would be garbage.
    pub fn run(&self) -> Result<Vec<SweepPoint>, BenchError> {
        let cells = self.run_with(|instance| {
            let schedule = instance.run_centralized();
            verify_schedule(&instance.env, &schedule, &instance.link_demands)?;
            let fdd = instance.run_protocol(ProtocolKind::Fdd)?;
            verify_schedule(&instance.env, &fdd.schedule, &instance.link_demands)?;
            let linear = serialized_schedule(&instance.link_demands);
            let traffic = instance.run_traffic(&schedule, TRAFFIC_LOAD, TRAFFIC_HORIZON_FRAMES)?;
            Ok((
                instance.interference_diameter,
                instance.link_demands.total_demand(),
                instance.metrics(&schedule),
                instance.metrics(&fdd.schedule),
                instance.metrics(&linear),
                TrafficPoint {
                    offered_load: TRAFFIC_LOAD,
                    sustained_throughput_pct: traffic.sustained_throughput_pct,
                    delay_p95_slots: traffic.delay.p95_slots,
                    stable: traffic.verdict.is_stable(),
                },
            ))
        })?;
        Ok(cells
            .into_iter()
            .map(|cell| {
                let (interference_diameter, total_demand, centralized, fdd, linear, traffic) =
                    cell.value;
                SweepPoint {
                    density_per_km2: cell.density_per_km2,
                    channel_count: cell.channel_count,
                    seed: cell.seed,
                    interference_diameter,
                    total_demand,
                    centralized,
                    fdd,
                    linear,
                    traffic,
                }
            })
            .collect())
    }
}

/// The collected result of a [`ScenarioSweep::report`] run, exported as a
/// [`Table`]: aligned text for eyes, [`Table::to_csv`] for plotting
/// pipelines. Both are the same cells, so they can never drift apart in
/// column count or order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell results in grid (density-major) order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// The table's column headers.
    const COLUMNS: [&'static str; 16] = [
        "density_per_km2",
        "channel_count",
        "seed",
        "interference_diameter",
        "total_demand",
        "slots",
        "improvement_pct",
        "spatial_reuse",
        "patterns",
        "fdd_slots",
        "fdd_spatial_reuse",
        "fdd_vs_centralized_pct",
        "linear_slots",
        "linear_spatial_reuse",
        "offered_load",
        "sustained_throughput_pct",
    ];

    fn row(p: &SweepPoint) -> Vec<String> {
        vec![
            format!("{:.0}", p.density_per_km2),
            p.channel_count.to_string(),
            p.seed.to_string(),
            p.interference_diameter.to_string(),
            p.total_demand.to_string(),
            p.centralized.length.to_string(),
            format!("{:.2}", p.centralized.improvement_over_linear_pct),
            format!("{:.3}", p.centralized.spatial_reuse),
            p.centralized.pattern_count.to_string(),
            p.fdd.length.to_string(),
            format!("{:.3}", p.fdd.spatial_reuse),
            // A degenerate non-empty-vs-empty comparison is INFINITY and
            // renders as a literal `inf` field — never a silent 100.
            format!("{:.2}", p.fdd.length_ratio_pct(&p.centralized)),
            p.linear.length.to_string(),
            format!("{:.3}", p.linear.spatial_reuse),
            format!("{:.2}", p.traffic.offered_load),
            format!("{:.2}", p.traffic.sustained_throughput_pct),
        ]
    }

    /// The report as a [`Table`] with the given title: one row per cell, in
    /// grid order. Every field is numeric, so its [`Table::to_csv`] needs no
    /// quoting; that contract is pinned by the
    /// `csv_contract_is_plain_newline_csv` test.
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
    use crate::scenario::Topology;

    fn small_sweep() -> ScenarioSweep {
        ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0, 4_000.0])
            .seeds(&[1, 2, 3])
    }

    #[test]
    fn grid_enumerates_density_major_cells() {
        let sweep = small_sweep();
        assert_eq!(sweep.len(), 6);
        assert!(!sweep.is_empty());
        let grid = sweep.grid();
        assert_eq!(grid[0], (1_500.0, 1, 1));
        assert_eq!(grid[2], (1_500.0, 1, 3));
        assert_eq!(grid[3], (4_000.0, 1, 1));
    }

    #[test]
    fn grid_includes_the_channel_axis() {
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0, 4_000.0])
            .channel_counts(&[1, 2])
            .seeds(&[7, 8]);
        assert_eq!(sweep.len(), 8);
        let grid = sweep.grid();
        assert_eq!(grid[0], (1_500.0, 1, 7));
        assert_eq!(grid[1], (1_500.0, 1, 8));
        assert_eq!(grid[2], (1_500.0, 2, 7));
        assert_eq!(grid[4], (4_000.0, 1, 7));
    }

    #[test]
    fn sweep_is_deterministic_and_ordered() {
        let sweep = small_sweep();
        let first = sweep.run().unwrap();
        let second = sweep.run().unwrap();
        assert_eq!(first, second, "same grid must reproduce identical results");
        assert_eq!(first.len(), sweep.len());
        for (point, (density, channels, seed)) in first.iter().zip(sweep.grid()) {
            assert_eq!(point.density_per_km2, density);
            assert_eq!(point.channel_count, channels);
            assert_eq!(point.seed, seed);
            assert!(point.total_demand > 0);
            assert!(point.interference_diameter >= 1);
        }
    }

    #[test]
    fn run_matches_the_hand_rolled_per_cell_computation() {
        let sweep = small_sweep();
        let by_hand: Vec<SweepPoint> = sweep
            .grid()
            .into_iter()
            .map(|(density, channels, seed)| {
                let mut scenario = PaperScenario::grid(2_000.0).with_node_count(16);
                scenario.density_per_km2 = density;
                scenario.channel_count = channels;
                let instance = scenario.instantiate(seed).unwrap();
                let schedule = instance.run_centralized();
                let fdd = instance
                    .run_protocol(scream_core::ProtocolKind::Fdd)
                    .unwrap();
                let linear = serialized_schedule(&instance.link_demands);
                let traffic = instance.run_traffic(&schedule, 0.9, 50).unwrap();
                SweepPoint {
                    density_per_km2: density,
                    channel_count: channels,
                    seed,
                    interference_diameter: instance.interference_diameter,
                    total_demand: instance.link_demands.total_demand(),
                    centralized: instance.metrics(&schedule),
                    fdd: instance.metrics(&fdd.schedule),
                    linear: instance.metrics(&linear),
                    traffic: TrafficPoint {
                        offered_load: 0.9,
                        sustained_throughput_pct: traffic.sustained_throughput_pct,
                        delay_p95_slots: traffic.delay.p95_slots,
                        stable: traffic.verdict.is_stable(),
                    },
                }
            })
            .collect();
        assert_eq!(sweep.run().unwrap(), by_hand);
    }

    #[test]
    fn a_sink_around_a_sweep_sees_every_layer_of_its_cells() {
        scream_obs::install();
        small_sweep().run().unwrap();
        let seen = scream_obs::uninstall().expect("installed above").snapshot;
        for counter in [
            "greedy.links",
            "ledger.probe.accept",
            "runtime.rounds",
            "traffic.injected",
        ] {
            assert!(seen.counter(counter) > 0, "{counter} is dark");
        }
    }

    #[test]
    fn run_with_exposes_the_instance() {
        let sweep =
            ScenarioSweep::new(PaperScenario::uniform(3_000.0).with_node_count(16)).seeds(&[5, 6]);
        let cells = sweep
            .run_with(|instance| {
                assert_eq!(instance.deployment.len(), 16);
                Ok(instance.env.communication_graph().edge_count())
            })
            .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.value > 0));
        assert_eq!(cells[0].seed, 5);
        assert_eq!(cells[0].channel_count, 1);
    }

    #[test]
    fn per_protocol_columns_cover_fdd_and_the_linear_baseline() {
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0])
            .seeds(&[1, 2]);
        for p in sweep.run().unwrap() {
            // Theorem 4: FDD recreates the centralized schedule on
            // single-channel cells.
            assert_eq!(p.fdd.length, p.centralized.length);
            assert_eq!(p.linear.length as u64, p.total_demand);
            assert!((p.linear.spatial_reuse - 1.0).abs() < 1e-12);
            assert!(p.linear.improvement_over_linear_pct.abs() < 1e-12);
        }
    }

    #[test]
    fn multi_channel_cells_shorten_the_distributed_and_centralized_columns() {
        let base = PaperScenario::grid(2_000.0).with_node_count(16);
        let sweep = ScenarioSweep::new(base)
            .densities(&[2_500.0])
            .channel_counts(&[1, 2])
            .seeds(&[4]);
        let points = sweep.run().unwrap();
        assert_eq!(points.len(), 2);
        let (single, dual) = (&points[0], &points[1]);
        assert_eq!(single.channel_count, 1);
        assert_eq!(dual.channel_count, 2);
        // Same instance draw per seed, so TD matches; the channel-aware
        // runtime tracks the channel-aware centralized schedule on every
        // cell (channel-aware Theorem 4), so both columns shrink together.
        assert_eq!(single.total_demand, dual.total_demand);
        assert!(dual.centralized.length <= single.centralized.length);
        assert!(dual.fdd.length <= single.fdd.length);
        assert_eq!(dual.fdd.length, dual.centralized.length);
        assert_eq!(dual.fdd.channels_used, dual.centralized.channels_used);
        assert!(dual.centralized.channels_used >= 1);
        // The shared row helper reports the tracking as exactly 100%.
        let row = SweepReport::row(dual);
        assert_eq!(row[11], "100.00");
        // ... and the packet-level columns: 90 % load, below the knee.
        assert_eq!(row[14], "0.90");
        assert!(dual.traffic.stable && dual.traffic.sustained_throughput_pct > 98.0);
    }

    #[test]
    fn csv_export_has_a_header_and_one_row_per_cell() {
        let sweep = small_sweep();
        let report = sweep.report().unwrap();
        let csv = report.to_table("sweep").to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + sweep.len());
        assert!(lines[0].starts_with("density_per_km2,channel_count,seed,"));
        let columns = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == columns));
        // Rows come in grid order and reproduce deterministically.
        assert!(lines[1].starts_with("1500,1,1,"));
        assert_eq!(csv, sweep.report().unwrap().to_table("sweep").to_csv());
        // The aligned rendering of the same table carries the same columns.
        let table = report.to_table("sweep");
        assert_eq!(table.row_count(), sweep.len());
        let rendered = table.render();
        for column in SweepReport::COLUMNS {
            assert!(rendered.contains(column), "table misses column {column}");
        }
    }

    #[test]
    fn csv_contract_is_plain_newline_csv() {
        // The documented contract: `\n` row terminators (no CRLF), no quoting
        // (fields are numeric and never contain commas), header + one row per
        // cell, trailing newline.
        let report = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .seeds(&[1])
            .report()
            .unwrap();
        let csv = report.to_table("sweep").to_csv();
        assert!(!csv.contains('\r'), "rows must be \\n-terminated, not CRLF");
        assert!(!csv.contains('"'), "fields are never quoted");
        assert!(csv.ends_with('\n'));
        assert_eq!(csv.matches('\n').count(), 1 + report.points.len());
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), SweepReport::COLUMNS.len());
            assert!(line.split(',').all(|field| !field.is_empty()));
        }
    }

    #[test]
    fn paper_scale_sweep_runs_at_64_nodes() {
        // The acceptance-criteria scenario: a 64-node paper-family density
        // sweep, deterministic per seed.
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0))
            .densities(&[2_000.0, 8_000.0])
            .seeds(&[7]);
        let points = sweep.run().unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.seed, 7);
            assert!(p.centralized.improvement_over_linear_pct > 0.0);
        }
        assert_eq!(points, sweep.run().unwrap());
        assert_eq!(
            ScenarioSweep::new(PaperScenario::grid(2_000.0))
                .base
                .topology,
            Topology::PlannedGrid
        );
    }
}
