//! Parallel density × channel × load × seed scenario sweeps.
//!
//! The paper's evaluation (and every dense-scenario workload on the roadmap)
//! is a grid of independent experiments: one [`PaperScenario`] family,
//! swept over node densities (and optionally channel counts and packet-level
//! offered-load factors), with several seeds per cell. Each cell is pure — [`PaperScenario::instantiate`] is
//! deterministic per seed and `RadioEnvironment` is `Sync` — and since the
//! interference-ledger refactor all scheduling state is per-slot-local, so
//! cells parallelize across cores with no shared mutable state.
//!
//! [`ScenarioSweep`] runs the grid via rayon's `par_iter`, preserving cell
//! order, which makes parallel sweeps **deterministic**: the result vector
//! for a given (scenario, densities, channels, loads, seeds) tuple is
//! identical however many worker threads execute it, cell by cell, byte for
//! byte.
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

use rayon::prelude::*;

use scream_core::ProtocolKind;
use scream_scheduling::{serialized_schedule, verify_schedule, ScheduleMetrics};

use crate::error::BenchError;
use crate::report::Table;
use crate::scenario::{PaperScenario, ScenarioInstance};

/// A density × channel × load × seed grid of paper-scenario experiments,
/// executed across all available cores.
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    base: PaperScenario,
    densities: Vec<f64>,
    channel_counts: Vec<usize>,
    offered_loads: Vec<f64>,
    seeds: Vec<u64>,
    traffic_horizon_frames: u64,
}

/// One sweep cell's coordinates plus the value the sweep computed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell<T> {
    /// Node density of this cell, in nodes per km².
    pub density_per_km2: f64,
    /// Number of orthogonal channels of this cell.
    pub channel_count: usize,
    /// Offered-load factor of this cell (1.0 = the frame's capacity).
    pub offered_load: f64,
    /// Instance seed of this cell.
    pub seed: u64,
    /// Whatever the sweep's function computed on the instance.
    pub value: T,
}

/// The packet-level outcome of one sweep cell: the traffic engine run on
/// the cell's verified schedule (used as a repeating TDMA frame) at the
/// cell's offered-load factor.
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
    /// frame equals by Theorem 4) at this cell's offered-load factor.
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
            offered_loads: vec![0.9],
            seeds: vec![0],
            traffic_horizon_frames: 50,
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

    /// Sets the offered-load factors to sweep (the packet-level load axis):
    /// every cell's traffic run puts each link at `load ×` its per-frame
    /// service share, so 1.0 is the stability knee. Default: `[0.9]`.
    pub fn offered_loads(mut self, loads: &[f64]) -> Self {
        assert!(!loads.is_empty(), "sweep needs at least one offered load");
        assert!(
            loads.iter().all(|l| l.is_finite() && *l > 0.0),
            "offered loads must be finite and positive"
        );
        self.offered_loads = loads.to_vec();
        self
    }

    /// Sets how many frame repetitions each cell's traffic run simulates
    /// (default 50).
    pub fn traffic_horizon(mut self, frames: u64) -> Self {
        assert!(frames > 0, "the traffic horizon must be at least one frame");
        self.traffic_horizon_frames = frames;
        self
    }

    /// Sets the seeds to run per (density, channel count, offered load).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "sweep needs at least one seed");
        self.seeds = seeds.to_vec();
        self
    }

    /// The (density, channel count, offered load, seed) coordinate grid,
    /// density-major, then channel-major, then by load, then by seed — the
    /// order every `run` variant returns its cells in.
    pub fn grid(&self) -> Vec<(f64, usize, f64, u64)> {
        self.densities
            .iter()
            .flat_map(|&d| {
                self.channel_counts.iter().flat_map(move |&c| {
                    self.offered_loads
                        .iter()
                        .flat_map(move |&l| self.seeds.iter().map(move |&s| (d, c, l, s)))
                })
            })
            .collect()
    }

    /// Number of cells in the sweep.
    pub fn len(&self) -> usize {
        self.densities.len()
            * self.channel_counts.len()
            * self.offered_loads.len()
            * self.seeds.len()
    }

    /// Whether the sweep grid is empty (never, given the constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on every instantiated cell in parallel, returning the cells
    /// in grid order regardless of thread scheduling. `f` receives the
    /// drawn instance and the cell's offered-load factor (the instance draw
    /// itself does not depend on the load). The first failing cell, in
    /// grid order, fails the sweep.
    pub fn run_with<T, F>(&self, f: F) -> Result<Vec<SweepCell<T>>, BenchError>
    where
        T: Send,
        F: Fn(&ScenarioInstance, f64) -> Result<T, BenchError> + Sync,
    {
        let cells: Vec<Result<SweepCell<T>, BenchError>> = self
            .grid()
            .into_par_iter()
            .map(|(density, channels, load, seed)| {
                let instance = self.scenario_at(density, channels).instantiate(seed)?;
                Ok(SweepCell {
                    density_per_km2: density,
                    channel_count: channels,
                    offered_load: load,
                    seed,
                    value: f(&instance, load)?,
                })
            })
            .collect();
        cells.into_iter().collect()
    }

    fn scenario_at(&self, density_per_km2: f64, channel_count: usize) -> PaperScenario {
        PaperScenario {
            density_per_km2,
            channel_count,
            ..self.base
        }
    }

    /// Runs the sweep like [`run`](Self::run) and wraps the points in a
    /// [`SweepReport`] for CSV/table export.
    pub fn report(&self) -> Result<SweepReport, BenchError> {
        Ok(SweepReport {
            points: self.run()?,
        })
    }

    /// Runs the centralized GreedyPhysical baseline, the FDD protocol and
    /// the serialized baseline on every cell in parallel, verifying the
    /// centralized and FDD schedules against their instance.
    ///
    /// # Errors
    ///
    /// Fails on the first cell (in grid order) that cannot be drawn, run or
    /// verified — the sweep is a measurement harness, and a schedule that
    /// fails verification means the measurement would be garbage.
    pub fn run(&self) -> Result<Vec<SweepPoint>, BenchError> {
        let horizon = self.traffic_horizon_frames;
        // The instance draw, the scheduling runs and the verifications are
        // all load-independent, so the load axis fans out *inside* each
        // (density, channel, seed) cell: a multi-load sweep schedules and
        // verifies each instance exactly once and only re-runs the (cheap)
        // traffic engine per load value.
        let triples: Vec<(f64, usize, u64)> = self
            .densities
            .iter()
            .flat_map(|&d| {
                self.channel_counts
                    .iter()
                    .flat_map(move |&c| self.seeds.iter().map(move |&s| (d, c, s)))
            })
            .collect();
        let per_triple: Vec<Result<Vec<SweepPoint>, BenchError>> = triples
            .into_par_iter()
            .map(|(density, channels, seed)| {
                let instance = self.scenario_at(density, channels).instantiate(seed)?;
                let schedule = instance.run_centralized();
                verify_schedule(&instance.env, &schedule, &instance.link_demands)?;
                let fdd = instance.run_protocol(ProtocolKind::Fdd)?;
                verify_schedule(&instance.env, &fdd.schedule, &instance.link_demands)?;
                let linear = serialized_schedule(&instance.link_demands);
                let (centralized, fdd, linear) = (
                    instance.metrics(&schedule),
                    instance.metrics(&fdd.schedule),
                    instance.metrics(&linear),
                );
                self.offered_loads
                    .iter()
                    .map(|&load| {
                        let traffic = instance.run_traffic(&schedule, load, horizon)?;
                        Ok(SweepPoint {
                            density_per_km2: density,
                            channel_count: channels,
                            seed,
                            interference_diameter: instance.interference_diameter,
                            total_demand: instance.link_demands.total_demand(),
                            centralized,
                            fdd,
                            linear,
                            traffic: TrafficPoint {
                                offered_load: load,
                                sustained_throughput_pct: traffic.sustained_throughput_pct,
                                delay_p95_slots: traffic.delay.p95_slots,
                                stable: traffic.verdict.is_stable(),
                            },
                        })
                    })
                    .collect()
            })
            .collect();
        let per_triple = per_triple.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Reassemble in the documented grid order (loads vary *outside* the
        // seeds): per_triple is (density, channel, seed)-ordered with loads
        // innermost.
        let mut points = Vec::with_capacity(self.len());
        for block in per_triple.chunks(self.seeds.len()) {
            for li in 0..self.offered_loads.len() {
                points.extend(block.iter().map(|cell| cell[li].clone()));
            }
        }
        Ok(points)
    }
}

/// The collected result of a [`ScenarioSweep::report`] run, exportable as
/// CSV (for plotting pipelines) or as an aligned text [`Table`] (for eyes).
///
/// The per-protocol columns (centralized, FDD, serialized baseline) come
/// from one shared [`row`](Self::row) helper, so the CSV and table exports
/// can never drift apart in column count or order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell results in grid (density-major) order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Column headers shared by the CSV and table exports.
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

    /// Renders the report as plain comma-separated CSV — a header row plus
    /// one row per cell, fields joined by `,` and rows terminated by `\n`
    /// (no CRLF, no quoting; every field is numeric, so none is ever
    /// needed), in grid order. This is the machine-readable export the
    /// ROADMAP's dense-scenario workloads pipe into plotting tools; the
    /// exact contract is pinned by the `csv_contract_is_plain_newline_csv`
    /// test.
    pub fn to_csv(&self) -> String {
        let mut out = Self::COLUMNS.join(",");
        out.push('\n');
        for p in &self.points {
            out.push_str(&Self::row(p).join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the report as an aligned text [`Table`] with the given title.
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
        assert_eq!(grid[0], (1_500.0, 1, 0.9, 1));
        assert_eq!(grid[2], (1_500.0, 1, 0.9, 3));
        assert_eq!(grid[3], (4_000.0, 1, 0.9, 1));
    }

    #[test]
    fn grid_includes_the_channel_axis() {
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0, 4_000.0])
            .channel_counts(&[1, 2])
            .seeds(&[7, 8]);
        assert_eq!(sweep.len(), 8);
        let grid = sweep.grid();
        assert_eq!(grid[0], (1_500.0, 1, 0.9, 7));
        assert_eq!(grid[1], (1_500.0, 1, 0.9, 8));
        assert_eq!(grid[2], (1_500.0, 2, 0.9, 7));
        assert_eq!(grid[4], (4_000.0, 1, 0.9, 7));
    }

    #[test]
    fn grid_includes_the_load_axis() {
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0])
            .offered_loads(&[0.5, 1.5])
            .seeds(&[7, 8]);
        assert_eq!(sweep.len(), 4);
        let grid = sweep.grid();
        assert_eq!(grid[0], (1_500.0, 1, 0.5, 7));
        assert_eq!(grid[1], (1_500.0, 1, 0.5, 8));
        assert_eq!(grid[2], (1_500.0, 1, 1.5, 7));
        assert_eq!(grid[3], (1_500.0, 1, 1.5, 8));
    }

    #[test]
    fn parallel_sweep_is_deterministic_and_ordered() {
        let sweep = small_sweep();
        let first = sweep.run().unwrap();
        let second = sweep.run().unwrap();
        assert_eq!(first, second, "same grid must reproduce identical results");
        // Results come back in grid order, and the per-cell instances match a
        // sequential instantiation of the same coordinates.
        for (point, (density, channels, load, seed)) in first.iter().zip(sweep.grid()) {
            assert_eq!(point.density_per_km2, density);
            assert_eq!(point.channel_count, channels);
            assert_eq!(point.traffic.offered_load, load);
            assert_eq!(point.seed, seed);
            assert!(point.total_demand > 0);
            assert!(point.interference_diameter >= 1);
        }
    }

    #[test]
    fn parallel_matches_sequential_computation() {
        let sweep = small_sweep();
        let parallel = sweep.run().unwrap();
        let sequential: Vec<SweepPoint> = sweep
            .grid()
            .into_iter()
            .map(|(density, channels, load, seed)| {
                let mut scenario = PaperScenario::grid(2_000.0).with_node_count(16);
                scenario.density_per_km2 = density;
                scenario.channel_count = channels;
                let instance = scenario.instantiate(seed).unwrap();
                let schedule = instance.run_centralized();
                let fdd = instance
                    .run_protocol(scream_core::ProtocolKind::Fdd)
                    .unwrap();
                let linear = serialized_schedule(&instance.link_demands);
                let traffic = instance.run_traffic(&schedule, load, 50).unwrap();
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
                        offered_load: load,
                        sustained_throughput_pct: traffic.sustained_throughput_pct,
                        delay_p95_slots: traffic.delay.p95_slots,
                        stable: traffic.verdict.is_stable(),
                    },
                }
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn run_with_exposes_the_instance_and_load() {
        let sweep =
            ScenarioSweep::new(PaperScenario::uniform(3_000.0).with_node_count(16)).seeds(&[5, 6]);
        let cells = sweep
            .run_with(|instance, load| {
                assert_eq!(instance.deployment.len(), 16);
                assert_eq!(load, 0.9, "the default load axis is a single 0.9 cell");
                Ok(instance.env.communication_graph().edge_count())
            })
            .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.value > 0));
        assert_eq!(cells[0].seed, 5);
        assert_eq!(cells[0].channel_count, 1);
        assert_eq!(cells[0].offered_load, 0.9);
    }

    #[test]
    fn load_axis_crosses_the_stability_knee() {
        let sweep = ScenarioSweep::new(PaperScenario::grid(2_000.0).with_node_count(16))
            .densities(&[1_500.0])
            .offered_loads(&[0.6, 1.5])
            .traffic_horizon(200)
            .seeds(&[3]);
        let points = sweep.run().unwrap();
        assert_eq!(points.len(), 2);
        let (below, above) = (&points[0], &points[1]);
        assert_eq!(below.traffic.offered_load, 0.6);
        assert!(below.traffic.stable);
        assert!(below.traffic.sustained_throughput_pct > 98.0);
        assert_eq!(above.traffic.offered_load, 1.5);
        assert!(!above.traffic.stable);
        assert!(
            above.traffic.sustained_throughput_pct < below.traffic.sustained_throughput_pct - 5.0
        );
        assert!(above.traffic.delay_p95_slots > below.traffic.delay_p95_slots);
        // The shared row helper renders both new columns.
        let row = SweepReport::row(below);
        assert_eq!(row.len(), SweepReport::COLUMNS.len());
        assert_eq!(row[14], "0.60");
        let pct: f64 = row[15].parse().unwrap();
        assert!(pct > 98.0);
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
    }

    #[test]
    fn csv_export_has_a_header_and_one_row_per_cell() {
        let sweep = small_sweep();
        let report = sweep.report().unwrap();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + sweep.len());
        assert!(lines[0].starts_with("density_per_km2,channel_count,seed,"));
        let columns = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == columns));
        // Rows come in grid order and reproduce deterministically.
        assert!(lines[1].starts_with("1500,1,1,"));
        assert_eq!(csv, sweep.report().unwrap().to_csv());
        // The table export shares the same columns, kept in lockstep by the
        // shared row() helper.
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
        let csv = report.to_csv();
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
        // sweep, in parallel, deterministic per seed.
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
