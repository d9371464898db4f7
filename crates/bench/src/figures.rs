//! Data-series generators for every figure of the paper's evaluation.
//!
//! Each function regenerates the series behind one figure and returns plain
//! data; the `figures` binary's subcommand of the same name prints it with
//! [`Table`]. Node counts and repetition counts are
//! parameters so the unit tests can run reduced versions of the same pipeline.

use serde::{Deserialize, Serialize};

use scream_core::{DistributedScheduler, ProtocolConfig, ProtocolKind};
use scream_mote::{DetectionErrorPoint, MoteExperiment, MoteExperimentConfig, RssiTrace};
use scream_netsim::{ClockSkewConfig, SimTime};
use scream_scheduling::{verify_schedule, GreedyPhysical, Schedule};

use crate::error::BenchError;
use crate::report::Table;
use crate::scenario::{heavy_demand_instance, PaperScenario};
use crate::sweep::ScenarioSweep;

/// One row of the Figure 6 series: percentage improvement over the serialized
/// schedule, per protocol, at one density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImprovementRow {
    /// Node density in nodes per square kilometer.
    pub(crate) density_per_km2: f64,
    /// Centralized GreedyPhysical improvement (%).
    pub(crate) centralized: f64,
    /// FDD improvement (%).
    pub(crate) fdd: f64,
    /// PDD improvement (%) with p = 0.2.
    pub(crate) pdd_02: f64,
    /// PDD improvement (%) with p = 0.6.
    pub(crate) pdd_06: f64,
    /// PDD improvement (%) with p = 0.8.
    pub(crate) pdd_08: f64,
}

/// Figure 6: schedule-length improvement over the serialized schedule for the
/// planned grid topology, across node densities.
///
/// `runs_per_point` instances are averaged per density (the paper reports
/// 95 % confidence intervals over repeated runs).
pub fn fig6_grid_improvement(
    densities: &[f64],
    node_count: usize,
    runs_per_point: usize,
    base_seed: u64,
) -> Result<Vec<ImprovementRow>, BenchError> {
    let base = PaperScenario::grid(1_000.0).with_node_count(node_count);
    improvement_rows(base, densities, runs_per_point, base_seed)
}

/// Figure 7: schedule-length improvement for the unplanned uniform-random
/// topology with heterogeneous transmit power. The paper plots FDD,
/// PDD (p = 0.8) and the centralized algorithm; the other PDD probabilities
/// are filled in as well for completeness.
pub fn fig7_uniform_improvement(
    densities: &[f64],
    node_count: usize,
    runs_per_point: usize,
    base_seed: u64,
) -> Result<Vec<ImprovementRow>, BenchError> {
    let base = PaperScenario::uniform(1_000.0).with_node_count(node_count);
    improvement_rows(base, densities, runs_per_point, base_seed)
}

fn improvement_rows(
    base: PaperScenario,
    densities: &[f64],
    runs_per_point: usize,
    base_seed: u64,
) -> Result<Vec<ImprovementRow>, BenchError> {
    let seeds: Vec<u64> = (0..runs_per_point.max(1) as u64)
        .map(|run| base_seed + run * 1000)
        .collect();
    let cells = ScenarioSweep::new(base)
        .densities(densities)
        .seeds(&seeds)
        .run_with(|instance| {
            let centralized = instance.metrics(&instance.run_centralized());
            let mut improvement = [centralized.improvement_over_linear_pct; 5];
            let pdd = ProtocolKind::pdd;
            let protocols = [ProtocolKind::Fdd, pdd(0.2)?, pdd(0.6)?, pdd(0.8)?];
            for (pct, kind) in improvement[1..].iter_mut().zip(protocols) {
                let metrics = instance.run_protocol(kind)?.metrics(&instance.link_demands);
                *pct = metrics.improvement_over_linear_pct;
            }
            Ok(improvement)
        })?;
    // Cells come back density-major; each density's runs are summed in seed
    // order.
    Ok(cells
        .chunks(seeds.len())
        .map(|runs| {
            let mut mean = [0.0f64; 5];
            for run in runs {
                for (sum, pct) in mean.iter_mut().zip(run.value) {
                    *sum += pct;
                }
            }
            let [centralized, fdd, pdd_02, pdd_06, pdd_08] =
                mean.map(|sum| sum / runs.len() as f64);
            ImprovementRow {
                density_per_km2: runs[0].density_per_km2,
                centralized,
                fdd,
                pdd_02,
                pdd_06,
                pdd_08,
            }
        })
        .collect())
}

/// Renders improvement rows as a table titled like the paper figure.
pub fn improvement_table(title: &str, rows: &[ImprovementRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "density(nodes/km2)",
            "Centralized(%)",
            "FDD(%)",
            "PDD p=0.2(%)",
            "PDD p=0.6(%)",
            "PDD p=0.8(%)",
        ],
    );
    for row in rows {
        table.push_values(
            format!("{:.0}", row.density_per_km2),
            &[row.centralized, row.fdd, row.pdd_02, row.pdd_06, row.pdd_08],
        );
    }
    table
}

/// One row of the Figure 8 series: protocol execution time for a given value
/// of the swept parameter (SCREAM size in bytes, or interference diameter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTimeRow {
    /// The swept parameter value (bytes or slots, depending on the series).
    pub(crate) parameter: usize,
    /// FDD execution time in seconds.
    pub(crate) fdd_secs: f64,
    /// PDD (p = 0.8) execution time in seconds.
    pub(crate) pdd_secs: f64,
}

/// Figure 8 data: execution time as a function of SCREAM size (first vector)
/// and of the interference-diameter parameter `K` (second vector), for FDD
/// and PDD on the same instance.
pub fn fig8_execution_time(
    scream_sizes: &[usize],
    diameters: &[usize],
    node_count: usize,
    seed: u64,
) -> Result<(Vec<ExecutionTimeRow>, Vec<ExecutionTimeRow>), BenchError> {
    let instance = PaperScenario::grid(5_000.0)
        .with_node_count(node_count)
        .instantiate(seed)?;
    let row = |parameter: usize, config: ProtocolConfig| {
        let fdd = instance.run_protocol_with(ProtocolKind::Fdd, config)?;
        let pdd = instance.run_protocol_with(ProtocolKind::pdd(0.8)?, config)?;
        Ok(ExecutionTimeRow {
            parameter,
            fdd_secs: fdd.execution_secs(),
            pdd_secs: pdd.execution_secs(),
        })
    };

    let by_size = scream_sizes
        .iter()
        .map(|&bytes| row(bytes, instance.protocol_config().with_scream_bytes(bytes)))
        .collect::<Result<_, BenchError>>()?;

    let by_diameter = diameters
        .iter()
        .map(|&k| {
            let k = k.max(instance.interference_diameter);
            row(k, instance.protocol_config().with_scream_slots(k))
        })
        .collect::<Result<_, BenchError>>()?;

    Ok((by_size, by_diameter))
}

/// Renders Figure 8 rows as a table.
pub fn execution_time_table(title: &str, parameter_name: &str, rows: &[ExecutionTimeRow]) -> Table {
    let mut table = Table::new(title, &[parameter_name, "FDD(s)", "PDD p=0.8(s)"]);
    for row in rows {
        table.push_values(row.parameter, &[row.fdd_secs, row.pdd_secs]);
    }
    table
}

/// One row of the Figure 9 series: execution time under a clock-skew bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSkewRow {
    /// Clock-skew bound in seconds.
    pub(crate) skew_secs: f64,
    /// FDD execution time in seconds.
    pub(crate) fdd_secs: f64,
    /// PDD (p = 0.2) execution time in seconds.
    pub(crate) pdd_secs: f64,
}

/// Figure 9 data: execution time as a function of the clock-skew bound
/// (both axes are logarithmic in the paper) for FDD and PDD (p = 0.2).
pub fn fig9_clock_skew(
    skews_secs: &[f64],
    node_count: usize,
    seed: u64,
) -> Result<Vec<ClockSkewRow>, BenchError> {
    let instance = PaperScenario::grid(5_000.0)
        .with_node_count(node_count)
        .instantiate(seed)?;
    skews_secs
        .iter()
        .map(|&skew| {
            let config =
                instance.config_with_skew(ClockSkewConfig::new(SimTime::from_secs_f64(skew)));
            let fdd = instance.run_protocol_with(ProtocolKind::Fdd, config)?;
            let pdd = instance.run_protocol_with(ProtocolKind::pdd(0.2)?, config)?;
            Ok(ClockSkewRow {
                skew_secs: skew,
                fdd_secs: fdd.execution_secs(),
                pdd_secs: pdd.execution_secs(),
            })
        })
        .collect()
}

/// Renders Figure 9 rows as a table.
pub fn clock_skew_table(rows: &[ClockSkewRow]) -> Table {
    let mut table = Table::new(
        "Fig. 9 — Execution Time vs. Clock Skew (log-log in the paper)",
        &["skew(s)", "FDD(s)", "PDD p=0.2(s)"],
    );
    for row in rows {
        table.push_row(vec![
            format!("{:.6}", row.skew_secs),
            format!("{:.2}", row.fdd_secs),
            format!("{:.2}", row.pdd_secs),
        ]);
    }
    table
}

/// One row of the channel-ablation series: the verified channel-aware
/// centralized schedule on the fixed 64-link heavy-demand instance, per
/// channel count, optionally alongside the distributed FDD run on the same
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelAblationRow {
    /// Number of orthogonal channels.
    pub(crate) channel_count: usize,
    /// Length of the channel-aware centralized schedule.
    pub(crate) slots: usize,
    /// The ideal multi-channel length `ceil(single_channel_slots / C)`.
    pub(crate) ideal_slots: usize,
    /// `slots / ideal_slots` — 1.0 means the schedule achieves the full
    /// `1/C` shrink; the acceptance bar is ≤ 1.1 (within 10 % of ideal).
    pub(crate) ratio_vs_ideal: f64,
    /// Average concurrent transmissions per slot, across all channels.
    pub(crate) spatial_reuse: f64,
    /// Length of the verified channel-aware **distributed** FDD schedule on
    /// the same instance, when the FDD column was requested. By the
    /// channel-aware Theorem 4 it equals `slots`, so FDD reproduces the
    /// exact `1/C` shrink.
    pub(crate) fdd_slots: Option<usize>,
    /// `fdd_slots / ideal_slots`, when the FDD column was requested.
    pub(crate) fdd_ratio_vs_ideal: Option<f64>,
}

/// Channel-ablation data: the centralized schedule on the fixed 64-link
/// heavy-demand instance (`heavy_demand_instance`) for each
/// requested channel count, each verified, compared against the ideal
/// `ceil(L₁ / C)` shrink. The instance's links are pairwise
/// endpoint-disjoint, so its conflicts are purely SINR-driven — exactly the
/// regime where orthogonal channels multiply capacity (Halldórsson & Mitra;
/// Zhou et al.).
///
/// `with_fdd` fills in the **distributed** columns: the channel-aware FDD
/// runtime is executed (and verified) on every cell and must reproduce the
/// centralized `1/C` shrink slot for slot (100 slots/link → 1200 → 600 →
/// 300 slots for C = 1, 2, 4).
pub fn channel_ablation(
    demand_per_link: u64,
    channel_counts: &[usize],
    with_fdd: bool,
) -> Result<Vec<ChannelAblationRow>, BenchError> {
    let (env, demands) = heavy_demand_instance(demand_per_link, 1)?;
    let single = GreedyPhysical::paper_baseline().schedule(&env, &demands);
    verify_schedule(&env, &single, &demands)?;
    channel_counts
        .iter()
        .map(|&channels| {
            // The C = 1 cell reuses the outer instance (and its
            // already-verified centralized baseline); other channel counts
            // redraw the instance with their own radio configuration.
            let cell = (channels != 1)
                .then(|| heavy_demand_instance(demand_per_link, channels))
                .transpose()?;
            let (cell_env, cell_demands) = cell.as_ref().map_or((&env, &demands), |(e, d)| (e, d));
            let (length, spatial_reuse) = if channels == 1 {
                (single.length(), single.spatial_reuse())
            } else {
                let schedule = GreedyPhysical::paper_baseline().schedule(cell_env, cell_demands);
                verify_schedule(cell_env, &schedule, cell_demands)?;
                (schedule.length(), schedule.spatial_reuse())
            };
            let ideal_slots = single.length().div_ceil(channels);
            let fdd_slots = if with_fdd {
                let config = ProtocolConfig::paper_default()
                    .with_scream_slots(cell_env.interference_diameter().max(5));
                let run = DistributedScheduler::fdd()
                    .with_config(config)
                    .run(cell_env, cell_demands)?;
                verify_schedule(cell_env, &run.schedule, cell_demands)?;
                Some(run.schedule.length())
            } else {
                None
            };
            Ok(ChannelAblationRow {
                channel_count: channels,
                slots: length,
                ideal_slots,
                ratio_vs_ideal: length as f64 / ideal_slots as f64,
                spatial_reuse,
                fdd_slots,
                fdd_ratio_vs_ideal: fdd_slots.map(|f| f as f64 / ideal_slots as f64),
            })
        })
        .collect()
}

/// Renders channel-ablation rows as a table (the FDD columns show `-` when
/// the distributed run was not requested).
pub fn channel_ablation_table(demand_per_link: u64, rows: &[ChannelAblationRow]) -> Table {
    let mut table = Table::new(
        format!(
            "Channel ablation — 64-link heavy-demand instance, {demand_per_link} slots/link demand"
        ),
        &[
            "channels",
            "slots",
            "ideal ceil(L1/C)",
            "ratio vs ideal",
            "spatial reuse",
            "FDD slots",
            "FDD ratio vs ideal",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.channel_count.to_string(),
            row.slots.to_string(),
            row.ideal_slots.to_string(),
            format!("{:.3}", row.ratio_vs_ideal),
            format!("{:.2}", row.spatial_reuse),
            row.fdd_slots
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            row.fdd_ratio_vs_ideal
                .map_or_else(|| "-".to_string(), |r| format!("{r:.3}")),
        ]);
    }
    table
}

/// One schedule's packet-level outcome at one offered-load factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LoadPoint {
    /// 95th-percentile end-to-end delay, in slots.
    pub(crate) delay_p95_slots: f64,
    /// Percentage of injected packets delivered within the horizon.
    pub(crate) throughput_pct: f64,
    /// Analytic stability verdict at this load.
    pub(crate) stable: bool,
}

/// One row of the delay-vs-load series: the traffic engine's outcome on the
/// Centralized, FDD and PDD (p = 0.8) frames at one offered-load factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayVsLoadRow {
    /// Offered-load factor relative to the **centralized** frame's capacity
    /// (1.0 saturates every link of the centralized/FDD frame).
    pub(crate) offered_load: f64,
    /// Outcome on the centralized GreedyPhysical frame.
    pub(crate) centralized: LoadPoint,
    /// Outcome on the distributed FDD frame (equal to the centralized frame
    /// by Theorem 4, so its knee coincides).
    pub(crate) fdd: LoadPoint,
    /// Outcome on the distributed PDD (p = 0.8) frame. PDD frames are
    /// longer, so their per-link shares are smaller and the knee arrives at
    /// a lower absolute load — the measurable cost of randomization.
    pub(crate) pdd_08: LoadPoint,
}

/// Delay-vs-load data on the paper grid scenario: the same absolute packet
/// streams (per-node rates scaled by `load / centralized_frame_slots`, so
/// `load = 1` is the centralized frame's exact capacity) are driven over the
/// Centralized, FDD and PDD (p = 0.8) frames. Every column simulates the
/// same **absolute** slot budget — `horizon_frames` repetitions of the
/// centralized frame, converted to each schedule's own frame count — so the
/// per-row comparison is horizon-fair even though the frames differ in
/// length. The stability knee is where delay turns vertical and throughput
/// leaves 100%: at `load ≈ 1` for Centralized/FDD, and at
/// `load ≈ L_centralized / L_pdd` for PDD.
pub fn delay_vs_load(
    loads: &[f64],
    node_count: usize,
    seed: u64,
    horizon_frames: u64,
) -> Result<Vec<DelayVsLoadRow>, BenchError> {
    let instance = PaperScenario::grid(2_000.0)
        .with_node_count(node_count)
        .instantiate(seed)?;
    let centralized = instance.run_centralized();
    let fdd = instance.run_protocol(ProtocolKind::Fdd)?.schedule;
    let pdd = instance.run_protocol(ProtocolKind::pdd(0.8)?)?.schedule;
    let reference = centralized.length() as u64;
    if reference == 0 {
        // Every node is a gateway (node_count <= 4): nothing is demanded.
        return Err(scream_traffic::TrafficError::EmptyFrame.into());
    }
    loads
        .iter()
        .map(|&load| {
            let point = |schedule: &Schedule| {
                // Same absolute horizon for every schedule: the shared slot
                // budget in units of this schedule's own frame.
                let slot_budget = reference * horizon_frames;
                let frames = slot_budget.div_ceil(schedule.length() as u64).max(1);
                let report = instance.run_traffic_against(schedule, load, reference, frames)?;
                Ok::<_, BenchError>(LoadPoint {
                    delay_p95_slots: report.delay.p95_slots,
                    throughput_pct: report.sustained_throughput_pct,
                    stable: report.verdict.is_stable(),
                })
            };
            Ok(DelayVsLoadRow {
                offered_load: load,
                centralized: point(&centralized)?,
                fdd: point(&fdd)?,
                pdd_08: point(&pdd)?,
            })
        })
        .collect()
}

/// Renders delay-vs-load rows as a table ("+"/"sat" marks the verdict).
pub fn delay_vs_load_table(rows: &[DelayVsLoadRow]) -> Table {
    let mut table = Table::new(
        "Delay vs. offered load — paper grid, Centralized / FDD / PDD p=0.8 frames",
        &[
            "load",
            "Cent delay p95",
            "Cent thr(%)",
            "Cent",
            "FDD delay p95",
            "FDD thr(%)",
            "FDD",
            "PDD delay p95",
            "PDD thr(%)",
            "PDD",
        ],
    );
    let mark = |stable: bool| if stable { "+" } else { "sat" }.to_string();
    for row in rows {
        table.push_row(vec![
            format!("{:.2}", row.offered_load),
            format!("{:.1}", row.centralized.delay_p95_slots),
            format!("{:.1}", row.centralized.throughput_pct),
            mark(row.centralized.stable),
            format!("{:.1}", row.fdd.delay_p95_slots),
            format!("{:.1}", row.fdd.throughput_pct),
            mark(row.fdd.stable),
            format!("{:.1}", row.pdd_08.delay_p95_slots),
            format!("{:.1}", row.pdd_08.throughput_pct),
            mark(row.pdd_08.stable),
        ]);
    }
    table
}

/// Figure 4 data: SCREAM detection error versus SCREAM size on the simulated
/// mote testbed.
pub fn fig4_mote_detection(
    sizes: &[usize],
    screams_per_run: usize,
    seed: u64,
) -> Vec<DetectionErrorPoint> {
    let base = MoteExperimentConfig::paper_default()
        .with_scream_count(screams_per_run)
        .with_seed(seed);
    DetectionErrorPoint::sweep(base, sizes)
}

/// Renders Figure 4 points as a table.
pub fn mote_detection_table(points: &[DetectionErrorPoint]) -> Table {
    let mut table = Table::new(
        "Fig. 4 — Percentage Error in SCREAM detection vs SCREAM size (bytes)",
        &["scream(bytes)", "error(%)", "detection rate"],
    );
    for p in points {
        table.push_row(vec![
            p.scream_bytes.to_string(),
            format!("{:.1}", p.error_percentage),
            format!("{:.3}", p.detection_rate),
        ]);
    }
    table
}

/// Figure 5 data: the monitor's RSSI moving-average trace for a 24-byte
/// SCREAM, over the requested window.
pub fn fig5_rssi_trace(scream_bytes: usize, window: SimTime, seed: u64) -> RssiTrace {
    let config = MoteExperimentConfig::paper_default()
        .with_scream_bytes(scream_bytes)
        .with_scream_count(((window.as_secs_f64() / 0.1).ceil() as usize + 2).max(2))
        .with_seed(seed);
    let result = MoteExperiment::new(config).run_with_trace(SimTime::ZERO, window);
    result.trace().clone()
}

/// Renders the Figure 5 moving-average series as a table (time vs dBm).
pub fn rssi_trace_table(trace: &RssiTrace) -> Table {
    let mut table = Table::new(
        "Fig. 5 — Moving Average of RSSI values (24-byte SCREAMs)",
        &["time(ms)", "moving average(dBm)"],
    );
    for (time, value) in trace.moving_average_series() {
        table.push_row(vec![
            format!("{:.1}", time.as_secs_f64() * 1000.0),
            format!("{:.1}", value.get()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_reduced_instance_shows_fdd_tracking_centralized() {
        let rows = fig6_grid_improvement(&[2000.0, 8000.0], 16, 1, 3).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                (row.fdd - row.centralized).abs() < 1e-9,
                "FDD must equal the centralized schedule length: {row:?}"
            );
            assert!(row.centralized >= row.pdd_08 - 1e-9, "{row:?}");
            assert!(row.centralized >= 0.0 && row.centralized <= 100.0);
        }
        let table = improvement_table("Fig. 6", &rows);
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn fig7_reduced_instance_produces_rows_for_every_density() {
        let rows = fig7_uniform_improvement(&[3000.0], 16, 1, 5).unwrap();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].fdd - rows[0].centralized).abs() < 1e-9);
    }

    #[test]
    fn fig8_execution_time_grows_with_both_parameters() {
        let (by_size, by_diameter) = fig8_execution_time(&[5, 40], &[6, 24], 16, 7).unwrap();
        assert!(by_size[1].fdd_secs > by_size[0].fdd_secs);
        assert!(by_diameter[1].fdd_secs > by_diameter[0].fdd_secs);
        // PDD is always faster than FDD at the same parameter value.
        for row in by_size.iter().chain(by_diameter.iter()) {
            assert!(row.pdd_secs < row.fdd_secs, "{row:?}");
        }
        let table = execution_time_table("Fig. 8", "bytes", &by_size);
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn fig9_execution_time_grows_with_clock_skew() {
        // 36 nodes rather than 16: the FDD-over-PDD execution-time gap is a
        // per-iteration election cost, which only dominates once the node
        // count (and hence the number of iterations per round) is large
        // enough — at toy sizes the two protocols are within noise of each
        // other, which is consistent with the paper evaluating 64 nodes.
        let rows = fig9_clock_skew(&[1e-6, 1e-3, 1e-1], 36, 9).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[2].fdd_secs > rows[0].fdd_secs * 10.0);
        assert!(rows[2].pdd_secs > rows[0].pdd_secs);
        assert!(rows[0].fdd_secs > rows[0].pdd_secs);
        assert_eq!(clock_skew_table(&rows).row_count(), 3);
    }

    #[test]
    fn channel_ablation_shrinks_the_schedule_by_one_over_c() {
        // The acceptance criterion: on the fixed 64-link heavy-demand
        // instance the channel-aware schedule length stays within 10 % of
        // ceil(L1 / C) for C in {2, 4}.
        let rows = channel_ablation(100, &[1, 2, 4], false).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].channel_count, 1);
        assert_eq!(rows[0].slots, rows[0].ideal_slots, "C = 1 is its own ideal");
        for row in &rows[1..] {
            assert!(
                row.ratio_vs_ideal <= 1.10,
                "C = {} misses the 10% bar: {} slots vs ideal {}",
                row.channel_count,
                row.slots,
                row.ideal_slots
            );
            assert!(
                row.ratio_vs_ideal >= 1.0 - 1e-12,
                "a verified schedule cannot beat the ideal shrink: {row:?}"
            );
        }
        // Spatial reuse multiplies with the channel count on this instance.
        assert!(rows[2].spatial_reuse > rows[0].spatial_reuse * 3.0);
        // Without the distributed run the FDD columns stay empty and render
        // as placeholders.
        assert!(rows.iter().all(|r| r.fdd_slots.is_none()));
        let table = channel_ablation_table(100, &rows);
        assert_eq!(table.row_count(), 3);
        let rendered = table.render();
        assert!(rendered.contains("ideal ceil(L1/C)"));
        assert!(rendered.contains("FDD slots"));
    }

    #[test]
    fn distributed_fdd_reproduces_the_exact_one_over_c_shrink() {
        // The acceptance criterion: channel-aware FDD reproduces the exact
        // 1/C shrink of centralized GreedyPhysical on the 64-link
        // heavy-demand instance — 1200 → 600 → 300 slots for C = 1, 2, 4 at
        // 100 slots/link — with every distributed run verified.
        let rows = channel_ablation(100, &[1, 2, 4], true).unwrap();
        assert_eq!(rows.len(), 3);
        let lengths: Vec<usize> = rows.iter().map(|r| r.fdd_slots.unwrap()).collect();
        assert_eq!(lengths, vec![1200, 600, 300]);
        for row in &rows {
            // Channel-aware Theorem 4 on the bench surface: FDD tracks the
            // centralized column slot for slot at every channel count.
            assert_eq!(row.fdd_slots, Some(row.slots), "C = {}", row.channel_count);
            assert_eq!(row.fdd_ratio_vs_ideal, Some(row.ratio_vs_ideal));
            assert!(row.fdd_ratio_vs_ideal.unwrap() <= 1.10);
        }
        let table = channel_ablation_table(100, &rows);
        assert!(table.render().contains("1200"));
        assert!(
            !table.render().contains(" - "),
            "no placeholder cells when the FDD column is filled"
        );
    }

    #[test]
    fn delay_vs_load_finds_the_stability_knee() {
        // Reduced instance of the figure: loads straddling the centralized
        // frame's capacity. Below the knee all three frames carry the load
        // (PDD too, unless its frame is long enough that 0.5 already
        // saturates it); far above, every frame saturates and delay blows up.
        let rows = delay_vs_load(&[0.5, 1.6], 16, 3, 150).unwrap();
        assert_eq!(rows.len(), 2);
        let (below, above) = (&rows[0], &rows[1]);
        assert!(below.centralized.stable && below.fdd.stable);
        assert!(below.centralized.throughput_pct > 98.0);
        // Theorem 4: the FDD frame *is* the centralized frame, so the
        // packet-level outcome matches exactly.
        assert_eq!(below.fdd, below.centralized);
        assert_eq!(above.fdd, above.centralized);
        assert!(!above.centralized.stable);
        assert!(!above.pdd_08.stable);
        assert!(above.centralized.throughput_pct < 90.0);
        assert!(above.centralized.delay_p95_slots > below.centralized.delay_p95_slots);
        // PDD's knee is earlier (longer frame): at any load it is at least
        // as saturated as the centralized frame.
        assert!(above.pdd_08.throughput_pct <= above.centralized.throughput_pct + 1e-9);
        let table = delay_vs_load_table(&rows);
        assert_eq!(table.row_count(), 2);
        let rendered = table.render();
        assert!(rendered.contains("sat"));
        assert!(rendered.contains("load"));
    }

    #[test]
    fn fig4_error_falls_with_scream_size() {
        let points = fig4_mote_detection(&[4, 24], 120, 1);
        assert_eq!(points.len(), 2);
        assert!(points[0].error_percentage > points[1].error_percentage);
        assert_eq!(mote_detection_table(&points).row_count(), 2);
    }

    #[test]
    fn fig5_trace_contains_scream_peaks() {
        let trace = fig5_rssi_trace(24, SimTime::from_millis(350), 2);
        assert!(!trace.is_empty());
        assert!(trace.peak_moving_average_dbm().get() > -60.0);
        assert!(rssi_trace_table(&trace).row_count() > 10);
    }
}
