//! Regenerates every table of the evaluation: the paper's Figs. 4–9, the
//! ablations, the traffic and recovery figures, the theory checks and the
//! density sweep — one subcommand each, all listed in [`COMMANDS`].
//!
//! Usage: `cargo run --release -p scream-bench --bin figures -- <subcommand> [args]`
//! (`list`, or no arguments, prints the subcommand table). `all` with default
//! arguments is committed as `crates/bench/FIGURES.txt`; CI diffs it. Context
//! lines (`# ...`) go to stderr, so stdout is deterministic.

#![expect(
    clippy::disallowed_methods,
    reason = "D1.clock: the wall clock lives in the bench binaries only; here it times `sweep` on a stderr `#` line"
)]

use std::time::Instant;

use scream_analysis::{ComplexityReport, DiameterObservation, EquivalenceReport};
use scream_bench::figures::{
    channel_ablation, channel_ablation_table, clock_skew_table, delay_vs_load, delay_vs_load_table,
    execution_time_table, fig4_mote_detection, fig5_rssi_trace, fig6_grid_improvement,
    fig7_uniform_improvement, fig8_execution_time, fig9_clock_skew, improvement_table,
    mote_detection_table, rssi_trace_table,
};
use scream_bench::{
    recovery_vs_load, BenchError, PaperScenario, RecoveryReport, ScenarioSweep, Table,
};
use scream_core::ProtocolKind;
use scream_netsim::{Db, Meters, SimTime};

/// What a subcommand puts on stdout.
enum Output {
    Tables(Vec<Table>),
    Csv(String),
}

type Run = Result<Output, BenchError>;

fn one(table: Table) -> Run {
    Ok(Output::Tables(vec![table]))
}

/// One row of the subcommand table: name, usage, generator. The usage line
/// is also the argument grammar: `[name]` is an optional positional number,
/// `[--flag ...]` an accepted flag.
type Command = (&'static str, &'static str, fn(&Args) -> Run);

/// The subcommand table, in `FIGURES.txt` order; `all` and `list` come last.
const COMMANDS: [Command; 17] = [
    ("fig4", "[screams_per_run]", fig4),
    ("fig5", "", fig5),
    ("fig6", "[runs_per_point]", fig6),
    ("fig7", "[runs_per_point]", fig7),
    ("fig8", "", fig8),
    ("fig9", "", fig9),
    ("ablate pdd-prob", "", ablate_pdd_prob),
    ("ablate scream-k", "", ablate_scream_k),
    ("ablate shadowing", "", ablate_shadowing),
    (
        "ablate channels",
        "[demand_per_link] [--fdd]",
        ablate_channels,
    ),
    (
        "delay-vs-load",
        "[node_count] [horizon_frames] [seed]",
        delay_figure,
    ),
    (
        "recovery-vs-load",
        "[node_count] [horizon_frames] [seed] [--csv]",
        recovery_figure,
    ),
    ("theory complexity", "", theory_complexity),
    ("theory id-bounds", "", theory_id_bounds),
    (
        "sweep",
        "[seeds_per_density] [--channels 1,2,4] [--csv]",
        sweep,
    ),
    ("all", "", all),
    ("list", "", list),
];

/// A subcommand's parsed arguments: positional numbers in order, plus flags.
#[derive(Debug, Default, PartialEq)]
struct Args {
    numbers: Vec<u64>,
    channels: Option<Vec<usize>>,
    csv: bool,
    fdd: bool,
}

impl Args {
    /// Parses `words` against the subcommand's usage line and rejects what it
    /// does not describe: unparseable numbers, flags or positionals it does
    /// not list, a `--channels` without its list. Counts and sizes must be
    /// positive; only a `[seed]` may be 0.
    fn parse(&(name, usage, _): &Command, words: &[String]) -> Result<Self, BenchError> {
        let reject = || BenchError::Usage(format!("usage: figures {name} {usage}"));
        let accepts = |flag: &str| usage.contains(&format!("[{flag}"));
        let mut positionals = usage
            .split_whitespace()
            .filter(|word| word.starts_with('[') && !word.starts_with("[--"));
        let mut args = Self::default();
        let mut words = words.iter();
        while let Some(word) = words.next() {
            match word.as_str() {
                "--csv" if accepts("--csv") => args.csv = true,
                "--fdd" if accepts("--fdd") => args.fdd = true,
                "--channels" if accepts("--channels") => {
                    let list = words.next().ok_or_else(reject)?;
                    let channels = list.split(',').map(|c| c.parse().ok().filter(|&c| c > 0));
                    args.channels = Some(channels.collect::<Option<_>>().ok_or_else(reject)?);
                }
                number => {
                    let positional = positionals.next().ok_or_else(reject)?;
                    let number = number.parse().map_err(|_| reject())?;
                    if number == 0 && positional != "[seed]" {
                        return Err(reject());
                    }
                    args.numbers.push(number);
                }
            }
        }
        Ok(args)
    }

    fn number(&self, index: usize, default: u64) -> u64 {
        self.numbers.get(index).copied().unwrap_or(default)
    }
}

/// The subcommand `words` starts with (names are one or two words) and the
/// words after its name.
fn find(words: &[String]) -> Result<(&'static Command, &[String]), BenchError> {
    let named = |command: &'static Command| {
        let (name, rest) = words.split_at_checked(command.0.split(' ').count())?;
        (name.join(" ") == command.0).then_some((command, rest))
    };
    COMMANDS.iter().find_map(named).ok_or_else(|| {
        let words = words.join(" ");
        BenchError::Usage(format!(
            "unknown subcommand `{words}`; `figures list` prints the table"
        ))
    })
}

fn dispatch(words: &[String]) -> Run {
    let (command, rest) = find(words)?;
    (command.2)(&Args::parse(command, rest)?)
}

/// The only place a failure becomes an exit code: 2 for bad arguments, 1
/// for a figure that could not be produced.
fn main() {
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    if words.is_empty() {
        words.push("list".to_string());
    }
    match dispatch(&words) {
        Ok(Output::Tables(tables)) => tables.iter().for_each(|table| println!("{table}")),
        Ok(Output::Csv(csv)) => print!("{csv}"),
        Err(error) => {
            eprintln!("figures: {error}");
            let usage = matches!(error, BenchError::Usage(_));
            std::process::exit(if usage { 2 } else { 1 });
        }
    }
}

const DENSITIES: [f64; 7] = [
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0,
];

fn fig4(args: &Args) -> Run {
    let screams = args.number(0, 2000) as usize;
    if screams < 2 {
        let reason = "fig4 measures the interval between SCREAMs: it needs at least 2 per run";
        return Err(BenchError::Usage(reason.to_string()));
    }
    eprintln!("# fig4: 1 initiator + 6 relays + 1 monitor, {screams} SCREAMs per point");
    let sizes = [2, 4, 6, 8, 10, 12, 15, 20, 24, 28, 32, 40];
    let points = fig4_mote_detection(&sizes, screams, 7);
    one(mote_detection_table(&points))
}

fn fig5(_: &Args) -> Run {
    let trace = fig5_rssi_trace(24, SimTime::from_millis(400), 3);
    one(rssi_trace_table(&trace))
}

fn fig6(args: &Args) -> Run {
    let runs = args.number(0, 3) as usize;
    eprintln!("# fig6: 64-node planned grid, 4 gateways, demand U[1,10], {runs} run(s) per point");
    let rows = fig6_grid_improvement(&DENSITIES, 64, runs, 2024)?;
    let title = "Fig. 6 — Schedule Length Improvement for Grid (planned, homogeneous power)";
    one(improvement_table(title, &rows))
}

fn fig7(args: &Args) -> Run {
    let runs = args.number(0, 3) as usize;
    eprintln!("# fig7: 64-node unplanned placement, heterogeneous power, {runs} run(s) per point");
    let rows = fig7_uniform_improvement(&DENSITIES, 64, runs, 4048)?;
    let title = "Fig. 7 — Schedule Length Improvement for Uniform Random Placement \
                 (unplanned, heterogeneous power)";
    one(improvement_table(title, &rows))
}

fn fig8(_: &Args) -> Run {
    let swept = [5, 10, 15, 20, 30, 40, 50, 60];
    let (by_size, by_k) = fig8_execution_time(&swept, &swept, 64, 77)?;
    let size_title = "Fig. 8a — Execution Time vs. SCREAM size";
    let k_title = "Fig. 8b — Execution Time vs. Interference Diameter (K)";
    Ok(Output::Tables(vec![
        execution_time_table(size_title, "scream(bytes)", &by_size),
        execution_time_table(k_title, "K(slots)", &by_k),
    ]))
}

fn fig9(_: &Args) -> Run {
    let skews = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];
    one(clock_skew_table(&fig9_clock_skew(&skews, 64, 99)?))
}

/// PDD activation probability beyond the paper's {0.2, 0.6, 0.8}: schedule
/// quality and execution time.
fn ablate_pdd_prob(_: &Args) -> Run {
    let instance = PaperScenario::grid(5_000.0).instantiate(17)?;
    let centralized = instance.metrics(&instance.run_centralized());
    let title = format!(
        "Ablation — PDD activation probability (centralized improvement {:.1}%)",
        centralized.improvement_over_linear_pct
    );
    let mut table = Table::new(title, &["p", "improvement(%)", "time(s)", "tried fraction"]);
    for p in [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let run = instance.run_protocol(ProtocolKind::pdd_unchecked(p))?;
        let metrics = run.metrics(&instance.link_demands);
        table.push_row(vec![
            format!("{p:.2}"),
            format!("{:.1}", metrics.improvement_over_linear_pct),
            format!("{:.2}", run.execution_secs()),
            format!("{:.2}", run.stats.tried_fraction()),
        ]);
    }
    one(table)
}

/// How K (SCREAM slots per invocation) trades execution time against the
/// safety margin over the true interference diameter; the schedule itself
/// does not move as long as K >= ID(G_S).
fn ablate_scream_k(_: &Args) -> Run {
    let scenario = PaperScenario::grid(5_000.0).with_node_count(36);
    let instance = scenario.instantiate(5)?;
    let id = instance.interference_diameter;
    let title = format!("Ablation — K vs execution time (true ID = {id})");
    let mut table = Table::new(title, &["K(slots)", "FDD time(s)", "schedule slots"]);
    for k in [id, id + 2, id + 5, id * 2, id * 4, id * 8] {
        let config = instance.protocol_config().with_scream_slots(k);
        let run = instance.run_protocol_with(ProtocolKind::Fdd, config)?;
        let secs = format!("{:.2}", run.execution_secs());
        table.push_row(vec![k.to_string(), secs, run.schedule.length().to_string()]);
    }
    one(table)
}

/// Sensitivity of the schedule-length improvement to the log-normal
/// shadowing sigma, which the paper does not report.
fn ablate_shadowing(_: &Args) -> Run {
    let mut table = Table::new(
        "Ablation — shadowing sigma vs schedule-length improvement (64-node grid, 5000 nodes/km^2)",
        &["sigma(dB)", "Centralized(%)", "FDD(%)", "PDD p=0.6(%)"],
    );
    for sigma in [0.0, 2.0, 4.0, 6.0, 8.0] {
        let scenario = PaperScenario::grid(5_000.0).with_shadowing(Db::new(sigma));
        let instance = scenario.instantiate(23)?;
        let demands = &instance.link_demands;
        let centralized = instance.metrics(&instance.run_centralized());
        let fdd = instance.run_protocol(ProtocolKind::Fdd)?.metrics(demands);
        let pdd = instance.run_protocol(ProtocolKind::pdd_unchecked(0.6))?;
        let improvements = [centralized, fdd, pdd.metrics(demands)];
        let row = improvements.map(|metrics| metrics.improvement_over_linear_pct);
        table.push_values(format!("{sigma:.1}"), &row);
    }
    one(table)
}

fn ablate_channels(args: &Args) -> Run {
    let demand_per_link = args.number(0, 10_000);
    let rows = channel_ablation(demand_per_link, &[1, 2, 4, 8], args.fdd)?;
    one(channel_ablation_table(demand_per_link, &rows))
}

fn delay_figure(args: &Args) -> Run {
    let (nodes, frames, seed) = (
        args.number(0, 64),
        args.number(1, 150),
        args.number(2, 2024),
    );
    eprintln!("# delay-vs-load: {nodes}-node paper grid, {frames} frames per cell, seed {seed}");
    let loads = [0.5, 0.7, 0.85, 0.95, 1.0, 1.05, 1.2, 1.5];
    let rows = delay_vs_load(&loads, nodes as usize, seed, frames)?;
    one(delay_vs_load_table(&rows))
}

fn recovery_figure(args: &Args) -> Run {
    let (nodes, frames, seed) = (args.number(0, 64), args.number(1, 40), args.number(2, 2024));
    eprintln!("# recovery-vs-load: {nodes}-node paper grid, {frames} frames, seed {seed}");
    let loads = [0.5, 0.6, 0.7, 0.8, 0.9];
    let points = recovery_vs_load(&loads, nodes as usize, seed, frames)?;
    let table = RecoveryReport { points }.to_table(
        "Recovery vs. offered load — single-link failure, no-repair baseline vs rescheduler",
    );
    if args.csv {
        return Ok(Output::Csv(table.to_csv()));
    }
    one(table)
}

/// Theorem 5's complexity bound and Theorem 4's FDD/GreedyPhysical
/// equivalence on concrete instances.
fn theory_complexity(_: &Args) -> Run {
    let mut bound = Table::new(
        "Theorem 5 — measured synchronized steps vs. TD * ID * n * log n",
        &["protocol", "n", "TD", "ID", "steps", "bound", "utilization"],
    );
    for obs in ComplexityReport::on_grids(&[4, 6, 8], Meters::new(150.0), true, 11)?.observations {
        bound.push_row(vec![
            obs.protocol.clone(),
            obs.node_count.to_string(),
            obs.total_demand.to_string(),
            obs.interference_diameter.to_string(),
            obs.measured_steps.to_string(),
            format!("{:.0}", obs.theorem_bound),
            format!("{:.4}", obs.utilization_of_bound()),
        ]);
    }
    let mut equivalence = Table::new(
        "Theorem 4 — FDD schedule equals centralized GreedyPhysical",
        &["scenario", "instances", "identical", "rate"],
    );
    let grid = EquivalenceReport::on_grid_instances(6, Meters::new(150.0), 5, 101, 1)?;
    let uniform = EquivalenceReport::on_uniform_instances(36, Meters::new(900.0), 5, 202, 1)?;
    for (name, report) in [("grid", grid), ("uniform", uniform)] {
        let identical = report.outcomes.iter().filter(|o| o.identical).count();
        equivalence.push_row(vec![
            name.to_string(),
            report.outcomes.len().to_string(),
            identical.to_string(),
            format!("{:.2}", report.equivalence_rate()),
        ]);
    }
    Ok(Output::Tables(vec![bound, equivalence]))
}

/// Measured ID(G) against the analytical bounds of Section IV-B (Theorems 2
/// and 3, plus the infinite-density discussion).
fn theory_id_bounds(_: &Args) -> Run {
    let headers = [
        "scenario",
        "n",
        "rho",
        "ID(G)",
        "bound",
        "sqrt(n/rho)",
        "within bound",
    ];
    let title = "Section IV-B — interference diameter vs. analytical bounds";
    let mut table = Table::new(title, &headers);
    let grids = [4, 8, 12, 16, 20, 24]
        .map(|side| DiameterObservation::square_grid(side, Meters::new(100.0)));
    let uniforms = [(64, 1), (128, 2), (256, 3), (512, 4)]
        .into_iter()
        .map(|(n, seed)| DiameterObservation::random_uniform(n, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let dense = DiameterObservation::infinite_density(
        Meters::new(500.0),
        Meters::new(25.0),
        Meters::new(200.0),
    );
    let named = (grids.map(|obs| ("grid", obs)).into_iter())
        .chain(uniforms.into_iter().map(|obs| ("uniform", obs)))
        .chain([("infinite-density", dense)]);
    for (name, obs) in named {
        table.push_row(vec![
            name.to_string(),
            obs.node_count.to_string(),
            format!("{:.1}", obs.neighbor_density),
            obs.interference_diameter.to_string(),
            format!("{:.1}", obs.theoretical_bound),
            format!("{:.1}", obs.sqrt_n_over_rho),
            obs.respects_bound().to_string(),
        ]);
    }
    one(table)
}

/// The verified centralized baseline, FDD and the serialized baseline per
/// (density, channel, seed) cell of the 64-node paper grid.
fn sweep(args: &Args) -> Run {
    let seeds: Vec<u64> = (1..=args.number(0, 3)).collect();
    let sweep = ScenarioSweep::new(PaperScenario::grid(1_000.0))
        .densities(&[1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0])
        .channel_counts(args.channels.as_deref().unwrap_or(&[1]))
        .seeds(&seeds);
    let start = Instant::now();
    let report = sweep.report()?;
    let (cells, secs) = (report.points.len(), start.elapsed().as_secs_f64());
    eprintln!("# sweep: {cells} cells (density x channel x seed), {secs:.2}s");
    let title = format!("Density sweep — centralized / FDD / linear ({cells} cells)");
    let table = report.to_table(title);
    if args.csv {
        return Ok(Output::Csv(table.to_csv()));
    }
    one(table)
}

/// Every figure at its default arguments, in table order: `FIGURES.txt`.
fn all(_: &Args) -> Run {
    let mut tables = Vec::new();
    for (_, _, run) in &COMMANDS[..COMMANDS.len() - 2] {
        if let Output::Tables(figure) = run(&Args::default())? {
            tables.extend(figure);
        }
    }
    Ok(Output::Tables(tables))
}

fn list(_: &Args) -> Run {
    let title = "figures <subcommand> [arguments] — counts are positive integers";
    let mut table = Table::new(title, &["subcommand", "arguments"]);
    for (name, usage, _) in COMMANDS {
        table.push_row(vec![name.to_string(), usage.to_string()]);
    }
    one(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_row_runs_at_smoke_size() {
        for (i, (name, ..)) in COMMANDS.iter().enumerate() {
            let unique = COMMANDS[..i].iter().all(|earlier| earlier.0 != *name);
            assert!(unique, "duplicate subcommand {name}");
            let smoke = match *name {
                // Every other row at full size; CI runs it in release and
                // diffs it against FIGURES.txt.
                "all" => continue,
                "fig4" => "200",
                "fig6" | "fig7" | "sweep" => "1",
                "ablate channels" => "100 --fdd",
                "delay-vs-load" => "16 50 3",
                "recovery-vs-load" => "16 20 3",
                _ => "",
            };
            let output = dispatch(&words(&format!("{name} {smoke}")));
            let Output::Tables(tables) = output.unwrap_or_else(|e| panic!("{name}: {e}")) else {
                panic!("{name} printed CSV unasked");
            };
            let filled = tables.iter().all(|table| table.row_count() > 0);
            assert!(
                !tables.is_empty() && filled,
                "{name} printed an empty table"
            );
        }
    }

    #[test]
    fn csv_flags_switch_the_output_format() {
        for line in ["recovery-vs-load 16 20 3 --csv", "sweep 1 --csv"] {
            let Ok(Output::Csv(csv)) = dispatch(&words(line)) else {
                panic!("{line} must print CSV");
            };
            assert!(csv.lines().count() > 1, "{line}: {csv}");
        }
    }

    #[test]
    fn the_invocations_the_tree_uses_parse_to_what_the_old_binaries_computed() {
        let parsed = |line: &str| {
            let words = words(line);
            let (command, rest) = find(&words).unwrap();
            Args::parse(command, rest).unwrap()
        };
        let args = |numbers: &[u64], channels: Option<&[usize]>, csv, fdd| Args {
            numbers: numbers.to_vec(),
            channels: channels.map(<[usize]>::to_vec),
            csv,
            fdd,
        };
        assert_eq!(parsed("fig6"), Args::default());
        assert_eq!(
            parsed("delay-vs-load 16 50 0"),
            args(&[16, 50, 0], None, false, false)
        );
        assert_eq!(
            parsed("ablate channels 100 --fdd"),
            args(&[100], None, false, true)
        );
        assert_eq!(
            parsed("ablate channels --fdd 100"),
            args(&[100], None, false, true)
        );
        let csv = args(&[64, 40, 2024], None, true, false);
        assert_eq!(parsed("recovery-vs-load 64 40 2024 --csv"), csv);
        let grid = args(&[3], Some(&[1, 2, 4]), true, false);
        assert_eq!(parsed("sweep 3 --channels 1,2,4 --csv"), grid);
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        for line in [
            "fig6 1O",               // not a number
            "fig6 -1",               // not a count
            "fig6 0",                // a count of zero
            "fig4 1",                // one SCREAM has no interval
            "fig6 --csv",            // a flag fig6 does not take
            "sweep --frobnicate",    // a flag nothing takes
            "fig6 1 2",              // surplus positional
            "fig5 7",                // surplus positional on a fixed figure
            "sweep --channels",      // the list is missing
            "sweep --channels 1,,2", // the list is malformed
            "sweep --channels 0",    // zero channels
            "fig66",                 // unknown subcommand
            "ablate",                // half a subcommand
            "ablate gateways",       // unknown ablation
        ] {
            let rejected = matches!(dispatch(&words(line)), Err(BenchError::Usage(_)));
            assert!(rejected, "`figures {line}` must be a usage error");
        }
        let Err(error) = dispatch(&words("fig6 1O")) else {
            panic!("`figures fig6 1O` must be rejected");
        };
        assert_eq!(error.to_string(), "usage: figures fig6 [runs_per_point]");
    }
}
