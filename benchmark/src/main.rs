//! The repository's benchmark (see `README.md` here and `BENCHMARK.json` at
//! the root).
//!
//! ```text
//! scream-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]
//! scream-benchmark --all            [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]
//! scream-benchmark --compare <a> <b>
//! scream-benchmark --benchmark-json
//! ```
//!
//! One run generates the workload's inputs from the seed, repeats the
//! pipeline single-threaded for `--seconds`, checks every output and prints
//! every metric by name with its unit; the last line of standard output is
//! the result as one JSON object. `--trace 0` (the default) reports the
//! end-to-end metrics with the `scream-obs` sink uninstalled; `--trace 1`
//! reports the per-layer metrics from passes that alternate with the sink
//! off and on, and writes the spans to `out/trace-<workload>.json`.

mod compare;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Metric, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use pipeline::{run_pass, Ops, Pass};
use trace::Tracer;
use workloads::{SetupTimings, Spec, World, WORKLOADS};

/// Set-ups before the first pass (one more precedes every later round);
/// `setup_s` is the fastest of them all.
const SETUP_REPS: usize = 5;
/// The phase spans of a traced pass must cover this share of the pass.
const MIN_PHASE_COVERAGE: f64 = 0.95;

#[derive(Debug)]
struct RunArgs {
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

#[derive(Debug)]
enum Command {
    Run(&'static Spec, RunArgs),
    All(Vec<String>),
    Compare(String, String),
    BenchmarkJson,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: --workload <{}> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out <file>]\n       --all [same options]\n       --compare <a> <b>\n       --benchmark-json",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut all = false;
    let mut run = RunArgs {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut passthrough = Vec::new();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--benchmark-json" => return Ok(Command::BenchmarkJson),
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                return Ok(Command::Compare(a, b));
            }
            "--all" => all = true,
            "--workload" => workload = Some(value(&mut i, flag)?),
            "--seed" => {
                let text = value(&mut i, flag)?;
                run.seed = text.parse().map_err(|_| format!("bad seed {text:?}"))?;
                passthrough.extend([flag.to_string(), text]);
            }
            "--seconds" => {
                let text = value(&mut i, flag)?;
                run.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {text:?}"))?;
                passthrough.extend([flag.to_string(), text]);
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                run.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
                passthrough.extend([flag.to_string(), u8::from(run.trace).to_string()]);
            }
            "--out" => {
                let text = value(&mut i, flag)?;
                passthrough.extend([flag.to_string(), text.clone()]);
                run.out = Some(text);
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
        i += 1;
    }
    if all {
        return Ok(Command::All(passthrough));
    }
    let name = workload.ok_or_else(usage)?;
    let spec =
        workloads::find(&name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?;
    Ok(Command::Run(spec, run))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The benchmark's own directory: where `cargo run` found the manifest.
fn benchmark_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| env!("CARGO_MANIFEST_DIR").into(), Into::into)
}

/// Share of each recorded pass that its phase spans cover (the minimum).
fn phase_coverage(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    spans
        .iter()
        .enumerate()
        .filter(|(_, span)| span.name == "pass")
        .map(|(id, pass)| {
            let phases: u64 = spans
                .iter()
                .filter(|span| span.parent == Some(id))
                .map(|span| span.end_ns - span.start_ns)
                .sum();
            phases as f64 / (pass.end_ns - pass.start_ns).max(1) as f64
        })
        .fold(1.0, f64::min)
}

fn result_json(table: &[Metric], values: &Values, ops: &Ops) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failures.is_empty(),
        ops.attempted,
        ops.failures.len()
    );
    for (i, metric) in table.iter().enumerate() {
        let separator = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{separator}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, values[metric.name].value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn run_workload(spec: &Spec, args: &RunArgs) -> Result<bool, String> {
    eprintln!(
        "# {}: seed {}, {} s, trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Set-ups are spread over the run like everything else that is timed:
    // a few up front, then one before every round of passes.
    let mut world = World::generate(spec, args.seed);
    let fingerprint = world.fingerprint;
    let mut setups = vec![world.timings];
    let set_up_again = |world: &mut World, setups: &mut Vec<SetupTimings>| {
        *world = World::generate(spec, args.seed);
        setups.push(world.timings);
        world.fingerprint == fingerprint
    };
    let mut same_inputs = true;
    for _ in 1..SETUP_REPS {
        same_inputs &= set_up_again(&mut world, &mut setups);
    }

    let mut tracer = Tracer::new();
    let mut ops = Ops::default();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let checks = plain.is_empty().then_some(&mut ops);
        plain.push(run_pass(spec, &world, &mut tracer, checks));
        if args.trace {
            scream::obs::install_with_capacity(0);
            tracer.set_recording(true);
            traced.push(run_pass(spec, &world, &mut tracer, None));
            tracer.set_recording(false);
            scream::obs::uninstall();
        }
        // Another round only if it ends nearer to the budget than stopping.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / plain.len() as f64 > args.seconds {
            break;
        }
        same_inputs &= set_up_again(&mut world, &mut setups);
    }
    if !same_inputs {
        return Err("the same seed generated different inputs".into());
    }
    let first = &plain[0].outputs;
    for (index, pass) in plain.iter().chain(&traced).enumerate().skip(1) {
        ops.check(pass.outputs == *first, || {
            format!("pass {index} did not reproduce the first pass's outputs")
        });
    }
    eprintln!(
        "# {} passes in {:.1} s; seconds per phase, one row per pass:",
        plain.len() + traced.len(),
        start.elapsed().as_secs_f64()
    );
    let phases: Vec<&str> = plain[0].phases.keys().copied().collect();
    eprintln!("# {}", phases.join(" "));
    for pass in plain.iter().chain(&traced) {
        let row: Vec<String> = phases
            .iter()
            .map(|phase| format!("{:.4}", pass.seconds(phase)))
            .collect();
        eprintln!("# {}", row.join(" "));
    }

    let (table, values): (&[Metric], Values) = if args.trace {
        let schedule = &plain[0].schedules[0];
        tracer.set_recording(true);
        let costs = layers::measure(spec, &world, schedule, &mut tracer);
        tracer.set_recording(false);
        let coverage = phase_coverage(&tracer);
        ops.check(coverage >= MIN_PHASE_COVERAGE, || {
            format!(
                "phase spans cover {:.1} % of a traced pass",
                coverage * 100.0
            )
        });
        eprintln!(
            "# phase spans cover {:.2} % of the traced pass; self time by span:",
            coverage * 100.0
        );
        eprintln!(
            "# {:<42} {:>7} {:>11} {:>11}",
            "span", "calls", "total_s", "self_s"
        );
        for (name, calls, total, own) in tracer.self_times() {
            eprintln!("# {name:<42} {calls:>7} {total:>11.6} {own:>11.6}");
        }
        let dir = benchmark_dir().join("out");
        let path = dir.join(format!("trace-{}.json", spec.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name, args.seed)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (
            &PER_LAYER,
            metrics::per_layer_values(&setups, &plain, &traced, &costs),
        )
    } else {
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        (
            &END_TO_END,
            metrics::end_to_end_values(&setups, &plain, rss),
        )
    };
    for metric in table {
        let value = values
            .get(metric.name)
            .ok_or_else(|| format!("no value for {}", metric.name))?;
        ops.check(value.value.is_finite(), || {
            format!("{} is not a finite number", metric.name)
        });
    }

    println!(
        "workload {}  seed {}  fingerprint {:016x}  passes {}  operations {} (failed {})",
        spec.name,
        args.seed,
        world.fingerprint,
        plain.len() + traced.len(),
        ops.attempted,
        ops.failures.len()
    );
    println!(
        "{:<40} {:>20} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for metric in table {
        let value = values[metric.name];
        println!(
            "{:<40} {:>20.6} {:<6} {:>7}",
            metric.name, value.value, metric.unit, value.samples
        );
    }
    for failure in &ops.failures {
        eprintln!("FAILED: {failure}");
    }
    let result = result_json(table, &values, &ops);
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}\n",
            spec.name,
            args.seed,
            u8::from(args.trace),
            &result[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| file.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(ops.failures.is_empty())
}

/// Runs every workload, each in a process of its own so `peak_rss_mb` is
/// that workload's alone.
fn run_all(passthrough: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for spec in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(passthrough)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|command| match command {
        Command::BenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Command::Compare(a, b) => compare::run(&a, &b),
        Command::All(passthrough) => run_all(&passthrough),
        Command::Run(spec, run) => run_workload(spec, &run),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let command = parse(&[
            "--workload",
            "grid8k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        match command {
            Ok(Command::Run(spec, run)) => {
                assert_eq!(spec.name, "grid8k");
                assert_eq!((run.seed, run.seconds, run.trace), (7, 3.0, true));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&["--workload", "churn196", "--trace", "0"]),
            Ok(Command::Run(_, RunArgs { trace: false, .. }))
        ));
        assert!(matches!(
            parse(&["--trace", "--workload", "churn196"]),
            Ok(Command::Run(_, RunArgs { trace: true, .. }))
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "grid8k", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "grid8k", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn all_passes_the_run_options_through() {
        match parse(&["--all", "--seed", "2", "--trace"]) {
            Ok(Command::All(rest)) => assert_eq!(rest, ["--seed", "2", "--trace", "1"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A miniature workload, so the whole pipeline runs in a debug build too.
    const TINY: Spec = Spec {
        name: "tiny",
        why: "test only",
        lattice: workloads::LatticeSpec {
            links: 60,
            c2_links: 30,
            failed_links: 2,
        },
        meshes: &[workloads::MeshSpec {
            family: workloads::MeshFamily::PlannedGrid,
            nodes: 36,
        }],
        mesh_failed_links: 2,
        traffic_on_lattice: false,
        stable_frames: 40,
        overload_frames: 20,
        churn: workloads::ChurnSpec {
            horizon_frames: 60,
            link_outages: 3,
            node_outages: 1,
            flow_churns: 1,
            fades: 1,
            rho: 0.8,
        },
    };

    /// An end-to-end run of the pipeline, sink off then on: every metric of
    /// both tables gets a finite value and no operation fails.
    #[test]
    fn a_short_run_reports_every_metric() {
        let spec = &TINY;
        let world = World::generate(spec, 3);
        let mut tracer = Tracer::new();
        let mut ops = Ops::default();
        let plain = vec![run_pass(spec, &world, &mut tracer, Some(&mut ops))];
        scream::obs::install_with_capacity(0);
        tracer.set_recording(true);
        let traced = vec![run_pass(spec, &world, &mut tracer, None)];
        scream::obs::uninstall();
        let costs = layers::measure(spec, &world, &plain[0].schedules[0], &mut tracer);
        tracer.set_recording(false);
        assert_eq!(ops.failures, Vec::<String>::new());
        assert!(ops.attempted >= 10);
        assert_eq!(
            plain[0].outputs, traced[0].outputs,
            "the sink changes nothing"
        );
        assert!(phase_coverage(&tracer) >= MIN_PHASE_COVERAGE);

        let setups = [world.timings];
        let e2e = metrics::end_to_end_values(&setups, &plain, 1.0);
        let layer = metrics::per_layer_values(&setups, &plain, &traced, &costs);
        for (table, values) in [(&END_TO_END[..], &e2e), (&PER_LAYER[..], &layer)] {
            assert_eq!(values.len(), table.len());
            for metric in table {
                let value = values[metric.name].value;
                assert!(value.is_finite(), "{} = {value}", metric.name);
            }
        }
        for metric in &END_TO_END {
            assert!(e2e[metric.name].value > 0.0, "{} is zero", metric.name);
        }
        assert!(layer["scheduling.greedy.links"].value > 0.0);
        assert!(layer["core.claims"].value > 0.0);
        assert!(layer["resilience.reschedules"].value > 0.0);
        let json = result_json(&END_TO_END, &e2e, &ops);
        let parsed = json::Json::parse(&json).expect("the result line is JSON");
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.as_object())
                .map(<[_]>::len),
            Some(END_TO_END.len())
        );
    }
}
