//! Traces one scheduling run on the paper's 64-node grid through the
//! `scream-obs` sink: install the sink, build and verify the schedule, then
//! print what the instrumentation saw. The run is `GreedyPhysical` by
//! default; `--protocol fdd|afdd` traces the distributed runtime instead
//! (`runtime.rounds` logical rounds against the `runtime.rounds.executed`
//! actually simulated).
//!
//! Two modes share one deterministic run:
//!
//! * default — human-readable tables: every counter, gauge and histogram in
//!   the final [`Snapshot`](scream_obs::Snapshot), plus the derived probe
//!   profile (rejects per link, runs per link the refusal screen skipped,
//!   the share of the rejects the binding-victim screen decided, far-field
//!   hit rate, trace-ring fill);
//! * `--json` — the slot-clock trace as JSONL (one event object per line,
//!   stamped with slot/round/epoch/probe — never a wall clock), terminated
//!   by one `{"snapshot": ...}` line with the full registry. Byte-identical
//!   across runs of the same seed; CI smoke-diffs two runs.
//!
//! Usage: `cargo run --release -p scream-bench --bin trace_schedule
//! [--json] [--protocol fdd|afdd] [seed]` (default seed 7).

use scream_bench::{BenchError, PaperScenario, Table};
use scream_core::ProtocolKind;
use scream_scheduling::{verify_schedule, GreedyPhysical};

fn usage() -> ! {
    eprintln!("usage: trace_schedule [--json] [--protocol fdd|afdd] [seed]");
    std::process::exit(2);
}

fn main() -> Result<(), BenchError> {
    let mut json = false;
    let mut protocol: Option<ProtocolKind> = None;
    let mut seed: u64 = 7;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json = true;
        } else if arg == "--protocol" {
            protocol = Some(match args.next().as_deref() {
                Some("fdd") => ProtocolKind::Fdd,
                Some("afdd") => ProtocolKind::Afdd,
                _ => usage(),
            });
        } else if let Ok(parsed) = arg.parse() {
            seed = parsed;
        } else {
            usage();
        }
    }

    let instance = PaperScenario::grid(2_000.0).instantiate(seed)?;
    eprintln!(
        "# trace_schedule: {} nodes, seed {}, {} links to schedule",
        instance.deployment.len(),
        instance.seed,
        instance.link_demands.links().len(),
    );

    scream_obs::install();
    let schedule = match protocol {
        Some(kind) => instance.run_protocol(kind)?.schedule,
        None => GreedyPhysical::paper_baseline().schedule(&instance.env, &instance.link_demands),
    };
    verify_schedule(&instance.env, &schedule, &instance.link_demands)
        .expect("the traced paper-grid schedule verifies");
    let report = scream_obs::uninstall().expect("the sink was installed above");

    if json {
        // Trace first, registry last — all of it deterministic, so two
        // same-seed runs diff clean.
        print!("{}", report.trace_jsonl());
        println!("{{\"snapshot\":{}}}", report.snapshot.to_json());
        return Ok(());
    }

    let mut counters = Table::new("Counters", &["name", "value"]);
    for (name, value) in &report.snapshot.counters {
        counters.push_row(vec![(*name).to_string(), value.to_string()]);
    }
    println!("{}", counters.render());

    let mut gauges = Table::new("Gauges", &["name", "value"]);
    for (name, value) in &report.snapshot.gauges {
        gauges.push_row(vec![(*name).to_string(), value.to_string()]);
    }
    println!("{}", gauges.render());

    let mut histograms = Table::new("Histograms", &["name", "count", "min", "mean", "max"]);
    for (name, h) in &report.snapshot.histograms {
        histograms.push_row(vec![
            (*name).to_string(),
            h.count.to_string(),
            h.min.to_string(),
            format!("{:.2}", h.mean()),
            h.max.to_string(),
        ]);
    }
    println!("{}", histograms.render());

    let links = report.snapshot.counter("greedy.links").max(1);
    let rejects = report.snapshot.counter("ledger.probe.reject");
    let farfield = report.snapshot.counter("ledger.farfield.accept");
    let exact = report.snapshot.counter("ledger.exact.fallback");
    let screened = farfield + exact;
    let by_victim = report.snapshot.counter("ledger.victim.reject")
        + report.snapshot.counter("ledger.victim.memo_reject");
    let mut derived = Table::new("Derived probe profile", &["metric", "value"]);
    derived.push_row(vec![
        "probe_rejects_per_link".to_string(),
        format!("{:.2}", rejects as f64 / links as f64),
    ]);
    derived.push_row(vec![
        "runs_skipped_per_link".to_string(),
        format!(
            "{:.2}",
            report.snapshot.counter("greedy.runs.skipped") as f64 / links as f64
        ),
    ]);
    derived.push_row(vec![
        "victim_reject_share_pct".to_string(),
        format!("{:.2}", by_victim as f64 / rejects.max(1) as f64 * 100.0),
    ]);
    derived.push_row(vec![
        "farfield_hit_rate_pct".to_string(),
        if screened == 0 {
            // The dense 64-node instance probes exactly; the pruned
            // far-field path only engages on spatially indexed instances.
            "n/a (exact probes only)".to_string()
        } else {
            format!("{:.2}", farfield as f64 / screened as f64 * 100.0)
        },
    ]);
    derived.push_row(vec![
        "trace_events_retained".to_string(),
        report.trace.len().to_string(),
    ]);
    derived.push_row(vec![
        "trace_events_dropped".to_string(),
        report.dropped_events.to_string(),
    ]);
    derived.push_row(vec![
        "schedule_slots".to_string(),
        schedule.length().to_string(),
    ]);
    derived.push_row(vec![
        "schedule_patterns".to_string(),
        schedule.pattern_count().to_string(),
    ]);
    println!("{}", derived.render());
    Ok(())
}
