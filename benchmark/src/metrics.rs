//! The metric tables `BENCHMARK.json` is generated from, and how each value
//! is derived from the passes of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers::LayerCosts;
use crate::pipeline::{Pass, ProtocolTotals};
use crate::stats::fastest;
use crate::workloads::{SetupTimings, WORKLOADS};

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 30;

/// How the driver invokes the benchmark, from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen. Per-layer metrics have no bound (0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Bound of every metric but `delivery_pct`: the contract's maximum.
///
/// Wall-clock times and rates need it because the shared two-core hosts this
/// runs on slow down by a factor of 1.2 to 1.65 in bursts of half a minute
/// to four minutes (see the README), which no estimator inside a 30 s run
/// removes. The counts the program computes (`sched_len_slots`,
/// `sim_exec_s`) and `peak_rss_mb` repeat exactly, or nearly, per seed, but
/// the contract also takes spreads *across* seeds, where they vary by 3–10 %
/// with the drawn topology. For a fixed seed they remain the sharp
/// instrument: any difference is real.
const LOOSE_BOUND: f64 = 0.25;

/// What a user of the system sees. Every workload reports every metric, on
/// its own instances (see the README for what each one covers where).
pub const END_TO_END: [Metric; 15] = [
    e2e("setup_s", "s", Lower, LOOSE_BOUND),
    e2e("sched_s", "s", Lower, LOOSE_BOUND),
    e2e("sched_c2_s", "s", Lower, LOOSE_BOUND),
    e2e("verify_s", "s", Lower, LOOSE_BOUND),
    e2e("repair_s", "s", Lower, LOOSE_BOUND),
    e2e("fdd_s", "s", Lower, LOOSE_BOUND),
    e2e("afdd_s", "s", Lower, LOOSE_BOUND),
    e2e("pdd_s", "s", Lower, LOOSE_BOUND),
    e2e("traffic_pkts_per_s", "pkt/s", Higher, LOOSE_BOUND),
    e2e("overload_pkts_per_s", "pkt/s", Higher, LOOSE_BOUND),
    e2e("churn_s", "s", Lower, LOOSE_BOUND),
    e2e("sched_len_slots", "slots", Lower, LOOSE_BOUND),
    e2e("sim_exec_s", "s", Lower, LOOSE_BOUND),
    e2e("delivery_pct", "%", Higher, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, LOOSE_BOUND),
];

/// Single layers, from the traced run: `<crate>.<thing>`.
pub const PER_LAYER: [Metric; 71] = [
    layer("topology.deploy_s", "s", Lower),
    layer("topology.routing_s", "s", Lower),
    layer("topology.demand_aggregate_s", "s", Lower),
    layer("netsim.env_build_s", "s", Lower),
    layer("netsim.comm_graph_s", "s", Lower),
    layer("netsim.interference_diameter_s", "s", Lower),
    layer("netsim.ledger.can_add_ns", "ns", Lower),
    layer("netsim.ledger.assign_ns", "ns", Lower),
    layer("netsim.ledger.can_add_exact_ns", "ns", Lower),
    layer("netsim.ledger.probe_claims_ns", "ns", Lower),
    layer("netsim.ledger.probe_rejects", "count", Lower),
    layer("netsim.ledger.reject_endpoint", "count", Lower),
    layer("netsim.ledger.scan_rejects", "count", Lower),
    layer("netsim.ledger.farfield_hit_pct", "%", Higher),
    layer("netsim.ledger.exact_fallbacks", "count", Lower),
    layer("netsim.ledger.scan_entries_mean", "count", Lower),
    layer("netsim.des.event_ns", "ns", Lower),
    layer("scheduling.greedy_s", "s", Lower),
    layer("scheduling.greedy.links", "count", Lower),
    layer("scheduling.greedy.runs_probed", "count", Lower),
    layer("scheduling.greedy.runs_rejected", "count", Lower),
    layer("scheduling.greedy.rejects_per_link", "ratio", Lower),
    layer("scheduling.greedy.firstfit_depth_mean", "count", Lower),
    layer("scheduling.greedy.patterns", "count", Lower),
    layer("scheduling.greedy.ns_per_probed_run", "ns", Lower),
    layer("scheduling.verify_s", "s", Lower),
    layer("scheduling.verify.ns_per_link_slot", "ns", Lower),
    layer("scheduling.repair_s", "s", Lower),
    layer("scheduling.repair.runs_probed", "count", Lower),
    layer("scheduling.repair.runs_rejected", "count", Lower),
    layer("scheduling.repair.added_allocation", "count", Lower),
    layer("scheduling.repair_over_rebuild", "ratio", Higher),
    layer("scheduling.frame_build_s", "s", Lower),
    layer("core.fdd_run_s", "s", Lower),
    layer("core.afdd_run_s", "s", Lower),
    layer("core.pdd_run_s", "s", Lower),
    layer("core.rounds", "count", Lower),
    layer("core.slot_iterations", "count", Lower),
    layer("core.elections", "count", Lower),
    layer("core.scream_invocations", "count", Lower),
    layer("core.handshake_steps", "count", Lower),
    layer("core.vetoes", "count", Lower),
    layer("core.claims", "count", Lower),
    layer("core.tried_fraction", "ratio", Lower),
    layer("core.ns_per_slot_iteration", "ns", Lower),
    layer("core.ns_per_scream_invocation", "ns", Lower),
    layer("core.scream.network_or_ns", "ns", Lower),
    layer("core.election.elect_ns", "ns", Lower),
    layer("traffic.engine_build_s", "s", Lower),
    layer("traffic.run_s", "s", Lower),
    layer("traffic.injected", "count", Higher),
    layer("traffic.delivered", "count", Higher),
    layer("traffic.packet_hops", "count", Higher),
    layer("traffic.ns_per_packet_hop", "ns", Lower),
    layer("traffic.peak_backlog", "count", Lower),
    layer("traffic.delay_p95_slots", "slots", Lower),
    layer("traffic.session_advance_s", "s", Lower),
    layer("traffic.session_over_engine", "ratio", Lower),
    layer("resilience.run_s", "s", Lower),
    layer("resilience.baseline_run_s", "s", Lower),
    layer("resilience.resched_share_pct", "%", Lower),
    layer("resilience.faults", "count", Lower),
    layer("resilience.epochs", "count", Lower),
    layer("resilience.reschedules", "count", Lower),
    layer("resilience.incremental_repairs", "count", Higher),
    layer("resilience.rebuilds", "count", Lower),
    layer("resilience.ms_per_reschedule", "ms", Lower),
    layer("resilience.rescued", "count", Higher),
    layer("resilience.deferred_flows", "count", Lower),
    layer("resilience.recover_slots", "slots", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// The contents of the root `BENCHMARK.json`, generated from the tables
/// above (`--benchmark-json`; a test pins the committed file to this).
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|item| format!("\"{item}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, spec) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            spec.name, spec.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, metric) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One reported value and how many samples it is the fastest of (1 for
/// values that repeat exactly).
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

pub type Values = BTreeMap<&'static str, Value>;

/// Seconds of the named phase: for each of its layer calls the fastest
/// execution seen in any pass, summed. Interference on a shared host only
/// ever adds time, and it comes and goes within a run, so the fastest of the
/// run's executions is the steadiest estimate of what the code costs (a
/// median moved by up to 60 % between two same-commit sets of runs; see the
/// README).
fn phase_seconds(passes: &[Pass], phase: &str) -> Value {
    let mut best: Vec<f64> = Vec::new();
    let mut samples = 0;
    for result in passes.iter().filter_map(|pass| pass.phases.get(phase)) {
        if best.is_empty() {
            best.clone_from(&result.calls);
        }
        for (best, &seconds) in best.iter_mut().zip(&result.calls) {
            *best = best.min(seconds);
        }
        samples += 1;
    }
    Value {
        value: best.iter().sum(),
        samples,
    }
}

fn exact(value: f64) -> Value {
    Value { value, samples: 1 }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn end_to_end_values(setups: &[SetupTimings], passes: &[Pass], peak_rss_mb: f64) -> Values {
    let outputs = &passes[0].outputs;
    let mut values = Values::new();
    values.insert(
        "setup_s",
        Value {
            value: fastest(setups.iter().map(|s| s.total_s)),
            samples: setups.len(),
        },
    );
    for (metric, phase) in [
        ("sched_s", "sched"),
        ("sched_c2_s", "sched_c2"),
        ("verify_s", "verify"),
        ("repair_s", "repair"),
        ("fdd_s", "fdd"),
        ("afdd_s", "afdd"),
        ("pdd_s", "pdd"),
        ("churn_s", "churn"),
    ] {
        values.insert(metric, phase_seconds(passes, phase));
    }
    for (metric, phase, delivered) in [
        ("traffic_pkts_per_s", "traffic", outputs.stable.delivered),
        (
            "overload_pkts_per_s",
            "overload",
            outputs.overload.delivered,
        ),
    ] {
        let seconds = phase_seconds(passes, phase);
        values.insert(
            metric,
            Value {
                value: ratio(delivered as f64, seconds.value),
                ..seconds
            },
        );
    }
    values.insert("sched_len_slots", exact(outputs.sched_len_slots as f64));
    values.insert("sim_exec_s", exact(outputs.sim_exec_s()));
    values.insert("delivery_pct", exact(outputs.delivery_pct()));
    values.insert("peak_rss_mb", exact(peak_rss_mb));
    values
}

/// Per-layer values. Times are medians over the traced passes, counts come
/// from the last traced pass's `scream-obs` deltas (they repeat exactly) and
/// from `RunStats`; `plain` are the untraced passes of the same run, for the
/// tracing overhead.
pub fn per_layer_values(
    setups: &[SetupTimings],
    plain: &[Pass],
    traced: &[Pass],
    costs: &LayerCosts,
) -> Values {
    let last = traced.last().expect("a traced run has a traced pass");
    let outputs = &last.outputs;
    let counter = |phase: &str, name: &str| last.counter(phase, name);
    let histogram_mean = |phase: &str, name: &str| last.histogram_mean(phase, name);
    let setup = |f: fn(&SetupTimings) -> f64| Value {
        value: fastest(setups.iter().map(f)),
        samples: setups.len(),
    };
    let seconds = |phase: &'static str| phase_seconds(traced, phase);

    let mut v = Values::new();
    v.insert("topology.deploy_s", setup(|s| s.deploy_s));
    v.insert("topology.routing_s", setup(|s| s.routing_s));
    v.insert(
        "topology.demand_aggregate_s",
        setup(|s| s.demand_aggregate_s),
    );
    v.insert("netsim.env_build_s", setup(|s| s.env_build_s));
    v.insert("netsim.comm_graph_s", setup(|s| s.comm_graph_s));
    v.insert(
        "netsim.interference_diameter_s",
        setup(|s| s.interference_diameter_s),
    );

    v.insert("netsim.ledger.can_add_ns", exact(costs.ledger_can_add_ns));
    v.insert("netsim.ledger.assign_ns", exact(costs.ledger_assign_ns));
    v.insert(
        "netsim.ledger.can_add_exact_ns",
        exact(costs.ledger_can_add_exact_ns),
    );
    v.insert(
        "netsim.ledger.probe_claims_ns",
        exact(costs.ledger_probe_claims_ns),
    );
    v.insert("netsim.des.event_ns", exact(costs.des_event_ns));

    // The greedy build of the single-channel frame(s).
    let links = counter("sched", "greedy.links");
    let runs_probed = counter("sched", "greedy.runs.probed");
    let probe_rejects = counter("sched", "ledger.probe.reject");
    let farfield_hits = counter("sched", "ledger.farfield.accept")
        + counter("sched", "ledger.farfield.skip_existing");
    let exact_fallbacks = counter("sched", "ledger.exact.fallback")
        + counter("sched", "ledger.exact.fallback_existing");
    v.insert("netsim.ledger.probe_rejects", exact(probe_rejects));
    v.insert(
        "netsim.ledger.reject_endpoint",
        exact(counter("sched", "ledger.probe.reject_endpoint")),
    );
    v.insert(
        "netsim.ledger.scan_rejects",
        exact(counter("sched", "ledger.prune.scan_reject")),
    );
    v.insert(
        "netsim.ledger.farfield_hit_pct",
        exact(100.0 * ratio(farfield_hits, farfield_hits + exact_fallbacks)),
    );
    v.insert("netsim.ledger.exact_fallbacks", exact(exact_fallbacks));
    v.insert(
        "netsim.ledger.scan_entries_mean",
        exact(histogram_mean("sched", "ledger.scan.entries")),
    );

    let greedy_s = seconds("sched");
    v.insert("scheduling.greedy_s", greedy_s);
    v.insert("scheduling.greedy.links", exact(links));
    v.insert("scheduling.greedy.runs_probed", exact(runs_probed));
    v.insert(
        "scheduling.greedy.runs_rejected",
        exact(counter("sched", "greedy.runs.rejected")),
    );
    v.insert(
        "scheduling.greedy.rejects_per_link",
        exact(ratio(probe_rejects, links)),
    );
    v.insert(
        "scheduling.greedy.firstfit_depth_mean",
        exact(histogram_mean("sched", "greedy.firstfit.depth")),
    );
    v.insert("scheduling.greedy.patterns", exact(outputs.patterns as f64));
    v.insert(
        "scheduling.greedy.ns_per_probed_run",
        Value {
            value: ratio(greedy_s.value * 1e9, runs_probed),
            ..greedy_s
        },
    );

    let verify_s = seconds("verify");
    v.insert("scheduling.verify_s", verify_s);
    v.insert(
        "scheduling.verify.ns_per_link_slot",
        Value {
            value: ratio(verify_s.value * 1e9, outputs.pattern_entries as f64),
            ..verify_s
        },
    );

    let repair_s = seconds("repair");
    v.insert("scheduling.repair_s", repair_s);
    v.insert(
        "scheduling.repair.runs_probed",
        exact(counter("repair", "repair.runs.probed")),
    );
    v.insert(
        "scheduling.repair.runs_rejected",
        exact(counter("repair", "repair.runs.rejected")),
    );
    v.insert(
        "scheduling.repair.added_allocation",
        exact(outputs.repair_added_allocation as f64),
    );
    v.insert(
        "scheduling.repair_over_rebuild",
        Value {
            value: ratio(greedy_s.value, repair_s.value),
            ..repair_s
        },
    );
    v.insert("scheduling.frame_build_s", exact(costs.frame_build_s));

    let fdd_s = seconds("fdd");
    let afdd_s = seconds("afdd");
    v.insert("core.fdd_run_s", fdd_s);
    v.insert("core.afdd_run_s", afdd_s);
    v.insert("core.pdd_run_s", seconds("pdd"));
    let protocols = [&outputs.fdd, &outputs.afdd, &outputs.pdd];
    let total =
        |f: fn(&ProtocolTotals) -> u64| exact(protocols.iter().map(|p| f(p)).sum::<u64>() as f64);
    v.insert("core.rounds", total(|p| p.rounds));
    v.insert("core.slot_iterations", total(|p| p.slot_iterations));
    v.insert("core.elections", total(|p| p.elections));
    v.insert("core.scream_invocations", total(|p| p.scream_invocations));
    v.insert("core.handshake_steps", total(|p| p.handshake_steps));
    v.insert("core.vetoes", total(|p| p.vetoes));
    let claims: f64 = ["fdd", "afdd", "pdd"]
        .iter()
        .map(|phase| counter(phase, "runtime.claims"))
        .sum();
    let tried = total(|p| p.tried_transitions).value;
    v.insert("core.claims", exact(claims));
    v.insert("core.tried_fraction", exact(ratio(tried, tried + claims)));
    v.insert(
        "core.ns_per_slot_iteration",
        Value {
            value: ratio(afdd_s.value * 1e9, outputs.afdd.slot_iterations as f64),
            ..afdd_s
        },
    );
    v.insert(
        "core.ns_per_scream_invocation",
        Value {
            value: ratio(
                (fdd_s.value - afdd_s.value) * 1e9,
                outputs.fdd.scream_invocations as f64 - outputs.afdd.scream_invocations as f64,
            ),
            ..fdd_s
        },
    );
    v.insert(
        "core.scream.network_or_ns",
        exact(costs.scream_network_or_ns),
    );
    v.insert("core.election.elect_ns", exact(costs.election_elect_ns));

    let traffic_s = seconds("traffic");
    v.insert("traffic.engine_build_s", seconds("traffic_build"));
    v.insert("traffic.run_s", traffic_s);
    v.insert("traffic.injected", exact(outputs.stable.injected as f64));
    v.insert("traffic.delivered", exact(outputs.stable.delivered as f64));
    v.insert("traffic.packet_hops", exact(outputs.stable.packet_hops));
    v.insert(
        "traffic.ns_per_packet_hop",
        Value {
            value: ratio(traffic_s.value * 1e9, outputs.stable.packet_hops),
            ..traffic_s
        },
    );
    v.insert(
        "traffic.peak_backlog",
        exact(outputs.stable.peak_backlog as f64),
    );
    v.insert(
        "traffic.delay_p95_slots",
        exact(outputs.stable.delay_p95_slots),
    );
    v.insert("traffic.session_advance_s", exact(costs.session_advance_s));
    v.insert(
        "traffic.session_over_engine",
        exact(ratio(costs.session_advance_s, costs.engine_run_s)),
    );

    let churn_s = seconds("churn");
    let reschedules = counter("churn", "resilience.reschedules");
    let rescheduling_s = (churn_s.value - costs.churn_baseline_s).max(0.0);
    v.insert("resilience.run_s", churn_s);
    v.insert("resilience.baseline_run_s", exact(costs.churn_baseline_s));
    v.insert(
        "resilience.resched_share_pct",
        exact(100.0 * ratio(rescheduling_s, churn_s.value)),
    );
    v.insert(
        "resilience.faults",
        exact(counter("churn", "resilience.faults")),
    );
    v.insert("resilience.epochs", exact(outputs.churn.epochs as f64));
    v.insert("resilience.reschedules", exact(reschedules));
    v.insert(
        "resilience.incremental_repairs",
        exact(outputs.churn.incremental_repairs as f64),
    );
    v.insert(
        "resilience.rebuilds",
        exact((outputs.churn.repairs - outputs.churn.incremental_repairs) as f64),
    );
    v.insert(
        "resilience.ms_per_reschedule",
        exact(ratio(rescheduling_s * 1e3, reschedules)),
    );
    v.insert("resilience.rescued", exact(outputs.churn.rescued as f64));
    v.insert(
        "resilience.deferred_flows",
        exact(outputs.churn.deferred_flows as f64),
    );
    v.insert(
        "resilience.recover_slots",
        exact(outputs.churn.recover_slots as f64),
    );

    let timed_s = |passes: &[Pass]| -> f64 {
        last.phases
            .keys()
            .map(|phase| phase_seconds(passes, phase).value)
            .sum()
    };
    let (plain_s, traced_s) = (timed_s(plain), timed_s(traced));
    v.insert(
        "obs.trace_overhead_pct",
        Value {
            value: 100.0 * (ratio(traced_s, plain_s) - 1.0),
            samples: traced.len(),
        },
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(metric.name, 64, "_.-"), "{}", metric.name);
            assert!(metric.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(metric.unit, 16, "_/%.-"), "{}", metric.unit);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        for metric in &END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
