//! The 10⁵-link rung: the one measurement the `benchmark/` package cannot
//! run. Everything below 10⁵ links is measured there (alternating pairs,
//! phase spans) or pinned deterministically (`FIGURES.txt`, the test
//! suite); this binary times what only exists at scale, all on one
//! `LargeScaleScenario` instance (streamed gains, spatially pruned ledger):
//!
//! * building the frame (`scale_schedule_100k`), fully verifying it
//!   (`scale_verify_100k`) and patching it after a single-link failure
//!   (`repair_incremental_100k`, the `repair_over_rebuild` ratio);
//! * the same `can_add` probes through the pruned and the exact ledger on a
//!   planned mid-fill slot (`scale_pruned_over_exact_probe`);
//! * the traffic engine driven from the 10⁵-link frame
//!   (`scale_traffic_100k`);
//! * the `observability` profile of the build, replayed untimed through a
//!   zero-capacity `scream-obs` sink;
//! * the process's peak resident set (`peak_rss_mib`).
//!
//! It is also CI's scale smoke: a repair that is not `Incremental` or not
//! at least twice as fast as the build, a pruned probe that disagrees with
//! the exact one, an unstable frame, more than 20 rejected probes per link,
//! more than 130 refusal-screen calls per link or a peak resident set above
//! 256 MiB exits non-zero.
//!
//! Usage: `cargo run --release -p scream-bench --bin bench_summary [--quick] [output.json]`
//!
//! `--quick` takes one repetition of each cell instead of three; the
//! instance, the cells and the checks are the same. Full mode regenerates
//! the committed `BENCH_schedule.json`.

#![expect(
    clippy::disallowed_methods,
    reason = "D1.clock: the wall clock lives in the bench binaries only, and this one's job is to time the rung"
)]

use std::time::Instant;

use scream_bench::{BenchError, LargeScaleScenario};
use scream_netsim::SlotLedger;
use scream_scheduling::{repair_schedule, verify_schedule, GreedyPhysical, RepairOutcome};
use scream_topology::{Link, LinkDemands};
use scream_traffic::{ArrivalProcess, FlowSet, TrafficConfig, TrafficEngine};

const SCALE_LINKS: usize = 100_000;

/// What a slot's state may cost at 10⁵ links: a slot that owns per-node
/// tables reads over 1 GiB here (708 open slots × 200 256 nodes), one whose
/// state is O(its links) under 100 MiB.
const PEAK_RSS_BOUND_MIB: f64 = 256.0;

/// What a placed link may cost in rejected probes at 10⁵ links: 6.5 with the
/// ledger's refusal screen in front of first-fit, 355.67 without it. A
/// deterministic count, so a screen that silently stopped answering fails
/// here on any machine.
const PROBE_REJECTS_PER_LINK_BOUND: f64 = 20.0;

/// What a placed link may cost in refusal-screen calls at 10⁵ links: the
/// runs first-fit visits less those latched closed, which it passes by
/// unasked (357 per link without the latch). A deterministic count, so a
/// latch that stopped holding fails here on any machine.
const SCREENS_PER_LINK_BOUND: f64 = 130.0;

/// What patching one failed link may cost against building the frame: the
/// repair fills every run once and reads it (3.2× at 10⁵ links); at 1.2× it
/// was filling every run twice and probing each entry in between. Both times
/// come from one process on one instance, so the ratio is steadier than
/// either.
const REPAIR_OVER_REBUILD_FLOOR: f64 = 2.0;

/// One timed operation: its wall-clock spread over `reps` repetitions.
struct Cell {
    name: &'static str,
    min_secs: f64,
    median_secs: f64,
    max_secs: f64,
    reps: usize,
}

/// Runs `op` `reps` times, records the spread under `name` and hands back
/// the last repetition's result with the median time in seconds (floored at
/// a picosecond, so the ratios taken from it stay finite).
fn timed<T>(
    cells: &mut Vec<Cell>,
    name: &'static str,
    reps: usize,
    mut op: impl FnMut() -> T,
) -> (T, f64) {
    let mut run = || {
        let start = Instant::now();
        let out = std::hint::black_box(op());
        (out, start.elapsed().as_secs_f64())
    };
    let (mut out, first_secs) = run();
    let mut samples = vec![first_secs];
    for _ in 1..reps {
        let (next, secs) = run();
        out = next;
        samples.push(secs);
    }
    samples.sort_by(f64::total_cmp);
    let median_secs = samples[samples.len() / 2];
    cells.push(Cell {
        name,
        min_secs: samples[0],
        median_secs,
        max_secs: samples[samples.len() - 1],
        reps: samples.len(),
    });
    (out, median_secs.max(1e-12))
}

/// The process's peak resident set (`VmHWM` of `/proc/self/status`) in MiB,
/// `None` where there is no procfs.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn format_json(
    cells: &[Cell],
    ratios: &[(&str, f64)],
    throughputs: &[(&str, f64)],
    observability: &[(&str, f64)],
    peak_rss_mib: Option<f64>,
    quick: bool,
) -> String {
    let mut out = String::from("{\n  \"benchmarks\": {\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {{ \"min_secs\": {:.6e}, \"median_secs\": {:.6e}, \"max_secs\": {:.6e}, \
             \"reps\": {} }}{comma}\n",
            c.name, c.min_secs, c.median_secs, c.max_secs, c.reps
        ));
    }
    // Absolute rates live apart from the dimensionless speedup ratios so
    // trajectory tooling over either map stays unit-consistent; the
    // observability counters come from an untimed replay through the
    // scream-obs sink (the timed cells run sink-free).
    for (title, entries, decimals) in [
        ("speedup_ratios", ratios, 1),
        ("throughput", throughputs, 1),
        ("observability", observability, 2),
    ] {
        out.push_str(&format!("  }},\n  \"{title}\": {{\n"));
        for (i, (name, value)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {value:.decimals$}{comma}\n"));
        }
    }
    let peak_rss = peak_rss_mib.map_or("null".to_string(), |mib| format!("{mib:.1}"));
    out.push_str(&format!(
        "  }},\n  \"peak_rss_mib\": {peak_rss},\n  \"quick_mode\": {quick}\n}}\n"
    ));
    out
}

fn main() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| *a != "--quick")
        .cloned()
        .unwrap_or_else(|| "BENCH_schedule.json".to_string());
    let reps = if quick { 1 } else { 3 };
    let mut cells = Vec::new();

    // Schedule and fully verify a 10⁵-link streamed-gain instance — the
    // ROADMAP's scale acceptance case.
    let scenario = LargeScaleScenario::with_target_links(SCALE_LINKS);
    let (env, demands) = scenario.instantiate()?;
    eprintln!("# timing the build ({SCALE_LINKS} links, streamed gains, pruned ledger)...");
    let (schedule, build_secs) = timed(&mut cells, "scale_schedule_100k", reps, || {
        GreedyPhysical::paper_baseline().schedule(&env, &demands)
    });
    eprintln!(
        "# timing verification ({} slots, {} patterns)...",
        schedule.length(),
        schedule.pattern_count()
    );
    timed(&mut cells, "scale_verify_100k", reps, || {
        verify_schedule(&env, &schedule, &demands).expect("the large-scale schedule verifies")
    });

    // Incremental frame repair: fail one of the 10⁵ links and shift its
    // demand onto a surviving link, then patch the run-length schedule with
    // `repair_schedule` (strip + deficit placement + every run's verdict read).
    // Against a full GreedyPhysical rebuild — which is what
    // `scale_schedule_100k` measures on a same-size target — the patch skips
    // the per-link first-fit placement entirely.
    let links: Vec<(Link, u64)> = demands.demanded_links().collect();
    let (&(dead_link, dead_demand), surviving) =
        links.split_first().expect("the scale instance has links");
    let mut target = surviving.to_vec();
    target.last_mut().expect("surviving links remain").1 += dead_demand;
    let target = LinkDemands::from_links(env.node_count(), &target)?;
    eprintln!("# timing incremental repair (link {dead_link} fails)...");
    let (repaired, repair_secs) = timed(&mut cells, "repair_incremental_100k", reps, || {
        repair_schedule(&env, &schedule, &target)
    });
    assert_eq!(
        repaired.outcome,
        RepairOutcome::Incremental,
        "the single-link repair must take the verified incremental path"
    );

    // Probe benchmark: build one mid-fill slot — a planned reuse lattice
    // (every 3rd column pair × every 6th row ≈ 1.5 km spacing, thousands of
    // links, every one admitted by `can_add` with healthy SINR slack) — then
    // answer the same can_add probes (an even sample of the instance's
    // links) through the pruned and the exact ledger. A greedy-*maximal*
    // slot would be the wrong subject here: hard-threshold packing drives
    // the binding link's slack to float dust, after which every probe
    // region-wide is a trivial near-field reject and both paths collapse to
    // small constant cost. The planned 80 %-load slot is the regime the
    // scheduler's inner loop actually spends its time in. The verdicts must
    // agree probe for probe — the ≥5× headline is only meaningful if the
    // fast path changes nothing.
    let (columns, rows) = scenario.grid_dimensions();
    let pairs = columns / 2;
    let mut pruned_slot = SlotLedger::new(&env);
    for row in (0..rows).step_by(6) {
        for pair in (0..pairs).step_by(3) {
            if let Some(&(link, _)) = links.get(row * pairs + pair) {
                if pruned_slot.can_add(link) {
                    pruned_slot.assign(link);
                }
            }
        }
    }
    let mut exact_slot = SlotLedger::exact(&env);
    for &l in pruned_slot.links() {
        exact_slot.assign(l);
    }
    let probes: Vec<Link> = links.iter().step_by(50).map(|&(l, _)| l).collect();
    assert!(
        probes
            .iter()
            .all(|&l| pruned_slot.can_add(l) == exact_slot.can_add(l)),
        "pruned and exact probes must agree on every link"
    );
    eprintln!(
        "# timing {} slot probes against a {}-link slot (pruned vs exact)...",
        probes.len(),
        pruned_slot.len()
    );
    let (_, pruned_secs) = timed(&mut cells, "scale_probe_pruned", reps, || {
        probes.iter().filter(|&&l| pruned_slot.can_add(l)).count()
    });
    let (_, exact_secs) = timed(&mut cells, "scale_probe_exact", reps, || {
        probes.iter().filter(|&&l| exact_slot.can_add(l)).count()
    });

    // Traffic at scale: the 10⁵-link schedule as a repeating TDMA frame,
    // every link loaded single-hop to 90% of its per-frame share. The engine
    // is event-driven, so the frame's link count only enters through the
    // hash-indexed setup — this pins that the setup stays O(links).
    let frame_slots = schedule.length() as u64;
    let flows = FlowSet::single_hop(links.iter().map(|&(link, d)| {
        let share = d as f64 / frame_slots as f64;
        (link, ArrivalProcess::deterministic(0.9 * share))
    }));
    eprintln!("# timing the traffic engine ({frame_slots}-slot frame, 5 frames)...");
    let engine = TrafficEngine::on_schedule(&schedule, flows, TrafficConfig::new(5))?;
    let (traffic, traffic_secs) = timed(&mut cells, "scale_traffic_100k", reps, || engine.run());
    assert!(
        traffic.verdict.is_stable(),
        "90% load on the large-scale frame must be analytically stable"
    );

    // Observability profile: replay the build through the scream-obs sink
    // and read the dust-slack headline off the registry — probe rejects per
    // link (how many occupied runs the first-fit scan probes in vain before
    // a slot admits each link), the runs per link the refusal screen let it
    // pass by unprobed, the part of those passed by unscreened because the
    // run was latched closed, the share of the rejects the binding-victim screen
    // decided and the pruned ledger's far-field hit rate (screens resolved by the
    // aggregate far-field bound without an exact interference sum). Trace
    // capacity 0: registry totals only, every event counted and dropped.
    eprintln!("# profiling the build through scream-obs (untimed)...");
    scream_obs::install_with_capacity(0);
    std::hint::black_box(GreedyPhysical::paper_baseline().schedule(&env, &demands));
    let counters = scream_obs::uninstall()
        .expect("the profile sink was installed above")
        .snapshot;
    let count = |name| counters.counter(name) as f64;
    let rejects = count("ledger.probe.reject");
    let by_victim = count("ledger.victim.reject") + count("ledger.victim.memo_reject");
    let farfield_hits = count("ledger.farfield.accept") + count("ledger.farfield.skip_existing");
    let farfield_screens =
        farfield_hits + count("ledger.exact.fallback") + count("ledger.exact.fallback_existing");
    let links_placed = count("greedy.links").max(1.0);
    let rejects_per_link = rejects / links_placed;
    let skipped_per_link = count("greedy.runs.skipped") / links_placed;
    let dropped_per_link = count("greedy.runs.dropped") / links_placed;
    // Every visited run is screened unless it is latched: one call per
    // run at this instance's one channel.
    let screens_per_link = (count("greedy.runs.probed") + count("greedy.runs.skipped")
        - count("greedy.runs.dropped"))
        / links_placed;
    let farfield_hit_rate_pct = farfield_hits / farfield_screens.max(1.0) * 100.0;

    let peak_rss_mib = peak_rss_mib();
    let repair_over_rebuild = build_secs / repair_secs;
    let json = format_json(
        &cells,
        &[
            ("scale_pruned_over_exact_probe", exact_secs / pruned_secs),
            ("repair_over_rebuild", repair_over_rebuild),
        ],
        &[
            (
                "scale_schedule_links_per_sec",
                SCALE_LINKS as f64 / build_secs,
            ),
            (
                "scale_traffic_packets_per_sec",
                traffic.delivered as f64 / traffic_secs,
            ),
        ],
        &[
            ("probe_rejects_per_link", rejects_per_link),
            ("runs_skipped_per_link", skipped_per_link),
            ("runs_dropped_per_link", dropped_per_link),
            (
                "victim_reject_share_pct",
                by_victim / rejects.max(1.0) * 100.0,
            ),
            ("farfield_hit_rate_pct", farfield_hit_rate_pct),
            ("obs_profile_links", SCALE_LINKS as f64),
        ],
        peak_rss_mib,
        quick,
    );
    std::fs::write(&out_path, &json).expect("writing the bench summary file");
    eprintln!("# wrote {out_path}");
    print!("{json}");
    assert!(
        repair_over_rebuild >= REPAIR_OVER_REBUILD_FLOOR,
        "repair_over_rebuild {repair_over_rebuild:.2}: the repair is filling or probing the frame more than once"
    );
    assert!(
        rejects_per_link <= PROBE_REJECTS_PER_LINK_BOUND,
        "{rejects_per_link:.2} rejected probes per link: the refusal screen is not answering"
    );
    assert!(
        screens_per_link <= SCREENS_PER_LINK_BOUND,
        "{screens_per_link:.2} refusal-screen calls per link: first-fit is screening closed runs again"
    );
    if let Some(mib) = peak_rss_mib {
        assert!(
            mib <= PEAK_RSS_BOUND_MIB,
            "peak resident set {mib:.1} MiB exceeds {PEAK_RSS_BOUND_MIB} MiB at {SCALE_LINKS} links"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What CI's nine `grep -q` lines stood in for: every key a reader of
    /// the file relies on is there, in order, and nothing else is. No value
    /// is a string, so every quoted token of the output is a key.
    #[test]
    fn the_summary_file_holds_exactly_its_documented_keys() {
        let cell = Cell {
            name: "scale_schedule_100k",
            min_secs: 3.4,
            median_secs: 3.5,
            max_secs: 3.9,
            reps: 3,
        };
        let write = |peak_rss_mib| {
            format_json(
                std::slice::from_ref(&cell),
                &[("repair_over_rebuild", 3.84)],
                &[("scale_schedule_links_per_sec", 28_571.43)],
                &[
                    ("probe_rejects_per_link", 6.538),
                    ("runs_skipped_per_link", 349.13),
                    ("runs_dropped_per_link", 240.0),
                ],
                peak_rss_mib,
                false,
            )
        };
        let json = write(Some(46.04));
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(
            keys.join(" "),
            "benchmarks scale_schedule_100k min_secs median_secs max_secs reps \
             speedup_ratios repair_over_rebuild throughput scale_schedule_links_per_sec \
             observability probe_rejects_per_link runs_skipped_per_link runs_dropped_per_link \
             peak_rss_mib quick_mode"
        );
        // Each value follows its key, at the precision the file documents.
        for pair in [
            "\"min_secs\": 3.400000e0, \"median_secs\": 3.500000e0, \"max_secs\": 3.900000e0",
            "\"reps\": 3 }\n",
            "\"repair_over_rebuild\": 3.8\n",
            "\"scale_schedule_links_per_sec\": 28571.4\n",
            "\"probe_rejects_per_link\": 6.54,\n",
            "\"runs_skipped_per_link\": 349.13,\n",
            "\"runs_dropped_per_link\": 240.00\n",
            "\"peak_rss_mib\": 46.0,\n  \"quick_mode\": false\n}\n",
        ] {
            assert!(json.contains(pair), "{pair} is missing from {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(write(None).contains("\"peak_rss_mib\": null,"));
    }
}
