//! Quick deterministic bench summary: times the scheduling/feasibility hot
//! paths with `std::time::Instant` (median of a few repetitions, fixed
//! instances, no randomness) and writes the results — including the
//! channel-ablation length ratios and the traffic engine's packets/sec on
//! the 64-link heavy-demand frame — to `BENCH_schedule.json`, so the perf
//! trajectory is tracked across PRs.
//!
//! The **resilience** section times the incremental `repair_schedule` patch
//! after a single-link failure on the 10⁵-link large-scale frame against the
//! full rebuild (the `repair_over_rebuild` ratio) and runs the
//! fault-injection acceptance scenario — a busiest-uplink failure on the
//! 64-node paper grid at load 0.8 — recording `recovery_time_slots`, the
//! post-recovery and baseline-outage delivery percentages and the
//! peak-backlog disruption cost.
//!
//! The **scale** section schedules and fully verifies a 10⁵-link
//! `large_scale` instance (streamed gains, spatially pruned ledger), records
//! `scale_schedule_links_per_sec`, measures the pruned-vs-exact ledger probe
//! ratio on a planned mid-fill slot (`scale_pruned_over_exact_probe`, the
//! ≥5× acceptance headline) and drives the traffic engine from the resulting
//! frame. The scale section runs in quick mode too, at the full 10⁵ links —
//! it *is* the CI scale smoke — only with fewer probes and a shorter traffic
//! horizon.
//!
//! Usage: `cargo run --release -p scream-bench --bin bench_summary [--quick] [output.json]`
//!
//! `--quick` shrinks the heavy-demand point from 10⁴ to 10³ units per link
//! and the repetition count, for CI smoke runs (the multi-channel
//! `channel_count > 1` cases are exercised in both modes).

use std::time::Instant;

use scream_bench::{
    heavy_demand_instance, heavy_demand_instance_on_channels, BenchError, LargeScaleScenario,
    PaperScenario, RecoveryExperiment,
};
use scream_core::{DistributedScheduler, ProtocolConfig};
use scream_netsim::SlotLedger;
use scream_scheduling::{repair_schedule, verify_schedule, GreedyPhysical, RepairOutcome};
use scream_topology::{Link, LinkDemands};
use scream_traffic::{ArrivalProcess, FlowSet, TrafficConfig, TrafficEngine};

/// One measured operation: a name, its median wall-clock time, and how many
/// repetitions the median was taken over.
struct Measurement {
    name: &'static str,
    median_secs: f64,
    reps: usize,
}

/// Times `op` over `reps` repetitions and returns the median duration in
/// seconds (the result of each run is returned to keep the work observable).
fn time_median<T>(reps: usize, mut op: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(op());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn format_json(
    measurements: &[Measurement],
    ratios: &[(&str, f64)],
    throughputs: &[(&str, f64)],
    observability: &[(&str, f64)],
    quick: bool,
) -> String {
    let mut out = String::from("{\n  \"benchmarks\": {\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {{ \"median_secs\": {:.6e}, \"reps\": {} }}{comma}\n",
            m.name, m.median_secs, m.reps
        ));
    }
    out.push_str("  },\n  \"speedup_ratios\": {\n");
    for (i, (name, ratio)) in ratios.iter().enumerate() {
        let comma = if i + 1 < ratios.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {ratio:.1}{comma}\n"));
    }
    // Absolute rates live apart from the dimensionless speedup ratios so
    // trajectory tooling over either map stays unit-consistent.
    out.push_str("  },\n  \"throughput\": {\n");
    for (i, (name, value)) in throughputs.iter().enumerate() {
        let comma = if i + 1 < throughputs.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {value:.1}{comma}\n"));
    }
    // Dimensionless profile counters from the scream-obs sink (an untimed
    // replay — the timed benchmarks above run sink-free).
    out.push_str("  },\n  \"observability\": {\n");
    for (i, (name, value)) in observability.iter().enumerate() {
        let comma = if i + 1 < observability.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    out.push_str(&format!("  }},\n  \"quick_mode\": {quick}\n}}\n"));
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
    let (heavy_demand, reps) = if quick { (1_000, 3) } else { (10_000, 5) };

    let mut measurements = Vec::new();

    // Heavy-demand scheduling: batched run-level placement on the fixed
    // 64-link instance.
    let (env, demands) = heavy_demand_instance(heavy_demand)?;
    eprintln!("# timing batched placement (demand {heavy_demand}/link, 64 links)...");
    let batched = time_median(reps, || {
        GreedyPhysical::paper_baseline().schedule(&env, &demands)
    });
    measurements.push(Measurement {
        name: "greedy_batched_heavy",
        median_secs: batched,
        reps,
    });

    // Run-length verification of the million-scale schedule (batched path's
    // output) — pays per pattern, so this is near-instant at any demand.
    let schedule = GreedyPhysical::paper_baseline().schedule(&env, &demands);
    eprintln!(
        "# timing verification ({} slots, {} patterns)...",
        schedule.length(),
        schedule.pattern_count()
    );
    let verify = time_median(reps, || {
        verify_schedule(&env, &schedule, &demands).expect("batched schedule verifies")
    });
    measurements.push(Measurement {
        name: "verify_compact_heavy",
        median_secs: verify,
        reps,
    });

    // Paper-scenario end-to-end scheduling on a 36-node fig6-style instance
    // (Fig. 6's centralized arm, in deterministic quick form).
    let instance = PaperScenario::grid(2_000.0)
        .with_node_count(36)
        .instantiate(1)?;
    eprintln!("# timing fig6-style centralized scheduling...");
    let ledger = time_median(reps, || instance.run_centralized());
    measurements.push(Measurement {
        name: "fig6_centralized_ledger",
        median_secs: ledger,
        reps,
    });

    // Channel ablation: the channel-aware scheduler on the same 64-link
    // instance with 2 and 4 orthogonal channels. The recorded ratios are
    // single-channel length over C-channel length (≈ C when the schedule
    // shrinks by the full 1/C, the acceptance regime).
    let single_length = schedule.length() as f64;
    let mut channel_ratios = Vec::new();
    for (channels, measurement_name, ratio_name) in [
        (
            2usize,
            "greedy_batched_heavy_c2",
            "channel_ablation_length_c2",
        ),
        (4, "greedy_batched_heavy_c4", "channel_ablation_length_c4"),
    ] {
        let (env_c, demands_c) = heavy_demand_instance_on_channels(heavy_demand, channels)?;
        eprintln!("# timing channel-aware placement ({channels} channels, same instance)...");
        let timed = time_median(reps, || {
            GreedyPhysical::paper_baseline().schedule(&env_c, &demands_c)
        });
        let multi = GreedyPhysical::paper_baseline().schedule(&env_c, &demands_c);
        verify_schedule(&env_c, &multi, &demands_c).expect("multi-channel schedule verifies");
        measurements.push(Measurement {
            name: measurement_name,
            median_secs: timed,
            reps,
        });
        channel_ratios.push((ratio_name, single_length / multi.length().max(1) as f64));
    }

    // Distributed channel ablation: the channel-aware FDD runtime on the
    // same 64-link instance at the same demand as the greedy cells — the
    // runtime simulates each distinct round once and replays it, so its host
    // cost does not scale with demand either. The recorded ratios are FDD's
    // own single-channel length over its C-channel length, which the
    // channel-aware Theorem 4 pins at exactly C on this instance.
    let mut fdd_lengths = Vec::new();
    for (channels, measurement_name) in [
        (1usize, "fdd_heavy_c1"),
        (2, "fdd_heavy_c2"),
        (4, "fdd_heavy_c4"),
    ] {
        let (env_c, demands_c) = heavy_demand_instance_on_channels(heavy_demand, channels)?;
        let scheduler = DistributedScheduler::fdd().with_config(
            ProtocolConfig::paper_default().with_scream_slots(env_c.interference_diameter().max(5)),
        );
        let run_fdd = || {
            scheduler
                .run(&env_c, &demands_c)
                .expect("FDD completes on the heavy-demand instance")
        };
        eprintln!("# timing distributed FDD ({channels} channels, demand {heavy_demand}/link)...");
        let timed = time_median(reps, run_fdd);
        let run = run_fdd();
        verify_schedule(&env_c, &run.schedule, &demands_c)
            .expect("distributed multi-channel schedule verifies");
        measurements.push(Measurement {
            name: measurement_name,
            median_secs: timed,
            reps,
        });
        fdd_lengths.push(run.schedule.length());
    }
    let fdd_single = fdd_lengths[0] as f64;
    let fdd_channel_ratios = [
        (
            "fdd_channel_length_c2",
            fdd_single / fdd_lengths[1].max(1) as f64,
        ),
        (
            "fdd_channel_length_c4",
            fdd_single / fdd_lengths[2].max(1) as f64,
        ),
    ];

    // Traffic engine: packets/sec through the 64-link heavy-demand frame
    // (demand 100/link -> a 1200-slot frame), every link loaded to 90% of
    // its per-frame service share with deterministic arrivals. The engine is
    // event-driven over the run-length frame, so the measured rate is
    // per-packet cost, independent of frame length.
    let (traffic_env, traffic_demands) = heavy_demand_instance(100)?;
    let traffic_frame = GreedyPhysical::paper_baseline().schedule(&traffic_env, &traffic_demands);
    let frame_slots = traffic_frame.length() as u64;
    let traffic_flows = FlowSet::single_hop(traffic_demands.demanded_links().map(|(link, d)| {
        let share = d as f64 / frame_slots as f64;
        (link, ArrivalProcess::deterministic(0.9 * share))
    }));
    let traffic_horizon: u64 = if quick { 50 } else { 200 };
    eprintln!(
        "# timing traffic engine ({frame_slots}-slot frame, 64 links at 90% load, \
         {traffic_horizon} frames)..."
    );
    let traffic_engine = TrafficEngine::on_schedule(
        &traffic_frame,
        traffic_flows,
        TrafficConfig::new(traffic_horizon),
    )
    .expect("the heavy-demand frame serves every flow");
    let traffic_report = traffic_engine.run();
    // The frame serves each link in one contiguous window, so a steady
    // in-flight population of up to ~one frame's packets is part of stable
    // operation; the delivered fraction approaches 100% as the horizon
    // grows (98%+ already at the quick horizon).
    assert!(
        traffic_report.verdict.is_stable() && traffic_report.sustained_throughput_pct > 98.0,
        "the 90%-load heavy-demand run must be stable: {traffic_report}"
    );
    let traffic_secs = time_median(reps, || traffic_engine.run());
    measurements.push(Measurement {
        name: "traffic_engine_heavy",
        median_secs: traffic_secs,
        reps,
    });
    let traffic_packets_per_sec = traffic_report.delivered as f64 / traffic_secs.max(1e-12);

    // Million-link scale (the `large_scale` family): schedule and fully
    // verify a 10⁵-link streamed-gain instance — the ROADMAP's scale
    // acceptance case, run in quick mode too so CI smokes it — and measure
    // the spatially-pruned ledger against the exact ledger probe for probe
    // on one greedy-filled slot.
    let scale_links: usize = 100_000;
    let (scale_env, scale_demands) =
        LargeScaleScenario::with_target_links(scale_links).instantiate()?;
    eprintln!(
        "# timing large-scale schedule ({scale_links} links, streamed gains, pruned ledger)..."
    );
    let start = Instant::now();
    let scale_schedule =
        std::hint::black_box(GreedyPhysical::paper_baseline().schedule(&scale_env, &scale_demands));
    let scale_schedule_secs = start.elapsed().as_secs_f64();
    measurements.push(Measurement {
        name: "scale_schedule_100k",
        median_secs: scale_schedule_secs,
        reps: 1,
    });
    eprintln!(
        "# timing large-scale verification ({} slots, {} patterns)...",
        scale_schedule.length(),
        scale_schedule.pattern_count()
    );
    let start = Instant::now();
    verify_schedule(&scale_env, &scale_schedule, &scale_demands)
        .expect("the large-scale schedule verifies");
    let scale_verify_secs = start.elapsed().as_secs_f64();
    measurements.push(Measurement {
        name: "scale_verify_100k",
        median_secs: scale_verify_secs,
        reps: 1,
    });
    let scale_schedule_links_per_sec = scale_links as f64 / scale_schedule_secs.max(1e-12);

    // Incremental frame repair at scale: fail one of the 10⁵ links and shift
    // its demand onto a surviving link, then patch the run-length schedule
    // with `repair_schedule` (strip + deficit placement + probe
    // verification). Against a full GreedyPhysical rebuild — which is what
    // `scale_schedule_100k` measures on a same-size target — the patch skips
    // the per-link first-fit placement entirely, the asymptotic win that
    // makes mid-run rescheduling viable at scale.
    let scale_repair_target = {
        let links: Vec<(Link, u64)> = scale_demands.demanded_links().collect();
        let (&(dead_link, dead_demand), surviving) =
            links.split_first().expect("the scale instance has links");
        let mut target = surviving.to_vec();
        target.last_mut().expect("surviving links remain").1 += dead_demand;
        eprintln!("# timing incremental repair at scale (link {dead_link} fails)...");
        let (scale_columns, scale_rows) =
            LargeScaleScenario::with_target_links(scale_links).grid_dimensions();
        LinkDemands::from_links(scale_columns * scale_rows, &target)
            .expect("the surviving links are distinct and in range")
    };
    let start = Instant::now();
    let scale_repaired = std::hint::black_box(repair_schedule(
        &scale_env,
        &scale_schedule,
        &scale_repair_target,
    ));
    let scale_repair_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        scale_repaired.outcome,
        RepairOutcome::Incremental,
        "the single-link repair must take the probe-verified incremental path"
    );
    measurements.push(Measurement {
        name: "repair_incremental_100k",
        median_secs: scale_repair_secs,
        reps: 1,
    });

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
    let scale_link_list: Vec<Link> = scale_demands.demanded_links().map(|(l, _)| l).collect();
    let scale_scenario = LargeScaleScenario::with_target_links(scale_links);
    let (scale_columns, scale_rows) = scale_scenario.grid_dimensions();
    let scale_pairs = scale_columns / 2;
    let mut pruned_slot = SlotLedger::new(&scale_env);
    for row in (0..scale_rows).step_by(6) {
        for pair in (0..scale_pairs).step_by(3) {
            let idx = row * scale_pairs + pair;
            if idx < scale_link_list.len() && pruned_slot.can_add(scale_link_list[idx]) {
                pruned_slot.assign(scale_link_list[idx]);
            }
        }
    }
    let mut exact_slot = SlotLedger::exact(&scale_env);
    for &l in pruned_slot.links() {
        exact_slot.assign(l);
    }
    let probe_count = if quick { 500 } else { 2_000 };
    let stride = (scale_link_list.len() / probe_count).max(1);
    let probes: Vec<Link> = scale_link_list.iter().copied().step_by(stride).collect();
    let agree = probes
        .iter()
        .all(|&l| pruned_slot.can_add(l) == exact_slot.can_add(l));
    assert!(agree, "pruned and exact probes must agree on every link");
    eprintln!(
        "# timing {} slot probes against a {}-link slot (pruned vs exact)...",
        probes.len(),
        pruned_slot.len()
    );
    let probe_reps = 3;
    let probe_pruned = time_median(probe_reps, || {
        probes.iter().filter(|&&l| pruned_slot.can_add(l)).count()
    });
    measurements.push(Measurement {
        name: "scale_probe_pruned",
        median_secs: probe_pruned,
        reps: probe_reps,
    });
    let probe_exact = time_median(probe_reps, || {
        probes.iter().filter(|&&l| exact_slot.can_add(l)).count()
    });
    measurements.push(Measurement {
        name: "scale_probe_exact",
        median_secs: probe_exact,
        reps: probe_reps,
    });

    // Observability profile: replay the greedy construction through the
    // scream-obs sink and read the dust-slack headline off the registry —
    // probe rejects per link (how many occupied runs the first-fit scan
    // burns before a slot admits each link) and the pruned ledger's
    // far-field hit rate (screens resolved by the aggregate far-field
    // bound without an exact interference sum). The replay is untimed and
    // runs *after* the timed benchmarks, so every committed perf number
    // stays sink-free. Full mode profiles the committed 10⁵-link instance;
    // quick mode profiles a 10⁴-link draw of the same family so CI can
    // smoke the keys without doubling its longest step.
    let obs_profile_links: usize = if quick { 10_000 } else { scale_links };
    eprintln!(
        "# profiling schedule construction through scream-obs \
         ({obs_profile_links} links, untimed)..."
    );
    // Trace capacity 0: the profile wants registry totals only, so every
    // event is counted and dropped without retaining the ring.
    scream_obs::install_with_capacity(0);
    if quick {
        let (obs_env, obs_demands) =
            LargeScaleScenario::with_target_links(obs_profile_links).instantiate()?;
        std::hint::black_box(GreedyPhysical::paper_baseline().schedule(&obs_env, &obs_demands));
    } else {
        std::hint::black_box(GreedyPhysical::paper_baseline().schedule(&scale_env, &scale_demands));
    }
    let obs_snapshot = scream_obs::uninstall()
        .expect("the profile sink was installed above")
        .snapshot;
    let probe_rejects_per_link = obs_snapshot.counter("ledger.probe.reject") as f64
        / obs_snapshot.counter("greedy.links").max(1) as f64;
    let victim_reject_share_pct = (obs_snapshot.counter("ledger.victim.reject")
        + obs_snapshot.counter("ledger.victim.memo_reject"))
        as f64
        / obs_snapshot.counter("ledger.probe.reject").max(1) as f64
        * 100.0;
    let farfield_hits = obs_snapshot.counter("ledger.farfield.accept")
        + obs_snapshot.counter("ledger.farfield.skip_existing");
    let exact_fallbacks = obs_snapshot.counter("ledger.exact.fallback")
        + obs_snapshot.counter("ledger.exact.fallback_existing");
    let farfield_screens = farfield_hits + exact_fallbacks;
    let farfield_hit_rate_pct = if farfield_screens == 0 {
        0.0
    } else {
        farfield_hits as f64 / farfield_screens as f64 * 100.0
    };

    // Traffic at scale: the 10⁵-link schedule as a repeating TDMA frame,
    // every link loaded single-hop to 90% of its per-frame share. The engine
    // is event-driven, so the frame's link count only enters through the
    // hash-indexed setup — this pins that the setup stays O(links).
    let scale_frame_slots = scale_schedule.length() as u64;
    let scale_flows = FlowSet::single_hop(scale_demands.demanded_links().map(|(link, d)| {
        let share = d as f64 / scale_frame_slots as f64;
        (link, ArrivalProcess::deterministic(0.9 * share))
    }));
    let scale_horizon: u64 = if quick { 2 } else { 5 };
    eprintln!(
        "# timing traffic engine at scale ({scale_frame_slots}-slot frame, {scale_links} links, \
         {scale_horizon} frames)..."
    );
    let scale_engine = TrafficEngine::on_schedule(
        &scale_schedule,
        scale_flows,
        TrafficConfig::new(scale_horizon),
    )
    .expect("the large-scale frame serves every link");
    let start = Instant::now();
    let scale_traffic_report = std::hint::black_box(scale_engine.run());
    let scale_traffic_secs = start.elapsed().as_secs_f64();
    assert!(
        scale_traffic_report.verdict.is_stable(),
        "90% load on the large-scale frame must be analytically stable"
    );
    measurements.push(Measurement {
        name: "scale_traffic_100k",
        median_secs: scale_traffic_secs,
        reps: 1,
    });
    let scale_traffic_packets_per_sec =
        scale_traffic_report.delivered as f64 / scale_traffic_secs.max(1e-12);

    // Online recovery on the paper 64-node grid at load 0.8 — the acceptance
    // scenario: a seeded busiest-uplink failure at a quarter of the horizon.
    // The no-repair baseline goes Overloaded and strands packets for the rest
    // of the run; the rescheduler reroutes around the dead link, patches the
    // frame and must restore a Stable verdict with near-100% sustained
    // delivery. The delivery ratio counts the backlog carried into the
    // post-recovery window, so it is <= 100 by construction and its
    // shortfall from 100 is the in-flight pipeline at the horizon — a
    // fixed cost that weighs more over the shorter quick-mode window,
    // hence the mode-dependent floor.
    let recovery_frames: u64 = if quick { 20 } else { 40 };
    let recovery_floor_pct = if quick { 97.5 } else { 98.5 };
    eprintln!(
        "# running fault-injection recovery (64-node paper grid, load 0.8, \
         {recovery_frames} frame repetitions)..."
    );
    let recovery_instance = PaperScenario::grid(2_000.0).instantiate(7)?;
    let recovery_experiment = RecoveryExperiment::from_instance(&recovery_instance);
    let start = Instant::now();
    let recovery =
        std::hint::black_box(recovery_experiment.single_link_outage(0.8, recovery_frames)?);
    let recovery_secs = start.elapsed().as_secs_f64();
    measurements.push(Measurement {
        name: "recovery_single_link_64",
        median_secs: recovery_secs,
        reps: 1,
    });
    assert!(
        !recovery.baseline_stable,
        "the no-repair baseline must stay Overloaded after the failure"
    );
    assert!(
        recovery.stable,
        "the rescheduler must end the run with a Stable verdict"
    );
    assert!(
        recovery.post_recovery_delivery_pct >= recovery_floor_pct
            && recovery.post_recovery_delivery_pct <= 100.0,
        "sustained post-recovery delivery must reach {:.1}%: {:.2}%",
        recovery_floor_pct,
        recovery.post_recovery_delivery_pct
    );
    let recovery_time_slots = recovery
        .time_to_recover_slots
        .expect("the repair arm must recover within the horizon")
        as f64;

    let throughputs = [
        ("traffic_packets_per_sec", traffic_packets_per_sec),
        ("scale_schedule_links_per_sec", scale_schedule_links_per_sec),
        (
            "scale_traffic_packets_per_sec",
            scale_traffic_packets_per_sec,
        ),
        ("recovery_time_slots", recovery_time_slots),
        (
            "recovery_post_delivery_pct",
            recovery.post_recovery_delivery_pct,
        ),
        (
            "baseline_outage_delivery_pct",
            recovery.baseline_outage_delivery_pct,
        ),
        (
            "recovery_peak_backlog",
            recovery.disruption_peak_backlog as f64,
        ),
    ];

    let mut ratios = vec![
        (
            "scale_pruned_over_exact_probe",
            probe_exact / probe_pruned.max(1e-12),
        ),
        (
            "repair_over_rebuild",
            scale_schedule_secs / scale_repair_secs.max(1e-12),
        ),
    ];
    ratios.extend(channel_ratios);
    ratios.extend(fdd_channel_ratios);
    let observability = [
        ("probe_rejects_per_link", probe_rejects_per_link),
        ("victim_reject_share_pct", victim_reject_share_pct),
        ("farfield_hit_rate_pct", farfield_hit_rate_pct),
        ("obs_profile_links", obs_profile_links as f64),
    ];
    for (name, ratio) in &ratios {
        eprintln!("# {name}: {ratio:.1}x");
    }
    for (name, value) in &throughputs {
        eprintln!("# {name}: {value:.1}");
    }
    for (name, value) in &observability {
        eprintln!("# {name}: {value:.2}");
    }

    let json = format_json(&measurements, &ratios, &throughputs, &observability, quick);
    std::fs::write(&out_path, &json).expect("writing the bench summary file");
    eprintln!("# wrote {out_path}");
    print!("{json}");
    Ok(())
}
