//! Churn recovery: fail the busiest uplink of the paper's 64-node grid
//! mid-run and watch the online rescheduler route around it.
//!
//! The same seeded single-link failure is run twice at 80% offered load:
//! once with the no-repair baseline (the outage strands every packet routed
//! over the dead link, and the analytic verdict goes Overloaded) and once
//! with the full rescheduler (reroute around the dead link, incremental
//! frame repair, admission control). The example exits non-zero unless the
//! rescheduler ends Stable with >= 98.5% sustained delivery after recovery
//! (the shortfall from 100% is the in-flight pipeline at the horizon, not
//! loss) — CI runs it as the resilience smoke test.
//!
//! Run with: `cargo run --release --example churn_recovery`

use scream_bench::{BenchError, PaperScenario, RecoveryExperiment};

fn main() -> Result<(), BenchError> {
    // The paper's evaluation grid: 64 nodes at density 2000 m^2/node, four
    // gateway sinks, per-node demands drawn from the paper's distribution.
    let instance = PaperScenario::grid(2_000.0).instantiate(7)?;
    let experiment = RecoveryExperiment::from_instance(&instance);
    let failed = experiment.failed_link()?;
    println!(
        "scenario: {} nodes, seed {}, failing busiest uplink {failed} at T/4",
        instance.deployment.len(),
        instance.seed,
    );

    // One seeded fault, two arms: no-repair baseline vs. online rescheduler.
    let point = experiment.single_link_outage(0.8, 40)?;
    println!(
        "frame: {} slots, horizon: {} frames, fault at slot {}",
        point.frame_slots_initial, 40, point.fault_slot
    );
    println!(
        "baseline   delivery {:>6.2}% | outage delivery {:>6.2}% | verdict {}",
        point.baseline_delivery_pct,
        point.baseline_outage_delivery_pct,
        if point.baseline_stable {
            "Stable"
        } else {
            "Overloaded"
        }
    );
    println!(
        "reschedule delivery {:>6.2}% | outage delivery {:>6.2}% | verdict {}",
        point.delivery_pct,
        point.outage_delivery_pct,
        if point.stable { "Stable" } else { "Overloaded" }
    );
    println!(
        "recovery: {} repair(s) ({} incremental), time-to-recover {}, \
         peak backlog {} packets, post-recovery delivery {:.2}%",
        point.repairs,
        point.incremental_repairs,
        match point.time_to_recover_slots {
            Some(slots) => format!("{slots} slots"),
            None => "never".to_string(),
        },
        point.disruption_peak_backlog,
        point.post_recovery_delivery_pct,
    );

    // The acceptance gate: the baseline must visibly degrade, and the
    // rescheduler must restore a Stable, near-100%-delivery steady state.
    // The ratio counts the backlog carried into the post-recovery window,
    // so it is <= 100 by construction and sits just under 100 because the
    // horizon cuts through the in-flight pipeline.
    assert!(
        !point.baseline_stable,
        "the dead uplink must overload the no-repair baseline"
    );
    assert!(
        point.stable,
        "the rescheduler must end with a Stable verdict"
    );
    assert!(
        point.post_recovery_delivery_pct >= 98.5 && point.post_recovery_delivery_pct <= 100.0,
        "sustained post-recovery delivery must reach 98.5% (got {:.2}%)",
        point.post_recovery_delivery_pct
    );
    point
        .time_to_recover_slots
        .expect("the rescheduler must reach sustained recovery before the horizon");
    println!("recovered: Stable verdict with >= 98.5% sustained delivery after the fault");
    Ok(())
}
