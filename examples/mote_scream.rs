//! The Section V mote experiment: can energy-detection carrier sensing
//! detect a SCREAM reliably even when six relays re-scream on top of each
//! other (deliberate collisions)?
//!
//! The example sweeps the SCREAM payload size and prints the detection-error
//! percentage (Figure 4), then prints a short snapshot of the monitor's
//! moving-average RSSI around two SCREAMs (Figure 5).
//!
//! Run with: `cargo run --release --example mote_scream`

use scream::mote::{DetectionErrorPoint, MoteExperiment, MoteExperimentConfig};
use scream::netsim::SimTime;

fn main() {
    // Figure 4: detection error vs SCREAM size (500 SCREAMs per point keeps
    // the example quick; the fig4_mote_error binary runs the paper's 2000).
    let base = MoteExperimentConfig::paper_default()
        .with_scream_count(500)
        .with_seed(3);
    println!("SCREAM detection on the simulated Mica2 testbed (1 initiator, 6 relays, 1 monitor)");
    println!(
        "{:>14}  {:>10}  {:>15}",
        "scream (bytes)", "error (%)", "detection rate"
    );
    for point in DetectionErrorPoint::sweep(base, &[2, 4, 6, 8, 10, 15, 20, 24, 32]) {
        println!(
            "{:>14}  {:>10.1}  {:>15.3}",
            point.scream_bytes, point.error_percentage, point.detection_rate
        );
    }
    println!();
    println!("Detection is unreliable below ~10 bytes and essentially error-free above ~20 bytes,");
    println!("matching the mote measurements in Section V of the paper.");
    println!();

    // Figure 5: moving-average RSSI trace for 24-byte SCREAMs.
    let result = MoteExperiment::new(base.with_scream_bytes(24))
        .run_with_trace(SimTime::from_millis(95), SimTime::from_millis(215));
    println!(
        "moving average of the monitor's RSSI around two 24-byte SCREAMs (threshold -60 dBm):"
    );
    for (time, value) in result.trace().moving_average_series() {
        let value = value.get();
        let bar_len = ((value + 100.0).max(0.0) / 2.0) as usize;
        println!(
            "{:>8.1} ms  {:>7.1} dBm  |{}",
            time.as_secs_f64() * 1e3,
            value,
            "#".repeat(bar_len)
        );
    }
}
