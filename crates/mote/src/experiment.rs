//! The discrete-event simulation of the mote experiment and its metrics.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use scream_netsim::{EventQueue, SimTime};

use crate::config::MoteExperimentConfig;
use crate::rssi::{MovingAverage, RssiSample, RssiTrace};

/// Events driving the mote simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The initiator starts transmitting SCREAM number `index`.
    InitiatorScream { index: usize },
    /// Relay `relay` starts re-screaming.
    RelayStart { relay: usize },
    /// Relay `relay` finishes its transmission.
    RelayEnd { relay: usize },
    /// The initiator finishes its transmission.
    InitiatorEnd,
    /// The monitor takes an RSSI sample.
    MonitorSample,
}

/// The simulated Section-V experiment.
#[derive(Debug, Clone)]
pub struct MoteExperiment {
    config: MoteExperimentConfig,
}

impl MoteExperiment {
    /// Creates an experiment with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// `MoteExperimentConfig::validate`).
    pub fn new(config: MoteExperimentConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs the experiment without recording an RSSI trace.
    pub fn run(&self) -> MoteExperimentResult {
        self.run_internal(None)
    }

    /// Runs the experiment and additionally records the monitor's RSSI and
    /// moving-average stream within `[trace_from, trace_to)` — the data
    /// behind Figure 5.
    pub fn run_with_trace(&self, trace_from: SimTime, trace_to: SimTime) -> MoteExperimentResult {
        self.run_internal(Some((trace_from, trace_to)))
    }

    fn run_internal(&self, trace_window: Option<(SimTime, SimTime)>) -> MoteExperimentResult {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let air_time = cfg.scream_air_time();
        let horizon = MoteExperimentConfig::SCREAM_INTERVAL * (cfg.scream_count as u64 + 1);

        let mut queue: EventQueue<Event> = EventQueue::new();
        for k in 0..cfg.scream_count {
            queue.schedule(
                MoteExperimentConfig::SCREAM_INTERVAL * k as u64,
                Event::InitiatorScream { index: k },
            );
        }
        queue.schedule(SimTime::ZERO, Event::MonitorSample);

        // Radio state visible at the monitor.
        let mut initiator_active = false;
        let mut relay_active = [false; MoteExperimentConfig::RELAY_COUNT];
        // Whether each relay has already re-screamed for the current
        // initiator SCREAM (refractory until the next one).
        let mut relay_triggered = [false; MoteExperimentConfig::RELAY_COUNT];

        // Monitor state.
        let mut ma = MovingAverage::new(MoteExperimentConfig::MA_WINDOW);
        let mut sample_counter: usize = 0;
        let mut last_detection: Option<SimTime> = None;
        let mut detections: Vec<SimTime> = Vec::new();
        let mut trace = RssiTrace::new();

        let noise_mw = MoteExperimentConfig::NOISE_FLOOR_DBM.to_mw();
        let relay_mw = MoteExperimentConfig::RELAY_RX_POWER_DBM.to_mw();
        let initiator_mw = MoteExperimentConfig::INITIATOR_RX_POWER_DBM.to_mw();

        while let Some(ev) = queue.pop() {
            if ev.time > horizon {
                break;
            }
            let now = ev.time;
            match ev.event {
                Event::InitiatorScream { .. } => {
                    initiator_active = true;
                    relay_triggered.iter_mut().for_each(|t| *t = false);
                    queue.schedule(now + air_time, Event::InitiatorEnd);
                    // Relays sample the channel continuously; a relay notices
                    // the activity after its turnaround delay, provided the
                    // transmission is still on the air at that instant. Very
                    // short SCREAMs are therefore easy to miss — the effect
                    // the paper measures.
                    for (relay, triggered) in relay_triggered.iter_mut().enumerate() {
                        let turnaround = random_turnaround(&mut rng);
                        if turnaround < air_time && !*triggered {
                            *triggered = true;
                            queue.schedule(now + turnaround, Event::RelayStart { relay });
                        }
                    }
                }
                Event::InitiatorEnd => {
                    initiator_active = false;
                }
                Event::RelayStart { relay } => {
                    relay_active[relay] = true;
                    queue.schedule(now + air_time, Event::RelayEnd { relay });
                    // A re-scream can itself trigger relays that missed the
                    // initiator (collision-tolerant flooding): energy from
                    // simultaneous transmissions only adds up.
                    for (other, triggered) in relay_triggered.iter_mut().enumerate() {
                        if *triggered {
                            continue;
                        }
                        let turnaround = random_turnaround(&mut rng);
                        if turnaround < air_time {
                            *triggered = true;
                            queue.schedule(now + turnaround, Event::RelayStart { relay: other });
                        }
                    }
                }
                Event::RelayEnd { relay } => {
                    relay_active[relay] = false;
                }
                Event::MonitorSample => {
                    // Aggregate received power: active relays plus the (weak)
                    // initiator plus the noise floor, with measurement noise.
                    let mut power_mw = noise_mw;
                    if initiator_active {
                        power_mw += initiator_mw;
                    }
                    power_mw += relay_mw * relay_active.iter().filter(|&&a| a).count() as f64;
                    let rssi_dbm = power_mw.to_dbm()
                        + MoteExperimentConfig::RSSI_NOISE_SIGMA_DB * standard_normal(&mut rng);

                    sample_counter += 1;
                    let mut ma_value = None;
                    if sample_counter.is_multiple_of(MoteExperimentConfig::MA_SAMPLE_STRIDE) {
                        let avg = ma.push(rssi_dbm);
                        ma_value = Some(avg);
                        let in_holdoff = last_detection
                            .is_some_and(|t| now < t + MoteExperimentConfig::DETECTION_HOLDOFF);
                        if avg >= MoteExperimentConfig::RSSI_THRESHOLD_DBM && !in_holdoff {
                            detections.push(now);
                            last_detection = Some(now);
                        }
                    }

                    if let Some((from, to)) = trace_window {
                        if now >= from && now < to {
                            trace.push(RssiSample {
                                time: now,
                                moving_average_dbm: ma_value,
                            });
                        }
                    }

                    if now + MoteExperimentConfig::RSSI_SAMPLE_PERIOD <= horizon {
                        queue.schedule(
                            now + MoteExperimentConfig::RSSI_SAMPLE_PERIOD,
                            Event::MonitorSample,
                        );
                    }
                }
            }
        }

        MoteExperimentResult {
            config: *cfg,
            detections,
            trace,
        }
    }
}

/// Draws a relay turnaround delay uniformly in the configured range.
fn random_turnaround<R: Rng + ?Sized>(rng: &mut R) -> SimTime {
    let min = MoteExperimentConfig::RELAY_TURNAROUND_MIN.as_nanos();
    let max = MoteExperimentConfig::RELAY_TURNAROUND_MAX
        .as_nanos()
        .max(min + 1);
    SimTime::from_nanos(rng.gen_range(min..=max))
}

/// Draws a standard normal sample (Box–Muller), kept local to stay within the
/// approved dependency set.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Outcome of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoteExperimentResult {
    config: MoteExperimentConfig,
    detections: Vec<SimTime>,
    trace: RssiTrace,
}

impl MoteExperimentResult {
    /// The recorded RSSI trace (empty unless the run was started with
    /// [`MoteExperiment::run_with_trace`]).
    pub fn trace(&self) -> &RssiTrace {
        &self.trace
    }

    /// Intervals between consecutive detections, in seconds.
    pub(crate) fn intervals_secs(&self) -> Vec<f64> {
        self.detections
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// The paper's error metric: the percentage of measured inter-detection
    /// intervals deviating from the expected SCREAM period by more than the
    /// configured tolerance (±5 %). Missed SCREAMs surface here as doubled
    /// (or longer) intervals; completely undetected runs count as 100 %.
    pub fn error_percentage(&self) -> f64 {
        let expected = MoteExperimentConfig::SCREAM_INTERVAL.as_secs_f64();
        let tolerance = MoteExperimentConfig::INTERVAL_TOLERANCE * expected;
        let intervals = self.intervals_secs();
        // Every emitted SCREAM (after the first) should produce one interval;
        // account for intervals that never materialized because detections
        // were missing altogether.
        let expected_intervals = (self.config.scream_count - 1) as f64;
        if expected_intervals <= 0.0 {
            return 0.0;
        }
        let good = intervals
            .iter()
            .filter(|&&i| (i - expected).abs() <= tolerance)
            .count() as f64;
        (100.0 * (expected_intervals - good) / expected_intervals).clamp(0.0, 100.0)
    }

    /// Fraction of emitted SCREAMs that produced a detection at the monitor.
    pub(crate) fn detection_rate(&self) -> f64 {
        self.detections.len() as f64 / self.config.scream_count as f64
    }
}

/// One point of the Figure-4 sweep: SCREAM size versus detection error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionErrorPoint {
    /// SCREAM payload size in bytes.
    pub scream_bytes: usize,
    /// Percentage of out-of-tolerance inter-detection intervals.
    pub error_percentage: f64,
    /// Fraction of SCREAMs detected at all.
    pub detection_rate: f64,
}

impl DetectionErrorPoint {
    /// Runs the experiment for every SCREAM size in `sizes` and returns one
    /// point per size — the data series of Figure 4.
    pub fn sweep(base: MoteExperimentConfig, sizes: &[usize]) -> Vec<DetectionErrorPoint> {
        sizes
            .iter()
            .map(|&bytes| {
                let result = MoteExperiment::new(base.with_scream_bytes(bytes)).run();
                DetectionErrorPoint {
                    scream_bytes: bytes,
                    error_percentage: result.error_percentage(),
                    detection_rate: result.detection_rate(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> MoteExperimentConfig {
        MoteExperimentConfig::paper_default().with_scream_count(150)
    }

    #[test]
    fn large_screams_are_detected_reliably() {
        let result = MoteExperiment::new(quick_config().with_scream_bytes(24)).run();
        assert!(
            result.error_percentage() < 5.0,
            "24-byte SCREAMs should have negligible error, got {:.1}%",
            result.error_percentage()
        );
        assert!(result.detection_rate() > 0.95);
    }

    #[test]
    fn tiny_screams_are_mostly_missed() {
        let result = MoteExperiment::new(quick_config().with_scream_bytes(2)).run();
        assert!(
            result.error_percentage() > 50.0,
            "2-byte SCREAMs should be unreliable, got {:.1}%",
            result.error_percentage()
        );
    }

    #[test]
    fn error_decreases_with_scream_size() {
        let points = DetectionErrorPoint::sweep(quick_config(), &[4, 12, 24, 32]);
        assert_eq!(points.len(), 4);
        assert!(
            points[0].error_percentage >= points[2].error_percentage,
            "error at 4 bytes ({:.1}%) should exceed error at 24 bytes ({:.1}%)",
            points[0].error_percentage,
            points[2].error_percentage
        );
        assert!(points[3].error_percentage < 5.0);
        assert!(points[0].detection_rate <= points[3].detection_rate + 1e-9);
    }

    #[test]
    fn intervals_cluster_around_the_scream_period() {
        let result = MoteExperiment::new(quick_config().with_scream_bytes(24)).run();
        let intervals = result.intervals_secs();
        assert!(!intervals.is_empty());
        let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
        assert!(
            (mean - 0.1).abs() < 0.01,
            "mean interval {mean} should be ~100 ms"
        );
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = MoteExperiment::new(quick_config().with_seed(3)).run();
        let b = MoteExperiment::new(quick_config().with_seed(3)).run();
        let c = MoteExperiment::new(quick_config().with_seed(4)).run();
        assert_eq!(a.detections, b.detections);
        assert!(a.detections != c.detections || a.error_percentage() == c.error_percentage());
    }

    #[test]
    fn trace_recording_captures_the_scream_shape() {
        let result = MoteExperiment::new(quick_config().with_scream_bytes(24))
            .run_with_trace(SimTime::ZERO, SimTime::from_millis(400));
        let trace = result.trace();
        assert!(!trace.is_empty());
        // The moving average must rise above the threshold during screams and
        // fall back to the noise floor in between.
        let peak = trace.peak_moving_average_dbm().get();
        assert!(
            peak > -60.0,
            "peak MA {peak} dBm should cross the threshold"
        );
        let floor = trace
            .moving_average_series()
            .map(|(_, v)| v.get())
            .fold(f64::INFINITY, f64::min);
        assert!(
            floor < -80.0,
            "quiet-period MA {floor} dBm should sit near the noise floor"
        );
    }

    #[test]
    fn detection_rate_counts_at_most_one_detection_per_scream() {
        let result = MoteExperiment::new(quick_config().with_scream_bytes(32)).run();
        assert!(result.detection_rate() <= 1.0 + 1e-9);
    }

    #[test]
    fn run_without_trace_records_nothing() {
        let result = MoteExperiment::new(quick_config()).run();
        assert!(result.trace().is_empty());
    }
}
