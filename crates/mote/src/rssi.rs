//! RSSI sampling, moving-average detection and trace recording.

use serde::{Deserialize, Serialize};

use scream_netsim::{Dbm, SimTime};

/// One RSSI reading at the monitor, as the trace keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RssiSample {
    /// When the sample was taken.
    pub(crate) time: SimTime,
    /// The moving-average value after consuming this sample, if the sample
    /// was one of the strided samples fed into the average.
    pub(crate) moving_average_dbm: Option<Dbm>,
}

/// A sliding-window moving average over dBm readings, mimicking the filter
/// the paper's Monitor mote applies to its RSSI stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MovingAverage {
    window: usize,
    values: Vec<f64>,
}

impl MovingAverage {
    /// Creates a moving average over the last `window` values.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn new(window: usize) -> Self {
        assert!(window > 0, "moving-average window must be non-empty");
        Self {
            window,
            values: Vec::new(),
        }
    }

    /// Pushes a new value and returns the current average.
    pub(crate) fn push(&mut self, value: Dbm) -> Dbm {
        self.values.push(value.get());
        if self.values.len() > self.window {
            self.values.remove(0);
        }
        self.current()
    }

    /// The current average, or negative infinity if no value has been pushed.
    /// (The paper's monitor averages in the log domain, so the window's sum
    /// is raw `f64`: dBm values do not add.)
    pub(crate) fn current(&self) -> Dbm {
        Dbm::new(if self.values.is_empty() {
            f64::NEG_INFINITY
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        })
    }
}

/// A recorded trace of RSSI and moving-average values, used to regenerate the
/// paper's Figure 5.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RssiTrace {
    samples: Vec<RssiSample>,
}

impl RssiTrace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub(crate) fn push(&mut self, sample: RssiSample) {
        self.samples.push(sample);
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The subset of samples that carry a moving-average value (the strided
    /// samples actually consumed by the monitor).
    pub fn moving_average_series(&self) -> impl Iterator<Item = (SimTime, Dbm)> + '_ {
        self.samples
            .iter()
            .filter_map(|s| s.moving_average_dbm.map(|ma| (s.time, ma)))
    }

    /// Maximum moving-average value seen in the trace.
    pub fn peak_moving_average_dbm(&self) -> Dbm {
        Dbm::new(
            self.moving_average_series()
                .map(|(_, v)| v.get())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_tracks_the_window() {
        let mut ma = MovingAverage::new(3);
        assert_eq!(ma.current().get(), f64::NEG_INFINITY);
        let mut push = |dbm| ma.push(Dbm::new(dbm)).get();
        assert_eq!(push(-90.0), -90.0);
        assert_eq!(push(-60.0), -75.0);
        assert_eq!(push(-60.0), -70.0);
        // Window slides: the -90 falls out.
        assert_eq!(push(-60.0), -60.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_is_rejected() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn trace_series_extraction() {
        let mut trace = RssiTrace::new();
        for i in 0..10u64 {
            trace.push(RssiSample {
                time: SimTime::from_millis(i),
                moving_average_dbm: (i % 2 == 0).then_some(Dbm::new(-80.0 + i as f64)),
            });
        }
        assert_eq!(trace.samples.len(), 10);
        assert!(!trace.is_empty());
        let ma_points: Vec<_> = trace.moving_average_series().collect();
        assert_eq!(ma_points.len(), 5);
        assert!((trace.peak_moving_average_dbm().get() - (-72.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_peak() {
        let trace = RssiTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.peak_moving_average_dbm().get(), f64::NEG_INFINITY);
    }
}
