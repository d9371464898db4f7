//! Schedule-quality metrics.
//!
//! The paper's headline metric (Figures 6 and 7) is the percentage
//! improvement of a schedule's length over the serialized schedule of length
//! `TD`; this module computes it together with a few companion statistics.

use serde::{Deserialize, Serialize};

use scream_topology::LinkDemands;

use crate::schedule::Schedule;

/// Summary statistics of a schedule relative to its demand instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// Number of slots in the schedule.
    pub length: usize,
    /// Length of the serialized baseline (`TD`, the total demand).
    pub serialized_length: u64,
    /// Percentage improvement over the serialized schedule:
    /// `100 * (TD - length) / TD`. This is the y-axis of Figures 6 and 7.
    pub improvement_over_linear_pct: f64,
    /// Average number of concurrent links per slot.
    pub spatial_reuse: f64,
    /// Number of distinct consecutive slot patterns in the run-length
    /// representation — the schedule's actual memory footprint, which stays
    /// O(#links) under heavy demand while `length` grows with `TD`.
    pub pattern_count: usize,
    /// Number of distinct orthogonal channels the schedule transmits on
    /// (1 for every single-channel schedule, 0 for an empty one).
    pub channels_used: usize,
}

impl ScheduleMetrics {
    /// Computes the metrics of `schedule` for the demand instance `demands`.
    pub fn compute(schedule: &Schedule, demands: &LinkDemands) -> Self {
        let length = schedule.length();
        let serialized_length = demands.total_demand();
        let improvement = if serialized_length == 0 {
            0.0
        } else {
            100.0 * (serialized_length as f64 - length as f64) / serialized_length as f64
        };
        Self {
            length,
            serialized_length,
            improvement_over_linear_pct: improvement,
            spatial_reuse: schedule.spatial_reuse(),
            pattern_count: schedule.pattern_count(),
            channels_used: schedule.channels_used(),
        }
    }

    /// Ratio of this schedule's length to another's (e.g. distributed vs
    /// centralized), as a percentage. Values above 100 mean `self` is longer.
    ///
    /// A non-empty schedule compared against an empty one is infinitely
    /// longer, not "equal": the ratio is [`f64::INFINITY`] (rendered `inf` by
    /// the standard formatter, which is what sweep CSVs emit). Only
    /// empty-vs-empty reports 100 — two empty schedules are the same length.
    pub fn length_ratio_pct(&self, other: &ScheduleMetrics) -> f64 {
        if other.length == 0 {
            return if self.length == 0 {
                100.0
            } else {
                f64::INFINITY
            };
        }
        100.0 * self.length as f64 / other.length as f64
    }
}

impl std::fmt::Display for ScheduleMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} slots (TD={}, {:.1}% better than serialized, reuse {:.2}, {} pattern(s), {} channel(s))",
            self.length,
            self.serialized_length,
            self.improvement_over_linear_pct,
            self.spatial_reuse,
            self.pattern_count,
            self.channels_used
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::serialized_schedule;
    use scream_topology::{Link, NodeId};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    fn demands() -> LinkDemands {
        LinkDemands::from_links(6, &[(link(1, 0), 4), (link(3, 2), 4), (link(5, 4), 2)]).unwrap()
    }

    #[test]
    fn serialized_schedule_has_zero_improvement() {
        let d = demands();
        let m = ScheduleMetrics::compute(&serialized_schedule(&d), &d);
        assert_eq!(m.length, 10);
        assert_eq!(m.serialized_length, 10);
        assert_eq!(m.improvement_over_linear_pct, 0.0);
        assert!((m.spatial_reuse - 1.0).abs() < 1e-12);
        assert_eq!(m.channels_used, 1);
    }

    #[test]
    fn halving_the_length_is_fifty_percent_improvement() {
        let d = demands();
        let mut s = Schedule::new();
        // Pack links two per slot where possible: 5 slots for TD=10.
        for _ in 0..2 {
            s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
            s.push_slot_run(vec![link(1, 0), link(5, 4)], 1);
        }
        s.push_slot_run(vec![link(3, 2)], 1);
        s.push_slot_run(vec![link(3, 2)], 1);
        let m = ScheduleMetrics::compute(&s, &d);
        assert_eq!(m.length, 6);
        assert!((m.improvement_over_linear_pct - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_has_zero_metrics() {
        let d = LinkDemands::from_links(2, &[]).unwrap();
        let m = ScheduleMetrics::compute(&Schedule::new(), &d);
        assert_eq!(m.length, 0);
        assert_eq!(m.improvement_over_linear_pct, 0.0);
    }

    #[test]
    fn length_ratio_compares_schedules() {
        let d = demands();
        let serialized = ScheduleMetrics::compute(&serialized_schedule(&d), &d);
        let mut half = Schedule::new();
        for _ in 0..5 {
            half.push_slot_run(vec![link(1, 0)], 1);
        }
        let half = ScheduleMetrics::compute(&half, &d);
        assert!((half.length_ratio_pct(&serialized) - 50.0).abs() < 1e-12);
        assert!((serialized.length_ratio_pct(&half) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn display_reports_the_headline_number() {
        let d = demands();
        let m = ScheduleMetrics::compute(&serialized_schedule(&d), &d);
        let text = m.to_string();
        assert!(text.contains("10 slots"));
        assert!(text.contains("0.0%"));
        assert!(text.contains("pattern(s)"), "{text}");
        assert!(text.contains("1 channel(s)"), "{text}");
    }

    #[test]
    fn degenerate_length_ratios_are_infinite_not_equal() {
        let d = demands();
        let empty = ScheduleMetrics::compute(&Schedule::new(), &d);
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0)], 1);
        let nonempty = ScheduleMetrics::compute(&s, &d);
        // Non-empty vs empty is infinitely longer, never "equal length".
        assert_eq!(nonempty.length_ratio_pct(&empty), f64::INFINITY);
        // Empty vs empty really is equal length.
        assert_eq!(empty.length_ratio_pct(&empty), 100.0);
        // Empty vs non-empty is 0%, the finite branch.
        assert_eq!(empty.length_ratio_pct(&nonempty), 0.0);
        // The standard formatter renders the degenerate value as `inf`,
        // which is what the sweep CSV relies on.
        assert_eq!(format!("{:.2}", nonempty.length_ratio_pct(&empty)), "inf");
    }
}
