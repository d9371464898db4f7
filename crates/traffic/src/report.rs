//! The measurement side of a traffic run: throughput, delay percentiles,
//! backlog and the stability verdict.

use serde::Serialize;

use scream_topology::Link;

/// End-to-end packet delay statistics, in slot-denominated time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct DelayStats {
    /// Number of delivered packets the statistics are over.
    pub count: u64,
    /// Mean end-to-end delay in slots.
    pub mean_slots: f64,
    /// Median (50th percentile) delay in slots.
    pub p50_slots: f64,
    /// 95th-percentile delay in slots.
    pub p95_slots: f64,
    /// 99th-percentile delay in slots.
    pub p99_slots: f64,
    /// Maximum observed delay in slots.
    pub max_slots: f64,
}

impl DelayStats {
    /// Computes the statistics from raw per-packet delays in nanoseconds,
    /// for slots of `slot_ns` nanoseconds, sorting `delays_ns` in place —
    /// no copy, so a multi-million-packet run does not hold its delay buffer
    /// twice.
    pub(crate) fn from_delays(delays_ns: &mut [u64], slot_ns: u64) -> Self {
        // A total outage delivers nothing: the delay block is all zeros
        // (`count == 0`), never a panic.
        if delays_ns.is_empty() {
            return Self::default();
        }
        // Nanoseconds to slots is monotone, so the sorted integers give the
        // sorted slot values: the sum runs in the same order and every rank
        // reads the same value as sorting the floats would.
        delays_ns.sort_unstable();
        let slots = |ns: u64| ns as f64 / slot_ns as f64;
        let count = delays_ns.len() as u64;
        let sum: f64 = delays_ns.iter().map(|&ns| slots(ns)).sum();
        let pct = |p: f64| {
            let idx = ((p / 100.0 * count as f64).ceil() as usize).clamp(1, delays_ns.len());
            slots(delays_ns[idx - 1])
        };
        Self {
            count,
            mean_slots: sum / count as f64,
            p50_slots: pct(50.0),
            p95_slots: pct(95.0),
            p99_slots: pct(99.0),
            max_slots: slots(delays_ns[delays_ns.len() - 1]),
        }
    }
}

/// Offered load vs. service capacity of one link under a flow set and frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkLoad {
    /// The link.
    pub link: Link,
    /// Long-run mean packets per slot offered to the link by the flows.
    pub(crate) offered_per_slot: f64,
    /// Fraction of frame slots serving the link (its service capacity in
    /// packets per slot).
    pub(crate) service_share: f64,
}

impl LinkLoad {
    /// `offered / share` — below 1 the link's queue is stable, at or above 1
    /// it grows without bound. Infinite when the frame never serves a loaded
    /// link.
    pub fn utilization(&self) -> f64 {
        if self.service_share <= 0.0 {
            if self.offered_per_slot > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.offered_per_slot / self.service_share
        }
    }

    /// Whether the link's offered load is strictly below its service share.
    pub(crate) fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }
}

/// The analytic stability verdict of a (flow set, frame) pairing: every
/// link's offered load strictly below its per-frame service share, or not.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum StabilityVerdict {
    /// All links have offered load strictly below their service share; the
    /// queues are positive recurrent and throughput sustains the offered
    /// load.
    Stable,
    /// At least one link is offered at or above its service share; its queue
    /// — and the delay through it — grow with the simulated horizon.
    Overloaded {
        /// The saturated links (utilization ≥ 1), in route order of first
        /// appearance.
        bottlenecks: Vec<LinkLoad>,
    },
}

impl StabilityVerdict {
    /// Whether the verdict is [`Stable`](Self::Stable).
    pub fn is_stable(&self) -> bool {
        matches!(self, Self::Stable)
    }
}

/// The result of one [`TrafficEngine`](crate::TrafficEngine) run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficReport {
    /// Slots per frame repetition (the schedule length).
    pub frame_slots: u64,
    /// Simulated horizon in slots.
    pub horizon_slots: u64,
    /// Number of flows driven.
    pub flow_count: usize,
    /// Aggregate long-run injection rate, packets per slot.
    pub offered_per_slot: f64,
    /// Packets injected within the horizon.
    pub injected: u64,
    /// Packets delivered to their destination within the horizon.
    pub delivered: u64,
    /// `delivered / horizon_slots`: the sustained aggregate throughput in
    /// packets per slot. In the stable regime this converges to
    /// [`offered_per_slot`](Self::offered_per_slot) as the horizon grows; in
    /// overload it saturates at the bottleneck capacity.
    pub sustained_throughput_per_slot: f64,
    /// `100 · delivered / injected` (100 when nothing was injected): the
    /// fraction of offered traffic the schedule actually carried.
    pub sustained_throughput_pct: f64,
    /// End-to-end delay statistics over the delivered packets.
    pub delay: DelayStats,
    /// Largest number of packets simultaneously in flight (queued anywhere)
    /// at any event instant.
    pub peak_backlog: u64,
    /// Packets still in flight when the horizon was reached
    /// (`injected - delivered`).
    pub final_backlog: u64,
    /// Per-link offered load vs. service share, for every link any flow
    /// traverses, in first-appearance order.
    pub link_loads: Vec<LinkLoad>,
    /// The analytic stability verdict (offered load vs. per-link share).
    pub verdict: StabilityVerdict,
}

impl std::fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} flows over a {}-slot frame, {} slots simulated: \
             {}/{} packets delivered ({:.1}%), delay mean {:.1} / p95 {:.1} / max {:.1} slots, \
             peak backlog {}, final backlog {}, {}",
            self.flow_count,
            self.frame_slots,
            self.horizon_slots,
            self.delivered,
            self.injected,
            self.sustained_throughput_pct,
            self.delay.mean_slots,
            self.delay.p95_slots,
            self.delay.max_slots,
            self.peak_backlog,
            self.final_backlog,
            match &self.verdict {
                StabilityVerdict::Stable => "stable".to_string(),
                StabilityVerdict::Overloaded { bottlenecks } => format!(
                    "OVERLOADED at {} link(s), worst {:.2}x",
                    bottlenecks.len(),
                    bottlenecks
                        .iter()
                        .map(|b| b.utilization())
                        .fold(0.0f64, f64::max)
                ),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scream_topology::NodeId;

    #[test]
    fn delay_stats_percentiles_are_order_statistics() {
        let mut delays: Vec<u64> = (1..=100).rev().map(|i| i * 1_000).collect();
        let stats = DelayStats::from_delays(&mut delays, 1_000);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.mean_slots, 50.5);
        assert_eq!(stats.p50_slots, 50.0);
        assert_eq!(stats.p95_slots, 95.0);
        assert_eq!(stats.p99_slots, 99.0);
        assert_eq!(stats.max_slots, 100.0);
    }

    #[test]
    fn integer_delays_give_the_statistics_of_sorted_float_delays() {
        // The statistics of the delays converted to slots first and sorted
        // as floats, which is how they were computed before the buffer held
        // integers. Spans ties, distinct integers that round to one float
        // (above 2^53 ns) and a slot length that is not a power of two.
        let float_reference = |ns: &[u64], slot_ns: u64| {
            let mut slots: Vec<f64> = ns.iter().map(|&d| d as f64 / slot_ns as f64).collect();
            slots.sort_by(f64::total_cmp);
            let n = slots.len();
            let rank = |p: f64| slots[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
            DelayStats {
                count: n as u64,
                mean_slots: slots.iter().sum::<f64>() / n as f64,
                p50_slots: rank(50.0),
                p95_slots: rank(95.0),
                p99_slots: rank(99.0),
                max_slots: slots[n - 1],
            }
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1usize, 2, 7, 100, 1_001] {
            for slot_ns in [1u64, 1_000_000, 1_024_000, 999_983] {
                let ns: Vec<u64> = (0..len)
                    .map(|i| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match i % 3 {
                            0 => x % 64 * slot_ns,
                            1 => x % 100_000_000_000,
                            _ => (1 << 60) + x % 4_096,
                        }
                    })
                    .collect();
                let expected = float_reference(&ns, slot_ns);
                let got = DelayStats::from_delays(&mut ns.clone(), slot_ns);
                for (a, b) in [
                    (got.mean_slots, expected.mean_slots),
                    (got.p50_slots, expected.p50_slots),
                    (got.p95_slots, expected.p95_slots),
                    (got.p99_slots, expected.p99_slots),
                    (got.max_slots, expected.max_slots),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "len {len}, slot {slot_ns} ns");
                }
                assert_eq!(got.count, expected.count);
            }
        }
    }

    #[test]
    fn empty_delay_stats_are_zero() {
        let stats = DelayStats::from_delays(&mut [], 1);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.max_slots, 0.0);
    }

    #[test]
    fn utilization_handles_unserved_links() {
        let link = Link::new(NodeId::new(1), NodeId::new(0));
        let loaded = LinkLoad {
            link,
            offered_per_slot: 0.2,
            service_share: 0.0,
        };
        assert_eq!(loaded.utilization(), f64::INFINITY);
        assert!(!loaded.is_stable());
        let ok = LinkLoad {
            link,
            offered_per_slot: 0.2,
            service_share: 0.5,
        };
        assert!((ok.utilization() - 0.4).abs() < 1e-12);
        assert!(ok.is_stable());
    }
}
