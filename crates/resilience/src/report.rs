//! Graceful-degradation metrics: how much a fault cost and how fast the
//! rescheduler recovered.

use serde::Serialize;

use scream_scheduling::RepairOutcome;
use scream_traffic::SessionTotals;

/// Traffic measurements of one epoch: the difference of the session's
/// [`SessionTotals`] at the epoch's two ends. Every packet is counted once,
/// so `injected + backlog_start == delivered + dropped + backlog_end`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// First slot of the epoch (inclusive).
    pub start_slot: u64,
    /// One past the last slot of the epoch.
    pub end_slot: u64,
    /// Packets injected during the epoch.
    pub injected: u64,
    /// Packets delivered during the epoch.
    pub delivered: u64,
    /// Packets dropped during the epoch: lost routes at a live hop, and
    /// the strands a rescue pass could not re-home, counted in the epoch
    /// their fault batch opens.
    pub dropped: u64,
    /// In-flight packets when the epoch started (the previous epoch's
    /// `backlog_end`; 0 for epoch 0), read before the rescue pass of a fault
    /// batch on the epoch's first slot.
    pub backlog_start: u64,
    /// In-flight packets when the epoch ended.
    pub backlog_end: u64,
    /// `100 · delivered / (injected + backlog_start)` for the epoch (100
    /// when nothing was deliverable). Every delivered packet was injected
    /// this epoch or carried in, so the value is mathematically <= 100 —
    /// a draining backlog shows up as *later* epochs delivering their
    /// carry-in, not as ratios above 100.
    pub delivery_pct: f64,
    /// Whether the analytic verdict at the epoch end was Stable.
    pub stable: bool,
}

/// One rescheduling action taken by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RepairRecord {
    /// The slot at which the repair was installed.
    pub slot: u64,
    /// Whether the compact schedule was patched incrementally or rebuilt
    /// from scratch.
    pub outcome: RepairOutcome,
    /// Frame length before the repair.
    pub frame_slots_before: u64,
    /// Frame length after the repair.
    pub frame_slots_after: u64,
    /// Slot-allocation units removed by the incremental patch.
    pub removed_allocation: u64,
    /// Slot-allocation units added by the incremental patch.
    pub added_allocation: u64,
}

/// The outcome of one [`ResilienceHarness`](crate::ResilienceHarness) run:
/// per-epoch traffic, every repair taken, and the headline
/// graceful-degradation numbers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// Frame length of the initial (pre-fault) schedule.
    pub frame_slots_initial: u64,
    /// Per-epoch traffic measurements, in order.
    pub epochs: Vec<EpochMetrics>,
    /// Every rescheduling action, in order.
    pub repairs: Vec<RepairRecord>,
    /// Cumulative session counters (injected / delivered / dropped /
    /// rescued / in-flight / peak backlog — the disruption cost of the
    /// outage plus any frame-swap churn). The epochs partition them:
    /// their `injected`, `delivered` and `dropped` sum to these.
    pub totals: SessionTotals,
    /// The slot of the first injected fault, if the trace was non-empty.
    pub first_fault_slot: Option<u64>,
    /// Slots from the first fault until sustained recovery: the first epoch
    /// boundary after which every remaining epoch dropped nothing (rescue
    /// drops included), kept a Stable analytic verdict, and held its
    /// backlog inside the pre-fault band (outage strands fully drained).
    /// `None` if the run never recovered (or saw no fault).
    pub time_to_recover_slots: Option<u64>,
    /// Delivery percentage over the outage window (first fault to recovery,
    /// or to the horizon when the run never recovered).
    pub outage_delivery_pct: f64,
    /// Delivery percentage over the epochs after recovery (100 if the run
    /// ends at the recovery point).
    pub post_recovery_delivery_pct: f64,
    /// Flows the admission controller was holding paused at the horizon.
    pub deferred_flows: usize,
    /// Whether the analytic verdict at the horizon was Stable.
    pub final_verdict_stable: bool,
}

impl ResilienceReport {
    /// Overall delivery percentage across the whole run.
    pub fn delivery_pct(&self) -> f64 {
        if self.totals.injected == 0 {
            100.0
        } else {
            self.totals.delivered as f64 / self.totals.injected as f64 * 100.0
        }
    }

    /// How many repairs were applied incrementally (vs. full rebuilds).
    pub fn incremental_repairs(&self) -> usize {
        self.repairs
            .iter()
            .filter(|r| r.outcome == RepairOutcome::Incremental)
            .count()
    }
}
