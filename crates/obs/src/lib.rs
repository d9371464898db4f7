//! `scream-obs` — deterministic observability for the SCREAM workspace.
//!
//! Distributed-scheduling results are stated in *logical* costs — slots,
//! rounds, probes — so the observability layer speaks the same language: a
//! metrics registry and a trace stream stamped with the **slot clock**
//! (slot, round, epoch, probe ordinal), never a wall clock. Two runs of the
//! same instance and seed produce byte-identical snapshots and traces, which
//! keeps the layer compatible with the D1 determinism gate and lets CI diff
//! exported traces like any other artifact.
//!
//! The subsystem has three parts:
//!
//! * the **registry** ([`registry`]): counters, gauges and log₂-bucket
//!   histograms keyed by `&'static str` in BTree collections, frozen into a
//!   [`Snapshot`] (`PartialEq` + JSON export + [`Snapshot::diff`]);
//! * the **trace ring** ([`trace`]): bounded, keep-first span/event records
//!   ([`TraceEvent`]) with JSONL export;
//! * the **sink** (this module): a thread-local `Option<ObsState>` behind
//!   free emission functions ([`counter_add`], [`gauge_set`], [`observe`],
//!   [`event`], the clock setters). When no sink is installed every
//!   emission is a thread-local read plus an `Option` check — cheap enough
//!   for the ledger's probe loop — and instrumented code needs no `&mut
//!   Obs` threaded through its signatures.
//!
//! Instrumented hot paths must route *all* formatting and allocation
//! through this sink (`O1.sink`, which the signatures carry): emission takes
//! only `&'static str` names, `u64` values and, for [`event`], an array of
//! fields by value, so a heap-built name or field list does not compile, a
//! disabled sink allocates nothing and the instrumented code path is
//! byte-identical to the uninstrumented one.
//!
//! # Usage
//!
//! ```
//! scream_obs::install();
//! scream_obs::set_slot(3);
//! scream_obs::counter_add("ledger.probe.reject", 1);
//! scream_obs::event("greedy.link", [("link", 7), ("rejects", 2)]);
//! let report = scream_obs::uninstall().expect("sink was installed");
//! assert_eq!(report.snapshot.counter("ledger.probe.reject"), 1);
//! assert_eq!(report.trace.len(), 1);
//! println!("{}", report.trace_jsonl());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Conventions P1 / D1 / H1 (ROADMAP), carried by clippy; test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

pub mod registry;
pub mod trace;

pub use registry::{Histogram, Snapshot};
pub use trace::TraceEvent;

use std::cell::RefCell;

/// Default trace-ring capacity: large enough to keep every event of the
/// paper-scale scenarios, bounded so million-link runs stay O(1) memory.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// The logical clock every trace event is stamped with. All four components
/// advance monotonically under the caller's control — the crate never reads
/// a wall clock (D1.clock), so stamps are reproducible across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotClock {
    /// Current schedule slot (set by schedulers as the frame grows, and by
    /// the traffic engine as simulated time advances).
    slot: u64,
    /// Current distributed-protocol round.
    round: u64,
    /// Current resilience epoch.
    epoch: u64,
    /// Probe ordinal: bumped once per feasibility probe via [`next_probe`].
    probe: u64,
}

/// The installed sink: registry + clock + bounded trace ring.
#[derive(Debug)]
struct ObsState {
    counters: std::collections::BTreeMap<&'static str, u64>,
    gauges: std::collections::BTreeMap<&'static str, u64>,
    histograms: std::collections::BTreeMap<&'static str, Histogram>,
    clock: SlotClock,
    trace: Vec<TraceEvent>,
    trace_capacity: usize,
    /// Events emitted after the ring filled (keep-first, so the retained
    /// prefix is deterministic regardless of how long the run continues).
    dropped_events: u64,
    /// Total events emitted (== seq of the next event).
    emitted_events: u64,
}

impl ObsState {
    fn new(trace_capacity: usize) -> Self {
        ObsState {
            counters: std::collections::BTreeMap::new(),
            gauges: std::collections::BTreeMap::new(),
            histograms: std::collections::BTreeMap::new(),
            clock: SlotClock::default(),
            trace: Vec::new(),
            trace_capacity,
            dropped_events: 0,
            emitted_events: 0,
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

thread_local! {
    static SINK: RefCell<Option<Box<ObsState>>> = const { RefCell::new(None) };
}

/// Runs `f` on the installed sink, or does nothing when disabled. A
/// reentrant emission (an emission fired from inside another emission) is
/// silently skipped rather than panicking the borrow.
fn with_sink<R>(f: impl FnOnce(&mut ObsState) -> R) -> Option<R> {
    SINK.with(|cell| {
        let mut borrow = cell.try_borrow_mut().ok()?;
        borrow.as_mut().map(|state| f(state))
    })
}

/// Everything a finished observation session produced: the final metrics
/// [`Snapshot`] plus the retained trace prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReport {
    /// Final registry state.
    pub snapshot: Snapshot,
    /// Retained trace events, in emission order (keep-first ring).
    pub trace: Vec<TraceEvent>,
    /// Events emitted after the ring filled and therefore not retained.
    pub dropped_events: u64,
}

impl ObsReport {
    /// The retained trace as JSONL (one event object per line).
    pub fn trace_jsonl(&self) -> String {
        trace::trace_to_jsonl(&self.trace)
    }
}

/// Installs a fresh sink on this thread with the default trace capacity.
/// Replaces (and discards) any previously installed sink.
pub fn install() {
    install_with_capacity(DEFAULT_TRACE_CAPACITY);
}

/// Installs a fresh sink with an explicit trace-ring capacity.
pub fn install_with_capacity(trace_capacity: usize) {
    SINK.with(|cell| {
        if let Ok(mut borrow) = cell.try_borrow_mut() {
            *borrow = Some(Box::new(ObsState::new(trace_capacity)));
        }
    });
}

/// Removes the sink and returns what it observed, or `None` when no sink
/// was installed.
pub fn uninstall() -> Option<ObsReport> {
    SINK.with(|cell| {
        let mut borrow = cell.try_borrow_mut().ok()?;
        borrow.take().map(|state| ObsReport {
            snapshot: state.snapshot(),
            trace: state.trace,
            dropped_events: state.dropped_events,
        })
    })
}

/// True when a sink is currently installed on this thread.
pub fn is_installed() -> bool {
    SINK.with(|cell| {
        cell.try_borrow()
            .map(|borrow| borrow.is_some())
            .unwrap_or(false)
    })
}

/// Clones the current registry state without uninstalling, or `None` when
/// disabled. Pair two snapshots with [`Snapshot::diff`] to meter a phase.
pub fn snapshot() -> Option<Snapshot> {
    with_sink(|state| state.snapshot())
}

/// Adds `delta` to the named counter (no-op when disabled). The name is a
/// `&'static str`, so the first call compiles and the second does not:
///
/// ```
/// scream_obs::counter_add("ledger.probe.reject", 1);
/// ```
/// ```compile_fail,E0308
/// scream_obs::counter_add("ledger.probe.reject".to_string(), 1);
/// ```
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    with_sink(|state| {
        let slot = state.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    });
}

/// Sets the named gauge to `value` (no-op when disabled). The name is
/// static here too:
///
/// ```
/// scream_obs::gauge_set("fill", 3);
/// ```
/// ```compile_fail,E0308
/// scream_obs::gauge_set(String::from("fill"), 3);
/// ```
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    with_sink(|state| {
        state.gauges.insert(name, value);
    });
}

/// Records `value` into the named log₂-bucket histogram (no-op when
/// disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    with_sink(|state| {
        state.histograms.entry(name).or_default().record(value);
    });
}

/// Emits a trace event stamped with the current slot clock (no-op when
/// disabled). `fields` are an array taken by value and copied into the ring
/// only when a sink is installed, so a disabled sink allocates nothing. The
/// name is static and the fields an array, so neither can be built on the
/// heap: the first call compiles, and each of the others differs from it in
/// one expression and does not.
///
/// ```
/// scream_obs::event("greedy.link", [("head", 7)]);
/// ```
/// ```compile_fail,E0716
/// scream_obs::event(&format!("greedy.link.{}", 7), [("head", 7)]);
/// ```
/// ```compile_fail,E0308
/// scream_obs::event("greedy.link", &vec![("head", 7)]);
/// ```
/// ```compile_fail,E0308
/// scream_obs::event("greedy.link", vec![("head", 7)]);
/// ```
#[inline]
pub fn event<const N: usize>(name: &'static str, fields: [(&'static str, u64); N]) {
    with_sink(|state| {
        let seq = state.emitted_events;
        state.emitted_events = seq.saturating_add(1);
        if state.trace.len() >= state.trace_capacity {
            state.dropped_events = state.dropped_events.saturating_add(1);
            return;
        }
        state.trace.push(TraceEvent {
            seq,
            name,
            slot: state.clock.slot,
            round: state.clock.round,
            epoch: state.clock.epoch,
            probe: state.clock.probe,
            fields: fields.to_vec(),
        });
    });
}

/// Sets the slot component of the logical clock.
#[inline]
pub fn set_slot(slot: u64) {
    with_sink(|state| state.clock.slot = slot);
}

/// Sets the round component of the logical clock.
#[inline]
pub fn set_round(round: u64) {
    with_sink(|state| state.clock.round = round);
}

/// Sets the epoch component of the logical clock.
#[inline]
pub fn set_epoch(epoch: u64) {
    with_sink(|state| state.clock.epoch = epoch);
}

/// Advances the probe ordinal and returns its new value (0 when disabled).
/// Feasibility probes call this once on entry so trace events carry "which
/// probe was in flight" without the probers threading state around.
#[inline]
pub fn next_probe() -> u64 {
    with_sink(|state| {
        state.clock.probe = state.clock.probe.saturating_add(1);
        state.clock.probe
    })
    .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        assert!(!is_installed());
        counter_add("c", 1);
        gauge_set("g", 2);
        observe("h", 3);
        event("e", [("k", 4)]);
        assert_eq!(next_probe(), 0);
        assert!(snapshot().is_none());
        assert!(uninstall().is_none());
    }

    #[test]
    fn registry_accumulates_and_reports() {
        install();
        counter_add("probe.reject", 2);
        counter_add("probe.reject", 3);
        gauge_set("fill", 10);
        gauge_set("fill", 11);
        observe("depth", 1);
        observe("depth", 9);
        let report = uninstall().expect("installed");
        assert_eq!(report.snapshot.counter("probe.reject"), 5);
        assert_eq!(report.snapshot.gauges.get("fill"), Some(&11));
        let h = report.snapshot.histograms.get("depth").expect("histogram");
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 10, 1, 9));
    }

    #[test]
    fn events_are_stamped_with_the_logical_clock() {
        install();
        set_slot(5);
        set_round(2);
        set_epoch(1);
        let p = next_probe();
        event("probe.done", [("ok", 1)]);
        let report = uninstall().expect("installed");
        let e = &report.trace[0];
        assert_eq!((e.slot, e.round, e.epoch, e.probe), (5, 2, 1, p));
        assert_eq!(e.seq, 0);
        assert_eq!(e.fields, vec![("ok", 1)]);
    }

    #[test]
    fn trace_ring_keeps_first_and_counts_drops() {
        install_with_capacity(2);
        event("a", []);
        event("b", []);
        event("c", []);
        let report = uninstall().expect("installed");
        assert_eq!(report.trace.len(), 2);
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.trace[1].name, "b");
    }

    #[test]
    fn reinstall_resets_state() {
        install();
        counter_add("c", 1);
        install();
        let report = uninstall().expect("installed");
        assert_eq!(report.snapshot.counter("c"), 0);
        assert!(report.snapshot.counters.is_empty());
    }
}
