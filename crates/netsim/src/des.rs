//! A small deterministic discrete-event engine.
//!
//! The mote experiment of Section V is a continuous-time system (periodic
//! SCREAM initiations, byte-serial transmissions, RSSI sampling); it is
//! simulated here with a classic event-queue loop. The engine is generic in
//! the event payload so other packet-level studies can reuse it.
//!
//! Determinism: events scheduled for the same instant are delivered in the
//! order they were scheduled (FIFO per timestamp), so a run is fully
//! reproducible from its inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::SimTime;

/// An event scheduled for execution at a given simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number used to break ties deterministically.
    pub(crate) sequence: u64,
    /// The event payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.sequence)
    }
}

impl<E: Eq> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E: Eq> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with a simulation clock.
///
/// ```
/// use scream_netsim::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "second");
/// q.schedule(SimTime::from_millis(1), "first");
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert_eq!(q.pop().unwrap().time, SimTime::from_millis(2));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<ScheduledEvent<E>>>,
    /// The timestamp of the last delivered event.
    now: SimTime,
    next_sequence: u64,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_sequence: 0,
        }
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if the time is in the past (before the last delivered event),
    /// which would violate causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} when the clock is already at {}",
            self.now
        );
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Reverse(ScheduledEvent {
            time,
            sequence,
            event,
        }));
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(event) = self.heap.pop()?;
        self.now = event.time;
        Some(event)
    }
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 5u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(3), 3u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(q.now, SimTime::from_millis(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_preserve_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.schedule(SimTime::from_millis(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn empty_queue_reports_empty() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.pop().is_none());
        assert_eq!(q.now, SimTime::ZERO);
    }

    mod properties {
        use super::*;
        use crate::case_stream;
        use rand::Rng;

        /// One step of an interleaved workload: schedule a batch of events
        /// at `now + delay`, then pop up to `pops` events.
        type Step = (u8, u8, u8); // (batch, delay, pops)

        /// Replays the steps and returns the full delivery sequence as
        /// `(time, payload)` pairs, where the payload is the global
        /// scheduling index of the event.
        fn replay(steps: &[Step]) -> Vec<(SimTime, u32)> {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut next_id = 0u32;
            let mut delivered = Vec::new();
            for &(batch, delay, pops) in steps {
                let at = q.now + SimTime::from_millis(u64::from(delay % 8));
                for _ in 0..batch % 4 {
                    q.schedule(at, next_id);
                    next_id += 1;
                }
                for _ in 0..pops % 4 {
                    if let Some(ev) = q.pop() {
                        delivered.push((ev.time, ev.event));
                    }
                }
            }
            while let Some(ev) = q.pop() {
                delivered.push((ev.time, ev.event));
            }
            delivered
        }

        /// The contract the module docs pin: events scheduled for the
        /// same instant are delivered in the order they were scheduled
        /// (FIFO per timestamp), deliveries never go back in time, and
        /// the whole interleaving — scheduling more events between pops,
        /// batches landing on already-popped timestamps' successors —
        /// replays deterministically.
        #[test]
        fn same_timestamp_fifo_is_deterministic_under_interleaving() {
            for case in 0..64 {
                let mut rng = case_stream(
                    "same_timestamp_fifo_is_deterministic_under_interleaving",
                    case,
                );
                let steps: Vec<Step> = (0..rng.gen_range(1usize..40))
                    .map(|_| {
                        (
                            rng.gen_range(0u8..=255),
                            rng.gen_range(0u8..=255),
                            rng.gen_range(0u8..=255),
                        )
                    })
                    .collect();
                let failed = format!(
                    "property 'same_timestamp_fifo_is_deterministic_under_interleaving' \
                     failed at case {case}"
                );
                let delivered = replay(&steps);
                // Time order is total and non-decreasing.
                for pair in delivered.windows(2) {
                    assert!(pair[0].0 <= pair[1].0, "{failed}: time went backwards");
                    // FIFO tie-break: equal timestamps preserve scheduling
                    // order, which for this workload means increasing ids.
                    if pair[0].0 == pair[1].0 {
                        assert!(
                            pair[0].1 < pair[1].1,
                            "{failed}: same-timestamp events left the queue out of \
                             scheduling order: {} before {}",
                            pair[0].1,
                            pair[1].1
                        );
                    }
                }
                // Every scheduled event is delivered exactly once.
                let mut ids: Vec<u32> = delivered.iter().map(|&(_, id)| id).collect();
                ids.sort_unstable();
                let expected: Vec<u32> = (0..ids.len() as u32).collect();
                assert_eq!(ids, expected, "{failed}");
                // The interleaving replays byte-identically.
                assert_eq!(delivered, replay(&steps), "{failed}");
            }
        }
    }
}
