//! A small deterministic discrete-event engine.
//!
//! The mote experiment of Section V is a continuous-time system (periodic
//! SCREAM initiations, byte-serial transmissions, RSSI sampling); it is
//! simulated here with a classic event-queue loop. The engine is generic in
//! the event payload so other packet-level studies can reuse it.
//!
//! Determinism: events scheduled for the same instant are delivered in the
//! order they were scheduled (FIFO per timestamp), so a run is fully
//! reproducible from its inputs. "Scheduled" means the moment the event's
//! sequence number was taken: [`EventQueue::reserve`] takes one ahead of
//! time and [`EventQueue::schedule_reserved`] enters the event under it
//! later, at a time no earlier than the clock. A reserved sequence is
//! scheduled at most once.

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
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<ScheduledEvent<E>>>,
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

    /// Current simulated time: the timestamp of the last delivered event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute time: [`reserve`](Self::reserve)
    /// followed by [`schedule_reserved`](Self::schedule_reserved).
    ///
    /// # Panics
    ///
    /// Panics if the time is in the past (before the last delivered event),
    /// which would violate causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let sequence = self.reserve();
        self.schedule_reserved(time, sequence, event);
    }

    /// Takes the next sequence number without scheduling anything, so an
    /// event can be ordered now and entered later. Events at the same instant
    /// leave in sequence order, so a reserved event ties exactly as if it
    /// had been scheduled at the moment of the reservation.
    pub fn reserve(&mut self) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        sequence
    }

    /// Schedules an event under a sequence number taken earlier with
    /// [`reserve`](Self::reserve).
    ///
    /// The caller keeps the contract: each reserved sequence is scheduled at
    /// most once, and before its `(time, sequence)` key could be the
    /// smallest in the queue — then the pop order is the one scheduling it
    /// at the reservation would have given.
    ///
    /// # Panics
    ///
    /// Panics if the time is in the past, as [`schedule`](Self::schedule).
    pub fn schedule_reserved(&mut self, time: SimTime, sequence: u64, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} when the clock is already at {}",
            self.now
        );
        self.heap.push(Reverse(ScheduledEvent {
            time,
            sequence,
            event,
        }));
    }

    /// Timestamp of the next pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(event) = self.heap.pop()?;
        self.now = event.time;
        Some(event)
    }

    /// Drains and delivers events to `handler` until the queue is empty or
    /// the clock passes `until`. The handler can schedule further events
    /// through the mutable reference it receives.
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, ScheduledEvent<E>),
    {
        let mut count = 0;
        while self.peek_time().is_some_and(|t| t <= until) {
            let Some(ev) = self.pop() else { break };
            handler(self, ev);
            count += 1;
        }
        count
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
        assert_eq!(q.now(), SimTime::from_millis(5));
        assert!(q.is_empty());
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
    fn a_reserved_event_ties_as_if_scheduled_at_its_reservation() {
        let mut q = EventQueue::new();
        let early = q.reserve();
        q.schedule(SimTime::from_millis(2), "scheduled after the reservation");
        q.schedule(SimTime::from_millis(1), "first");
        assert_eq!(q.pop().unwrap().event, "first");
        // Entered after the clock moved, but keyed by its reservation.
        q.schedule_reserved(SimTime::from_millis(2), early, "reserved");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, ["reserved", "scheduled after the reservation"]);
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
    fn run_until_respects_the_horizon_and_allows_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        // Each event re-schedules itself 1 ms later; running until 10 ms must
        // deliver exactly 10 events.
        let delivered = q.run_until(SimTime::from_millis(10), |q, ev| {
            q.schedule(q.now() + SimTime::from_millis(1), ev.event + 1);
        });
        assert_eq!(delivered, 10);
        assert_eq!(q.now(), SimTime::from_millis(10));
        assert_eq!(q.len(), 1, "one future event remains beyond the horizon");
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
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
                let at = q.now() + SimTime::from_millis(u64::from(delay % 8));
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
