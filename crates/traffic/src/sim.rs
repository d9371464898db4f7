//! The packet model: the one FIFO / cursor / event-loop core behind both
//! [`TrafficEngine`](crate::TrafficEngine) and
//! [`TrafficSession`](crate::TrafficSession).
//!
//! Each link runs a FIFO queue served one packet per scheduled
//! `(channel, link)` entry of a repeating TDMA frame. The two front ends
//! differ only in where a served packet goes next, which is the [`Router`]
//! they plug in; everything else — queues, service cursors, arrival
//! sampling, the event loop, the counters and the delay buffer — is here and
//! exists once.
//!
//! # Event structure
//!
//! The simulation is event-driven, never slot-driven: the only events are
//! packet **arrivals** (drawn from each source's
//! [`ArrivalProcess`]) and per-hop **departures**.
//! Because service is FIFO and each scheduled slot serves a fixed number of
//! packets, a packet's departure slot is determined the moment it joins the
//! queue:
//!
//! > `departure(p) = next scheduled slot ≥ max(packet ready slot,
//! >  first slot the server is free after the previous packet)`
//!
//! which [`FrameService::next_service_slot_at`] answers in O(log #windows)
//! from a position resolved once per link and segment, so no hop looks a
//! link up by value. Slots are absolute; the frame repeats from
//! `frame_epoch` (the slot it was installed at), not from slot 0.
//!
//! The departure instant (the end of the assigned slot) and the event
//! sequence number are both taken at enqueue and travel with the packet,
//! but only each FIFO **head**'s departure is in the event queue: a packet
//! joining an empty queue enters its own, and a departing head enters its
//! successor's under the sequence reserved for it. The pop order is the one
//! a queue holding every packet's departure would give, because events pop
//! in `(time, sequence)` order and a successor's key is larger than its
//! predecessor's (later or equal slot, later reservation): it cannot be the
//! smallest key before its predecessor has popped, and it is in the queue
//! from that moment on. The sequence must be the reserved one — a fresh
//! number would put the departure behind arrivals armed in between and
//! reorder same-instant ties. At one instant, then, a head's departure and
//! an arrival pop in the order they were *booked* — the departure when its
//! packet joined the queue, the arrival when its source's previous arrival
//! was handled — while the next hop's enqueue is no event at all but part
//! of the departure that causes it: it happens before anything else at that
//! instant pops, so a forwarded packet joins the next queue ahead of a
//! same-instant arrival booked later, and its own departure falls at least
//! one slot on (it is ready only for the slot after the instant). So the
//! event queue holds at most one
//! departure per registered link plus one arrival per source, whatever the
//! backlog, and a run costs O(packet-hops · log(links + sources)) plus
//! O(log #windows) per hop — whatever the frame's slot count, so an idle
//! million-slot frame is as cheap as an idle ten-slot one.
//!
//! # Segments
//!
//! [`Sim::advance`] runs one segment and returns with queues, samplers and
//! in-flight packets intact. Departure events are not carried across
//! segments: at every segment start the links' service positions are
//! resolved against the frame, the cursors are reset and each queue's
//! packets are re-assigned (and given sequence numbers) in FIFO order with
//! the segment start as their ready slot; then each head's departure enters
//! the event queue. A packet that had not left by then could not have been
//! served earlier, so this yields exactly the slots a continuous run would
//! have assigned — and it is what lets a caller kill links, swap the frame
//! or move packets between segments without patching pending events.
//!
//! # Determinism
//!
//! Source `i` draws from its own ChaCha stream seeded `seed + i · φ`, the
//! event queue breaks timestamp ties in scheduling order (the contract
//! `des.rs` pins), and no wall-clock value enters, so the same inputs
//! reproduce the same measurements bit for bit.

use std::collections::{BTreeMap, HashMap, VecDeque};

use scream_netsim::{EventQueue, SimTime};
use scream_scheduling::{FrameService, ServicePos};
use scream_topology::Link;

use crate::engine::TrafficConfig;
use crate::flow::{ArrivalProcess, ArrivalSampler};
use crate::report::{DelayStats, LinkLoad, StabilityVerdict};
use crate::session::{SegmentReport, SessionTotals};

/// Where a packet goes after being served on a link.
pub(crate) enum NextHop<T> {
    /// Onto the queue of the link with this index, carrying this tag.
    Forward(u32, T),
    /// It reached its destination.
    Deliver,
    /// Nowhere: the node it reached has no route.
    Drop,
}

/// The routing decision, the only thing the two front ends disagree on.
/// `Tag` is whatever a packet must carry for the router to place it again.
pub(crate) trait Router {
    type Tag: Copy + std::fmt::Debug;

    /// The first link of a packet injected by source `source`, or `None`
    /// when the source is cut off (the packet is lost at injection).
    fn first_hop(&mut self, source: u32, links: &mut Links<Self::Tag>) -> Option<(u32, Self::Tag)>;

    /// Where a packet tagged `tag` goes after being served on link `served`.
    fn next_hop(
        &mut self,
        served: u32,
        tag: Self::Tag,
        links: &mut Links<Self::Tag>,
    ) -> NextHop<Self::Tag>;
}

#[derive(Debug)]
pub(crate) struct Packet<T> {
    created: SimTime,
    tag: T,
    /// The departure booked when the packet joined its current queue;
    /// `None` when it does not fall inside the segment.
    due: Option<Due>,
}

/// A booked departure: the end of the assigned service slot, and the event
/// sequence number reserved for it at enqueue (module docs).
#[derive(Debug, Clone, Copy)]
struct Due {
    at: SimTime,
    seq: u64,
}

/// Per-link FIFO queue plus the TDMA server cursor.
#[derive(Debug)]
pub(crate) struct LinkQueue<T> {
    pub(crate) link: Link,
    pub(crate) queue: VecDeque<Packet<T>>,
    /// `(absolute slot, used, capacity)` of the last assigned service slot.
    pub(crate) cursor: Option<(u64, u32, u32)>,
    /// Where the segment's frame indexes this link (`None`: never served).
    service: Option<ServicePos>,
    /// A dead link serves nothing; its packets strand.
    pub(crate) dead: bool,
}

/// The link registry: indices are stable across frame swaps and reroutes.
#[derive(Debug)]
pub(crate) struct Links<T> {
    index: HashMap<Link, u32>,
    pub(crate) queues: Vec<LinkQueue<T>>,
    /// Queues `..resolved` hold their service position in the current
    /// segment's frame; links registered since are resolved on first use.
    resolved: usize,
}

impl<T> Default for Links<T> {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            queues: Vec::new(),
            resolved: 0,
        }
    }
}

impl<T> Links<T> {
    /// The index of `link`, registering it on first sight.
    pub(crate) fn idx(&mut self, link: Link) -> u32 {
        if let Some(&idx) = self.index.get(&link) {
            return idx;
        }
        let idx = self.queues.len() as u32;
        self.queues.push(LinkQueue {
            link,
            queue: VecDeque::new(),
            cursor: None,
            service: None,
            dead: false,
        });
        self.index.insert(link, idx);
        idx
    }

    /// The queue of `link`, if the link was ever registered.
    pub(crate) fn get(&self, link: Link) -> Option<&LinkQueue<T>> {
        self.index.get(&link).map(|&i| &self.queues[i as usize])
    }

    /// Resolves the service positions in `frame` of the links registered
    /// since the last resolution.
    fn resolve(&mut self, frame: &FrameService) {
        for q in &mut self.queues[self.resolved..] {
            q.service = frame.position(q.link);
        }
        self.resolved = self.queues.len();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival { source: u32 },
    Departure { link: u32 },
}

/// One simulation's state between segments. The frame is passed to
/// [`advance`](Self::advance) by the front end that owns it.
#[derive(Debug)]
pub(crate) struct Sim<R: Router> {
    pub(crate) router: R,
    pub(crate) links: Links<R::Tag>,
    samplers: Vec<ArrivalSampler>,
    /// Next undelivered arrival instant per source, in absolute slots.
    pending_arrival: Vec<Option<f64>>,
    paused: Vec<bool>,
    /// Absolute slot at which the current frame was installed (its slot 0).
    frame_epoch: u64,
    now_slot: u64,
    slot_duration: SimTime,
    slot_ns: u64,
    pub(crate) totals: SessionTotals,
    /// Delay of every delivered packet, in nanoseconds; each finished
    /// segment's stretch is sorted.
    delays_ns: Vec<u64>,
}

impl<R: Router> Sim<R> {
    /// A simulation at slot 0 with one source per entry of `arrivals`.
    pub(crate) fn new(
        router: R,
        links: Links<R::Tag>,
        arrivals: impl Iterator<Item = ArrivalProcess>,
        config: &TrafficConfig,
    ) -> Self {
        let samplers: Vec<ArrivalSampler> = arrivals
            .enumerate()
            .map(|(i, arrival)| {
                let seed = config
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                ArrivalSampler::new(arrival, seed)
            })
            .collect();
        Self {
            router,
            links,
            pending_arrival: vec![None; samplers.len()],
            paused: vec![false; samplers.len()],
            samplers,
            frame_epoch: 0,
            now_slot: 0,
            slot_duration: config.slot_duration,
            slot_ns: config.slot_duration.as_nanos(),
            totals: SessionTotals::default(),
            delays_ns: Vec::new(),
        }
    }

    /// The current absolute slot (start of the next segment).
    pub(crate) fn now_slot(&self) -> u64 {
        self.now_slot
    }

    /// Delay statistics over every packet delivered so far.
    pub(crate) fn delay(&self) -> DelayStats {
        DelayStats::from_delays(&mut self.delays_ns.clone(), self.slot_ns)
    }

    /// A new frame was installed: it counts its slot 0 from the current slot.
    pub(crate) fn restart_frame(&mut self) {
        self.frame_epoch = self.now_slot;
    }

    pub(crate) fn is_paused(&self, source: usize) -> bool {
        self.paused[source]
    }

    /// Source `source` injects nothing until resumed.
    pub(crate) fn pause(&mut self, source: usize) {
        self.paused[source] = true;
    }

    /// Resumes a paused source, fast-forwarding its arrival process past
    /// the paused interval (arrivals that would have occurred while paused
    /// are discarded, not batched).
    pub(crate) fn resume(&mut self, source: usize) {
        if !std::mem::take(&mut self.paused[source]) {
            return;
        }
        let now = self.now_slot as f64;
        let next = &mut self.pending_arrival[source];
        while next.is_none_or(|t| t < now) {
            *next = Some(self.samplers[source].next_arrival_slots());
        }
    }

    /// Assigns the departure slot for a packet joining `link`'s FIFO queue
    /// with the given ready slot, honoring per-slot service capacity.
    /// `None` for dead links and links the frame never serves (the packet
    /// is parked).
    fn assign_departure(&mut self, frame: &FrameService, link: u32, ready: u64) -> Option<u64> {
        if link as usize >= self.links.resolved {
            self.links.resolve(frame);
        }
        let epoch = self.frame_epoch;
        let q = &mut self.links.queues[link as usize];
        if q.dead {
            return None;
        }
        let from = match q.cursor {
            Some((slot, used, capacity)) if ready <= slot => {
                if used < capacity {
                    q.cursor = Some((slot, used + 1, capacity));
                    return Some(slot);
                }
                slot + 1
            }
            _ => ready,
        };
        let next = frame.next_service_slot_at(q.service?, from.saturating_sub(epoch))?;
        let slot = next.slot + epoch;
        q.cursor = Some((slot, 1, next.capacity));
        Some(slot)
    }

    /// Books the next service slot of `link` for its next unbooked packet:
    /// the departure (at the end of that slot) if it falls inside the
    /// segment, under a sequence number reserved now.
    fn book_departure(
        &mut self,
        frame: &FrameService,
        events: &mut EventQueue<Event>,
        end: SimTime,
        link: u32,
        ready: u64,
    ) -> Option<Due> {
        let slot = self.assign_departure(frame, link, ready)?;
        let at = self.slot_duration.saturating_mul(slot + 1);
        (at <= end).then(|| Due {
            at,
            seq: events.reserve(),
        })
    }

    /// Queues `packet` (ready at `now`) on `link` and books its departure,
    /// which enters the event queue only if the packet is the head.
    fn enqueue(
        &mut self,
        frame: &FrameService,
        events: &mut EventQueue<Event>,
        end: SimTime,
        link: u32,
        mut packet: Packet<R::Tag>,
        now: SimTime,
    ) {
        // Ready for the slot starting at or after `now`.
        let ready = now.as_nanos().div_ceil(self.slot_ns);
        packet.due = self.book_departure(frame, events, end, link, ready);
        let queue = &mut self.links.queues[link as usize].queue;
        if queue.is_empty() {
            schedule_departure(events, link, packet.due);
        }
        queue.push_back(packet);
    }

    fn arm_arrival(&mut self, events: &mut EventQueue<Event>, end: SimTime, source: u32) {
        let i = source as usize;
        let slots = match self.pending_arrival[i] {
            Some(slots) => slots,
            None => {
                let drawn = self.samplers[i].next_arrival_slots();
                self.pending_arrival[i] = Some(drawn);
                drawn
            }
        };
        let at = SimTime::from_nanos((slots * self.slot_ns as f64).round() as u64);
        if at < end {
            events.schedule(at.max(events.now()), Event::Arrival { source });
        }
    }

    fn handle(
        &mut self,
        frame: &FrameService,
        events: &mut EventQueue<Event>,
        end: SimTime,
        event: Event,
        now: SimTime,
    ) {
        match event {
            Event::Arrival { source } => {
                self.pending_arrival[source as usize] = None;
                self.totals.injected += 1;
                match self.router.first_hop(source, &mut self.links) {
                    Some((link, tag)) => {
                        self.totals.in_flight += 1;
                        self.totals.peak_backlog =
                            self.totals.peak_backlog.max(self.totals.in_flight);
                        let packet = Packet {
                            created: now,
                            tag,
                            due: None,
                        };
                        self.enqueue(frame, events, end, link, packet, now);
                    }
                    None => {
                        self.totals.dropped += 1;
                    }
                }
                self.arm_arrival(events, end, source);
            }
            Event::Departure { link } => {
                // The event is the head's; its successor's enters now.
                let queue = &mut self.links.queues[link as usize].queue;
                let Some(packet) = queue.pop_front() else {
                    return;
                };
                schedule_departure(events, link, queue.front().and_then(|next| next.due));
                match self.router.next_hop(link, packet.tag, &mut self.links) {
                    NextHop::Forward(next, tag) => {
                        self.enqueue(frame, events, end, next, Packet { tag, ..packet }, now);
                    }
                    NextHop::Deliver => {
                        self.totals.delivered += 1;
                        self.totals.in_flight -= 1;
                        self.delays_ns
                            .push(now.saturating_sub(packet.created).as_nanos());
                    }
                    NextHop::Drop => {
                        self.totals.dropped += 1;
                        self.totals.in_flight -= 1;
                    }
                }
            }
        }
    }

    /// Runs the simulation forward `slots` slots over `frame` and returns
    /// the segment's measurements.
    pub(crate) fn advance(&mut self, frame: &FrameService, slots: u64) -> SegmentReport {
        let start_slot = self.now_slot;
        let end_slot = start_slot.saturating_add(slots);
        let end = self.slot_duration.saturating_mul(end_slot);
        let first_delay = self.delays_ns.len();
        let before = self.totals;
        let mut events: EventQueue<Event> = EventQueue::new();

        // FIFO reconstruction (module docs): every queued packet is booked
        // afresh, ready at the segment start, in the segment's frame.
        self.links.resolved = 0;
        self.links.resolve(frame);
        for link in 0..self.links.queues.len() as u32 {
            let q = &mut self.links.queues[link as usize];
            q.cursor = None;
            for i in 0..q.queue.len() {
                let due = self.book_departure(frame, &mut events, end, link, start_slot);
                self.links.queues[link as usize].queue[i].due = due;
            }
            let head = self.links.queues[link as usize].queue.front();
            schedule_departure(&mut events, link, head.and_then(|p| p.due));
        }
        for source in 0..self.samplers.len() as u32 {
            if !self.paused[source as usize] {
                self.arm_arrival(&mut events, end, source);
            }
        }

        let mut pending_peak = events.len();
        let handled = events.run_until(end, |q, ev| {
            self.handle(frame, q, end, ev.event, ev.time);
            pending_peak = pending_peak.max(q.len());
        });
        self.now_slot = end_slot;
        // Rescue passes move the totals only between segments, so the
        // differences are exactly what this segment did.
        let segment = SegmentReport {
            start_slot,
            end_slot,
            injected: self.totals.injected - before.injected,
            delivered: self.totals.delivered - before.delivered,
            dropped: self.totals.dropped - before.dropped,
            backlog_end: self.totals.in_flight,
            delay: DelayStats::from_delays(&mut self.delays_ns[first_delay..], self.slot_ns),
        };
        scream_obs::set_slot(end_slot);
        scream_obs::counter_add("traffic.injected", segment.injected);
        scream_obs::counter_add("traffic.delivered", segment.delivered);
        scream_obs::counter_add("traffic.dropped", segment.dropped);
        scream_obs::gauge_set("traffic.backlog", segment.backlog_end);
        scream_obs::counter_add("traffic.events", handled);
        scream_obs::gauge_set("traffic.events.pending_peak", pending_peak as u64);
        scream_obs::event(
            "traffic.segment",
            [
                ("injected", segment.injected),
                ("delivered", segment.delivered),
                ("dropped", segment.dropped),
                ("backlog", segment.backlog_end),
            ],
        );
        segment
    }
}

/// Enters the departure `due` of the head of `link`'s queue, if it has one.
fn schedule_departure(events: &mut EventQueue<Event>, link: u32, due: Option<Due>) {
    if let Some(Due { at, seq }) = due {
        events.schedule_reserved(at, seq, Event::Departure { link });
    }
}

/// Per-link offered load vs. service share, and the analytic stability
/// verdict. `paths` yields each source's mean rate and the distinct links
/// its packets traverse; links keep first-appearance order.
pub(crate) fn analytic_loads<P: IntoIterator<Item = Link>>(
    paths: impl IntoIterator<Item = (f64, P)>,
    share: impl Fn(Link) -> f64,
) -> (Vec<LinkLoad>, StabilityVerdict) {
    // BTreeMap so no hash-ordered container feeds the verdict, even though
    // this index is lookup-only (D1.iter).
    let mut index: BTreeMap<Link, usize> = BTreeMap::new();
    let mut loads: Vec<LinkLoad> = Vec::new();
    for (rate, path) in paths {
        for link in path {
            let i = *index.entry(link).or_insert_with(|| {
                loads.push(LinkLoad {
                    link,
                    offered_per_slot: 0.0,
                    service_share: share(link),
                });
                loads.len() - 1
            });
            loads[i].offered_per_slot += rate;
        }
    }
    let bottlenecks: Vec<LinkLoad> = loads.iter().filter(|l| !l.is_stable()).copied().collect();
    let verdict = if bottlenecks.is_empty() {
        StabilityVerdict::Stable
    } else {
        StabilityVerdict::Overloaded { bottlenecks }
    };
    (loads, verdict)
}
