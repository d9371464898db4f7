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
//! packets, a packet's departure slot is
//!
//! > `departure(p) = next scheduled slot ≥ max(packet ready slot,
//! >  first slot the server is free after the previous packet)`
//!
//! which [`FrameService::next_service_slot_at`] answers in O(log #windows)
//! from a position resolved once per link and installed frame, so no hop
//! looks a link up by value. Slots are absolute; the frame repeats from
//! `frame_epoch` (the slot it was installed at), not from slot 0.
//!
//! A packet takes its ready slot and its event sequence number when it joins
//! a queue; its departure slot is assigned, and its departure (the end of
//! that slot) enters the event queue under its number, only when it becomes
//! the FIFO **head**: on joining an empty queue, or when its predecessor
//! departs. That is the slot enqueue would have assigned, since the frame is
//! fixed within a segment and a link's cursor moves only in FIFO order. The
//! pop order is the one a queue holding every packet's departure would give,
//! because events pop in `(time, sequence)` order and a successor's key is
//! larger than its predecessor's (later or equal slot, later reservation):
//! it cannot be the smallest key before its predecessor has popped, and it
//! is in the queue from that moment on. The sequence must be the reserved
//! one — a fresh number would put the departure behind arrivals armed in
//! between and reorder same-instant ties. At one instant, then, a head's
//! departure and an arrival pop in the order they were *numbered* — the
//! departure when its packet joined the queue, the arrival when its source's
//! previous arrival was handled — while the next hop's enqueue is no event
//! at all but part of the departure that causes it: it happens before
//! anything else at that instant pops, so a forwarded packet joins the next
//! queue ahead of a same-instant arrival numbered later, and its own
//! departure falls at least one slot on (it is ready only for the slot after
//! the instant). So the event queue holds at most one departure per
//! registered link plus one arrival per source, whatever the backlog.
//!
//! The event queue is a slot [`Calendar`] with one entry (a *leaf*) per
//! source and per link, keyed `(time, sequence)` in one `u128`. A pending
//! leaf hangs in the bucket of its slot on a ring of [`RING_SLOTS`]
//! buckets — an intrusive list threaded through the leaves, with one
//! occupancy bit per bucket — or, when it is a ring or more ahead, in an
//! overflow min-heap that it leaves once, when the window reaches it. The
//! slot being drained is sorted once and popped from its end; the rare
//! event booked into that slot (an arrival inside it, or the second
//! departure of a link served on two channels) is inserted in sorted
//! position. So an event costs O(1) amortized, plus the sort of its slot,
//! when it falls within `RING_SLOTS` slots, and O(log n) beyond, and a hop
//! adds O(log #windows) for its service slot. Storage is the leaves, a
//! `RING_SLOTS`-entry ring and the overflow, never a structure per slot:
//! the window jumps straight to the next occupied bucket or to the
//! overflow's minimum, so an idle million-slot frame costs no more than an
//! idle ten-slot one.
//!
//! # Segments
//!
//! [`Sim::advance`] runs one segment and returns with queues, samplers and
//! in-flight packets intact. Departure events are not carried across
//! segments: at every segment start the cursors are reset, each queue's
//! packets are renumbered in FIFO order with the segment start as their
//! ready slot, and each head is booked. A packet that had not left by then
//! could not have been served earlier, so this yields exactly the slots a
//! continuous run would have assigned; the numbers keep their relative
//! order (an unused one only leaves a gap), and all are taken before any
//! arrival is armed, so a carried departure goes ahead of an arrival at the
//! same instant. This is what lets a caller kill links, swap the frame or
//! move packets between segments without patching pending events. The
//! links' service positions outlive segments: they are resolved once per
//! installed frame ([`Sim::restart_frame`]), a link registered later on its
//! first use.
//!
//! # Determinism
//!
//! Source `i` draws from its own ChaCha stream seeded `seed + i · φ`, the
//! calendar breaks timestamp ties in booking order (its property test holds
//! every pop to a sorted `(time, sequence)` reference), and no wall-clock
//! value enters, so the same inputs reproduce the same measurements bit for
//! bit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use scream_netsim::SimTime;
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
    /// The first slot it may be served in on its current link.
    ready: u64,
    /// The event sequence number reserved for its departure when it joined
    /// its current queue (module docs).
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
    /// Queues `..resolved` hold their service position in the installed
    /// frame; links registered since are resolved on first use.
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

/// Slots the calendar's ring spans. An event booked fewer slots ahead of
/// the slot being drained goes straight into its bucket; one booked further
/// ahead waits in the overflow heap until the window reaches it.
const RING_SLOTS: usize = 1024;

/// The end of a bucket's list.
const NIL: u32 = u32::MAX;

/// The pending events of a segment, popped in `(time, sequence)` order
/// (module docs, § Event structure).
///
/// Each source owns one leaf, its next arrival, and each registered link
/// one, its head's departure; a pending leaf sits in exactly one of
/// `current` (the slot being drained), a ring bucket (the next
/// [`RING_SLOTS`] slots) or `overflow` (later). A key is the event's
/// instant in the high 64 bits and its sequence number in the low 64.
#[derive(Debug)]
struct Calendar {
    /// Leaves `..sources` are arrivals, leaf `sources + l` is link `l`'s
    /// departure.
    sources: u32,
    slot_ns: u64,
    /// Each leaf's key while it waits in a bucket.
    keys: Vec<u128>,
    /// The next leaf in the same bucket, or [`NIL`].
    next: Vec<u32>,
    /// The first leaf of each bucket; slot `s` hangs in bucket
    /// `s % RING_SLOTS`.
    heads: Box<[u32]>,
    /// One bit per non-empty bucket.
    occupied: [u64; RING_SLOTS / 64],
    /// The slot being drained; the ring covers `base .. base + RING_SLOTS`.
    base: u64,
    /// Whether slot `base` has left its bucket for `current`.
    open: bool,
    /// The pending `(key, leaf)`s of slot `base`, by descending key.
    current: Vec<(u128, u32)>,
    /// The `(key, leaf)`s `RING_SLOTS` or more slots past `base`.
    overflow: BinaryHeap<Reverse<(u128, u32)>>,
    /// The instant of the last popped event ([`SimTime::ZERO`] before the
    /// segment's first).
    now: SimTime,
    next_sequence: u64,
    /// The number of pending events.
    len: usize,
}

impl Calendar {
    fn new(sources: usize, slot_ns: u64) -> Self {
        Self {
            sources: sources as u32,
            slot_ns,
            keys: vec![0; sources],
            next: vec![NIL; sources],
            heads: vec![NIL; RING_SLOTS].into_boxed_slice(),
            occupied: [0; RING_SLOTS / 64],
            base: 0,
            open: false,
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_sequence: 0,
            len: 0,
        }
    }

    /// Starts a segment at `start` on a drained calendar: the window
    /// opens there, and the clock and the sequence numbers restart at 0.
    fn restart(&mut self, start: SimTime) {
        debug_assert_eq!(self.len, 0, "a segment drains its calendar");
        self.base = start.as_nanos() / self.slot_ns;
        self.open = false;
        self.now = SimTime::ZERO;
        self.next_sequence = 0;
    }

    /// Takes the next sequence number, so an event can be ordered now and
    /// entered later: it then ties as if it had been entered now.
    fn reserve(&mut self) -> u64 {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        sequence
    }

    /// Enters `event` at `at` under a fresh sequence number.
    fn schedule(&mut self, at: SimTime, event: Event) {
        let sequence = self.reserve();
        self.schedule_reserved(at, sequence, event);
    }

    /// Enters `event` at `at` under a sequence number taken earlier with
    /// [`reserve`](Self::reserve). Its leaf must not be pending, and its key
    /// must not be below the last popped one.
    fn schedule_reserved(&mut self, at: SimTime, sequence: u64, event: Event) {
        let leaf = match event {
            Event::Arrival { source } => source,
            Event::Departure { link } => self.sources + link,
        };
        if leaf as usize >= self.keys.len() {
            // A link registered since the leaves were last grown.
            self.keys.resize(leaf as usize + 1, 0);
            self.next.resize(leaf as usize + 1, NIL);
        }
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(sequence);
        let slot = self.slot_of(key);
        if slot == self.base && self.open {
            // Rare: an arrival inside the slot being drained, or a second
            // departure from a slot that serves the link on two channels.
            let i = self.current.partition_point(|&(k, _)| k > key);
            self.current.insert(i, (key, leaf));
        } else if slot - self.base < RING_SLOTS as u64 {
            self.hang(slot, key, leaf);
        } else {
            self.overflow.push(Reverse((key, leaf)));
        }
        self.len += 1;
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its instant.
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.current.is_empty() && !self.open_next() {
            return None;
        }
        let (key, leaf) = self.current.pop()?;
        self.len -= 1;
        self.now = SimTime::from_nanos((key >> 64) as u64);
        let event = match leaf.checked_sub(self.sources) {
            None => Event::Arrival { source: leaf },
            Some(link) => Event::Departure { link },
        };
        Some((self.now, event))
    }

    /// The slot holding `key`'s instant, or `base` if that is earlier.
    fn slot_of(&self, key: u128) -> u64 {
        ((key >> 64) as u64 / self.slot_ns).max(self.base)
    }

    /// Hangs `leaf` in the bucket of `slot`, inside the window.
    fn hang(&mut self, slot: u64, key: u128, leaf: u32) {
        let bucket = (slot % RING_SLOTS as u64) as usize;
        self.keys[leaf as usize] = key;
        self.next[leaf as usize] = self.heads[bucket];
        self.heads[bucket] = leaf;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
    }

    /// The earliest slot of the window whose bucket holds a leaf.
    fn next_occupied(&self) -> Option<u64> {
        const WORDS: usize = RING_SLOTS / 64;
        let start = (self.base % RING_SLOTS as u64) as usize;
        let (word, bit) = (start / 64, start % 64);
        // `start`'s word from `start` on, the other words in ring order,
        // then `start`'s word below `start`.
        (0..=WORDS).find_map(|i| {
            let w = (word + i) % WORDS;
            let bits = match i {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| {
                let bucket = w * 64 + bits.trailing_zeros() as usize;
                self.base + ((bucket + RING_SLOTS - start) % RING_SLOTS) as u64
            })
        })
    }

    /// Opens the earliest slot holding an event: the window moves there,
    /// refills from the overflow, and the slot's bucket is sorted into
    /// `current`. `false` when nothing is pending.
    fn open_next(&mut self) -> bool {
        let Some(slot) = self.next_occupied().or_else(|| {
            self.overflow
                .peek()
                .map(|&Reverse((key, _))| self.slot_of(key))
        }) else {
            return false;
        };
        self.base = slot;
        self.open = true;
        while let Some(&Reverse((key, leaf))) = self.overflow.peek() {
            let slot = self.slot_of(key);
            if slot - self.base >= RING_SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            self.hang(slot, key, leaf);
        }
        let bucket = (slot % RING_SLOTS as u64) as usize;
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        let mut leaf = std::mem::replace(&mut self.heads[bucket], NIL);
        while leaf != NIL {
            self.current.push((self.keys[leaf as usize], leaf));
            leaf = self.next[leaf as usize];
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        true
    }
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
    /// The segment's pending events; empty between segments.
    events: Calendar,
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
            events: Calendar::new(samplers.len(), config.slot_duration.as_nanos()),
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

    /// A new frame was installed: it counts its slot 0 from the current
    /// slot, and every link's service position is resolved in it afresh.
    pub(crate) fn restart_frame(&mut self) {
        self.frame_epoch = self.now_slot;
        self.links.resolved = 0;
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
    /// `None` for dead links, links the frame never serves and service past
    /// the end of the slot clock (the packet is parked).
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
                slot.checked_add(1)?
            }
            _ => ready,
        };
        let next = frame.next_service_slot_at(q.service?, from.saturating_sub(epoch))?;
        let slot = next.slot.checked_add(epoch)?;
        q.cursor = Some((slot, 1, next.capacity));
        Some(slot)
    }

    /// Assigns `link`'s next service slot to a packet ready at `ready`: the
    /// departure instant (the end of that slot) if it falls inside the
    /// segment. Slot `u64::MAX` ends past the clock, so nothing served in it
    /// leaves.
    fn book_departure(
        &mut self,
        frame: &FrameService,
        end: SimTime,
        link: u32,
        ready: u64,
    ) -> Option<SimTime> {
        let slot = self.assign_departure(frame, link, ready)?;
        let at = self.slot_duration.saturating_mul(slot.checked_add(1)?);
        (at <= end).then_some(at)
    }

    /// Books the head of `link`'s queue: its service slot, and its departure
    /// under the number it reserved at enqueue. Called when it becomes head.
    fn book_head(&mut self, frame: &FrameService, end: SimTime, link: u32) {
        let Some(&Packet { ready, seq, .. }) = self.links.queues[link as usize].queue.front()
        else {
            return;
        };
        if let Some(at) = self.book_departure(frame, end, link, ready) {
            self.events
                .schedule_reserved(at, seq, Event::Departure { link });
        }
    }

    /// Queues a packet on `link`, ready for the slot starting at or after
    /// `now`, under a fresh number; one joining an empty queue is booked.
    fn enqueue(
        &mut self,
        frame: &FrameService,
        end: SimTime,
        link: u32,
        created: SimTime,
        tag: R::Tag,
        now: SimTime,
    ) {
        let packet = Packet {
            created,
            tag,
            ready: now.as_nanos().div_ceil(self.slot_ns),
            seq: self.events.reserve(),
        };
        let queue = &mut self.links.queues[link as usize].queue;
        queue.push_back(packet);
        if queue.len() == 1 {
            self.book_head(frame, end, link);
        }
    }

    fn arm_arrival(&mut self, end: SimTime, source: u32) {
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
            let at = at.max(self.events.now);
            self.events.schedule(at, Event::Arrival { source });
        }
    }

    fn handle(&mut self, frame: &FrameService, end: SimTime, event: Event, now: SimTime) {
        match event {
            Event::Arrival { source } => {
                self.pending_arrival[source as usize] = None;
                self.totals.injected += 1;
                match self.router.first_hop(source, &mut self.links) {
                    Some((link, tag)) => {
                        self.totals.in_flight += 1;
                        self.totals.peak_backlog =
                            self.totals.peak_backlog.max(self.totals.in_flight);
                        self.enqueue(frame, end, link, now, tag, now);
                    }
                    None => {
                        self.totals.dropped += 1;
                    }
                }
                self.arm_arrival(end, source);
            }
            Event::Departure { link } => {
                // The event is the head's; its successor becomes the head.
                let Some(packet) = self.links.queues[link as usize].queue.pop_front() else {
                    return;
                };
                self.book_head(frame, end, link);
                match self.router.next_hop(link, packet.tag, &mut self.links) {
                    NextHop::Forward(next, tag) => {
                        self.enqueue(frame, end, next, packet.created, tag, now);
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

    /// Runs the simulation forward `slots` slots over `frame`, the frame
    /// installed at the last [`restart_frame`](Self::restart_frame) (or at
    /// the start), and returns the segment's measurements.
    pub(crate) fn advance(&mut self, frame: &FrameService, slots: u64) -> SegmentReport {
        let start_slot = self.now_slot;
        let end_slot = start_slot.saturating_add(slots);
        let end = self.slot_duration.saturating_mul(end_slot);
        let first_delay = self.delays_ns.len();
        let before = self.totals;
        self.events
            .restart(self.slot_duration.saturating_mul(start_slot));

        // FIFO reconstruction (module docs): every queued packet is ready at
        // the segment start and renumbered in FIFO order; only heads are
        // booked, in the segment's frame.
        for link in 0..self.links.queues.len() as u32 {
            let q = &mut self.links.queues[link as usize];
            q.cursor = None;
            for packet in &mut q.queue {
                packet.ready = start_slot;
                packet.seq = self.events.reserve();
            }
            self.book_head(frame, end, link);
        }
        for source in 0..self.samplers.len() as u32 {
            if !self.paused[source as usize] {
                self.arm_arrival(end, source);
            }
        }

        // Nothing is booked past `end`, so the segment drains the calendar.
        let mut pending_peak = self.events.len;
        let mut handled = 0u64;
        while let Some((now, event)) = self.events.pop() {
            self.handle(frame, end, event, now);
            handled += 1;
            pending_peak = pending_peak.max(self.events.len);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use scream_scheduling::Schedule;
    use scream_topology::NodeId;

    const SLOT_NS: u64 = 1_000;
    const RING: u64 = RING_SLOTS as u64;

    /// An instant at or after `now`: on it, inside its slot, on a later
    /// slot end (where departures fall), elsewhere in the ring, around the
    /// ring's far edge, or one to four rings ahead.
    fn instant_after(rng: &mut ChaCha8Rng, now: u64) -> u64 {
        let slot = now / SLOT_NS;
        let at_slot = |s: u64| s.saturating_mul(SLOT_NS);
        match rng.gen_range(0..6) {
            0 => now,
            1 => now.saturating_add(rng.gen_range(0..SLOT_NS)),
            2 => at_slot(slot.saturating_add(rng.gen_range(1..4u64))),
            3 => at_slot(slot.saturating_add(rng.gen_range(1..RING)))
                .saturating_add(rng.gen_range(0..SLOT_NS)),
            4 => at_slot(slot.saturating_add(RING - 2 + rng.gen_range(0..4u64))),
            _ => at_slot(slot.saturating_add(rng.gen_range(RING..5 * RING)))
                .saturating_add(rng.gen_range(0..SLOT_NS)),
        }
    }

    /// Every packet is delivered after its first hop, on link 0.
    struct OneHop;

    impl Router for OneHop {
        type Tag = ();

        fn first_hop(&mut self, _: u32, _: &mut Links<()>) -> Option<(u32, ())> {
            Some((0, ()))
        }

        fn next_hop(&mut self, _: u32, (): (), _: &mut Links<()>) -> NextHop<()> {
            NextHop::Deliver
        }
    }

    /// The slot clock ends at `u64::MAX`, and slot `u64::MAX` ends past it:
    /// a packet ready within one frame of the end is booked a departure only
    /// in a slot that ends on the clock. On `[b], [a], [b]` at 1-ns slots
    /// (3 divides `u64::MAX`, so the clock's last slot runs frame slot 0),
    /// from `u64::MAX − k` for k ∈ {0, 1, 3}.
    #[test]
    fn nothing_is_booked_past_the_end_of_the_clock() {
        let link = |head: u32, tail: u32| Link::new(NodeId::new(head), NodeId::new(tail));
        let (a, b) = (link(1, 0), link(3, 2));
        let frame = FrameService::from_schedule(&Schedule::from_runs(vec![
            (vec![b], 1),
            (vec![a], 1),
            (vec![b], 1),
        ]));
        let config = TrafficConfig::new(1).with_slot_duration(SimTime::from_nanos(1));
        let end = SimTime::from_nanos(u64::MAX);
        // The departure instants of `packets` packets joining `link`'s
        // empty queue, each ready at `ready`.
        let book = |served: Link, ready: u64, packets: usize| {
            let mut links = Links::default();
            let idx = links.idx(served);
            let mut sim = Sim::new(OneHop, links, std::iter::empty(), &config);
            (0..packets)
                .map(|_| {
                    sim.book_departure(&frame, end, idx, ready)
                        .map(SimTime::as_nanos)
                })
                .collect::<Vec<_>>()
        };
        let max = u64::MAX;
        assert_eq!(book(a, max, 1), [None]);
        assert_eq!(book(a, max - 1, 1), [None]);
        assert_eq!(book(a, max - 3, 2), [Some(max - 1), None]);
        assert_eq!(book(b, max, 1), [None], "slot u64::MAX ends past the clock");
        assert_eq!(book(b, max - 1, 3), [Some(max), None, None]);
        assert_eq!(book(b, max - 3, 4), [Some(max - 2), Some(max), None, None]);
    }

    /// How often each case the property must reach was reached.
    #[derive(Default)]
    struct Reached {
        tie_on_a_slot_end: u64,
        reserved_entered_late: u64,
        inserted_into_the_open_slot: u64,
        beyond_the_ring: u64,
        only_the_overflow_pending: u64,
        leaf_added_mid_run: u64,
    }

    /// Random interleavings of arrivals, fresh and reserved departures, new
    /// links and pops, over three segments of one calendar: every pop is the
    /// first key of a sorted `(time, sequence)` reference, and every case of
    /// [`Reached`] is drawn.
    #[test]
    fn the_calendar_pops_in_reference_order() {
        const NAME: &str = "the_calendar_pops_in_reference_order";
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in NAME.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
        let mut reached = Reached::default();
        for case in 0..200u64 {
            let failed = format!("property '{NAME}' failed at case {case}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(case));
            let sources = rng.gen_range(1..6u32);
            let mut calendar = Calendar::new(sources as usize, SLOT_NS);
            let mut links = rng.gen_range(1..4u32);
            // Some cases run at the end of the clock, where slots saturate.
            let mut start = match rng.gen_range(0..6) {
                0 => u64::MAX - rng.gen_range(0..3 * RING * SLOT_NS),
                _ => rng.gen_range(0..3 * RING) * SLOT_NS,
            };
            for _segment in 0..3 {
                calendar.restart(SimTime::from_nanos(start));
                let mut reference: BTreeMap<(u64, u64), Event> = BTreeMap::new();
                let mut arrival_pending = vec![false; sources as usize];
                let mut departure_pending = vec![false; links as usize];
                let mut reserved: Vec<u64> = Vec::new();
                let mut last = (start, 0u64);
                let pop = |calendar: &mut Calendar,
                           reference: &mut BTreeMap<(u64, u64), Event>,
                           reached: &mut Reached| {
                    if calendar.current.is_empty()
                        && calendar.next_occupied().is_none()
                        && !calendar.overflow.is_empty()
                    {
                        reached.only_the_overflow_pending += 1;
                    }
                    let expected = reference.pop_first();
                    let popped = calendar.pop();
                    assert_eq!(
                        popped,
                        expected.map(|((at, _), event)| (SimTime::from_nanos(at), event)),
                        "{failed}"
                    );
                    assert_eq!(calendar.len, reference.len(), "{failed}");
                    expected
                };
                // Whether an event of the other kind is pending at `at`.
                let ties = |reference: &BTreeMap<(u64, u64), Event>, at: u64, arrival: bool| {
                    reference
                        .range((at, 0)..=(at, u64::MAX))
                        .any(|(_, event)| matches!(event, Event::Arrival { .. }) != arrival)
                };
                for _ in 0..rng.gen_range(50..300) {
                    let now = calendar.now.as_nanos().max(start);
                    match rng.gen_range(0..12) {
                        0..=2 => {
                            let source = rng.gen_range(0..sources);
                            if std::mem::replace(&mut arrival_pending[source as usize], true) {
                                continue;
                            }
                            let at = instant_after(&mut rng, now);
                            let sequence = calendar.next_sequence;
                            if calendar.open && at / SLOT_NS == calendar.base {
                                reached.inserted_into_the_open_slot += 1;
                            }
                            if ties(&reference, at, true) {
                                reached.tie_on_a_slot_end += 1;
                            }
                            calendar.schedule(SimTime::from_nanos(at), Event::Arrival { source });
                            reference.insert((at, sequence), Event::Arrival { source });
                        }
                        3..=4 => reserved.push(calendar.reserve()),
                        5..=7 => {
                            let link = rng.gen_range(0..links);
                            if std::mem::replace(&mut departure_pending[link as usize], true) {
                                continue;
                            }
                            // Departures leave on slot ends.
                            let at = instant_after(&mut rng, now)
                                .div_ceil(SLOT_NS)
                                .saturating_mul(SLOT_NS);
                            let sequence = match reserved.pop() {
                                Some(sequence) if (at, sequence) > last => {
                                    reached.reserved_entered_late += 1;
                                    sequence
                                }
                                _ => calendar.reserve(),
                            };
                            if at / SLOT_NS - now / SLOT_NS >= RING {
                                reached.beyond_the_ring += 1;
                            }
                            if ties(&reference, at, false) {
                                reached.tie_on_a_slot_end += 1;
                            }
                            let event = Event::Departure { link };
                            calendar.schedule_reserved(SimTime::from_nanos(at), sequence, event);
                            reference.insert((at, sequence), event);
                        }
                        8 => {
                            links += 1;
                            departure_pending.push(false);
                            reached.leaf_added_mid_run += 1;
                        }
                        _ => {
                            for _ in 0..rng.gen_range(1..6) {
                                if let Some((key, event)) =
                                    pop(&mut calendar, &mut reference, &mut reached)
                                {
                                    last = key;
                                    match event {
                                        Event::Arrival { source } => {
                                            arrival_pending[source as usize] = false;
                                        }
                                        Event::Departure { link } => {
                                            departure_pending[link as usize] = false;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                while pop(&mut calendar, &mut reference, &mut reached).is_some() {}
                assert!(
                    calendar.current.is_empty() && calendar.overflow.is_empty(),
                    "{failed}"
                );
                assert_eq!(calendar.occupied, [0; RING_SLOTS / 64], "{failed}");
                start = calendar.now.as_nanos().max(start);
            }
        }
        for (case, count) in [
            (
                "an arrival tied with a departure on a slot end",
                reached.tie_on_a_slot_end,
            ),
            ("a reserved key entered late", reached.reserved_entered_late),
            (
                "an arrival into the slot being drained",
                reached.inserted_into_the_open_slot,
            ),
            ("a departure a ring or more ahead", reached.beyond_the_ring),
            (
                "an empty ring with a pending overflow",
                reached.only_the_overflow_pending,
            ),
            ("a leaf added mid-run", reached.leaf_added_mid_run),
        ] {
            assert!(count >= 20, "only {count} draws reached {case}");
        }
    }
}
