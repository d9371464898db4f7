//! Per-link service structure of a schedule used as a repeating TDMA frame.
//!
//! A schedule of length `F` can be executed cyclically: slot `t` of real time
//! runs pattern `t mod F` of the schedule forever. Under that reading each
//! link's transmission opportunities form a periodic set of slots, and a
//! packet-level simulator (the `scream-traffic` crate) needs exactly two
//! queries about it:
//!
//! * how many slots per frame serve a link (its **service share**, the
//!   capacity against which offered load decides stability), and
//! * given "the link has a packet ready at absolute slot `s`", which is the
//!   **next scheduled slot** `≥ s` (to assign the packet's departure).
//!
//! [`FrameService`] answers both from the schedule's run-length form: it is
//! built by one pass over [`Schedule::runs`] — never the expanded slots, so a
//! million-slot heavy-demand frame costs O(#patterns · links-per-pattern) to
//! index — and `next_service_slot` is a binary search over a link's service
//! *windows* (maximal runs of consecutive scheduled slots), wrapping around
//! the frame boundary in O(1).

use std::collections::HashMap;

use serde::Serialize;

use scream_topology::Link;

use crate::schedule::Schedule;

/// A maximal window of consecutive frame slots in which a link transmits:
/// slots `start .. start + len` (frame-relative), each carrying `capacity`
/// concurrent `(channel, link)` entries for the link (1 for every verifiable
/// schedule; > 1 only for degenerate patterns repeating a link on several
/// channels, which the verifier rejects but the type admits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct ServiceWindow {
    /// First frame slot of the window.
    start: u64,
    /// Number of consecutive slots in the window.
    len: u64,
    /// Packets the link can send per slot of this window.
    capacity: u32,
}

impl ServiceWindow {
    /// One past the last frame slot of the window.
    fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The service windows of one link within the frame.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
struct LinkService {
    /// Maximal windows in increasing `start` order (disjoint by maximality).
    windows: Vec<ServiceWindow>,
    /// Total `(channel, link)` transmission opportunities per frame:
    /// `Σ len · capacity` over the windows.
    service_slots: u64,
}

/// The next transmission opportunity of a link, as reported by
/// [`FrameService::next_service_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextService {
    /// Absolute slot index (frames concatenated: slot `s` runs frame slot
    /// `s mod frame_slots`).
    pub slot: u64,
    /// Packets the link can send in that slot.
    pub capacity: u32,
}

/// A link's place in one [`FrameService`], from
/// [`FrameService::position`]. Opaque: it is only good for
/// [`FrameService::next_service_slot_at`] on the frame it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServicePos {
    index: usize,
    link: Link,
}

/// Per-link service index of a schedule executed as a repeating TDMA frame.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrameService {
    frame_slots: u64,
    links: Vec<(Link, LinkService)>,
    /// Lookup index into `links`; derivable, and a map with struct keys and
    /// unstable iteration order has no business in a serialized form.
    #[serde(skip)]
    by_link: HashMap<Link, usize>,
}

impl FrameService {
    /// Indexes `schedule` as a repeating frame. One pass over the run-length
    /// representation; cost is independent of the frame's slot count.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let mut by_link: HashMap<Link, usize> = HashMap::new();
        let mut links: Vec<(Link, LinkService)> = Vec::new();
        let mut start = 0u64;
        let mut occurrences: HashMap<Link, u32> = HashMap::new();
        for (pattern, count) in schedule.runs() {
            let entries = pattern.links();
            // Entries are sorted channel-major, so a link appearing on
            // several channels is not necessarily contiguous; count every
            // occurrence in the pattern up front (removal below makes the
            // main loop emit each link once, at its first occurrence).
            occurrences.clear();
            for &link in entries {
                *occurrences.entry(link).or_insert(0) += 1;
            }
            for &link in entries {
                let Some(capacity) = occurrences.remove(&link) else {
                    continue;
                };
                let idx = *by_link.entry(link).or_insert_with(|| {
                    links.push((link, LinkService::default()));
                    links.len() - 1
                });
                let service = &mut links[idx].1;
                service.service_slots += count * capacity as u64;
                match service.windows.last_mut() {
                    // Extend the previous window when the runs are adjacent
                    // and the per-slot capacity is unchanged (maximality).
                    Some(w) if w.end() == start && w.capacity == capacity => w.len += count,
                    _ => service.windows.push(ServiceWindow {
                        start,
                        len: count,
                        capacity,
                    }),
                }
            }
            start += count;
        }
        Self {
            frame_slots: start,
            links,
            by_link,
        }
    }

    /// Number of slots in one frame repetition (the schedule length).
    pub fn frame_slots(&self) -> u64 {
        self.frame_slots
    }

    /// Whether the frame has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.frame_slots == 0
    }

    /// Transmission opportunities per frame for `link` (0 if never served).
    pub fn service_slots(&self, link: Link) -> u64 {
        self.by_link
            .get(&link)
            .map_or(0, |&i| self.links[i].1.service_slots)
    }

    /// Fraction of frame slots serving `link` — the link's packets-per-slot
    /// service capacity, against which offered load decides stability.
    /// Returns 0 for an empty frame.
    pub fn service_share(&self, link: Link) -> f64 {
        if self.frame_slots == 0 {
            return 0.0;
        }
        self.service_slots(link) as f64 / self.frame_slots as f64
    }

    /// Where `link`'s service is indexed in this frame, for repeated
    /// [`next_service_slot_at`](Self::next_service_slot_at) queries without
    /// a lookup each. `None` if the link is never served.
    pub fn position(&self, link: Link) -> Option<ServicePos> {
        self.by_link
            .get(&link)
            .map(|&index| ServicePos { index, link })
    }

    /// The first absolute slot `≥ from` in which `link` transmits, treating
    /// the frame as repeating forever (absolute slot `s` runs frame slot
    /// `s mod frame_slots`). `None` if the link is never served, or not
    /// served again before the slot clock ends at `u64::MAX`.
    ///
    /// O(log #windows) via binary search, plus O(1) frame wrap-around.
    pub fn next_service_slot(&self, link: Link, from: u64) -> Option<NextService> {
        self.next_service_slot_at(self.position(link)?, from)
    }

    /// [`next_service_slot`](Self::next_service_slot) for the link at
    /// `pos`. A position taken from another frame answers only if it names
    /// the same link at the same place here; otherwise `None`, as for a
    /// link this frame never serves.
    pub fn next_service_slot_at(&self, pos: ServicePos, from: u64) -> Option<NextService> {
        let (link, service) = self.links.get(pos.index)?;
        if *link != pos.link {
            return None;
        }
        let windows = service.windows.as_slice();
        let first = windows.first()?;
        let frame = from / self.frame_slots;
        let offset = from % self.frame_slots;
        // First window that ends after the offset, if any, else wrap.
        let i = windows.partition_point(|w| w.end() <= offset);
        match windows.get(i) {
            // `frame * frame_slots` is at most `from`; the slot past it may
            // lie beyond the clock.
            Some(w) => Some(NextService {
                slot: (frame * self.frame_slots).checked_add(w.start.max(offset))?,
                capacity: w.capacity,
            }),
            None => Some(NextService {
                slot: (frame + 1)
                    .checked_mul(self.frame_slots)?
                    .checked_add(first.start)?,
                capacity: first.capacity,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SlotPattern;
    use scream_netsim::ChannelId;
    use scream_topology::NodeId;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// The maximal service windows of `link`, in increasing slot order.
    fn windows(frame: &FrameService, link: Link) -> &[ServiceWindow] {
        frame
            .position(link)
            .map_or(&[], |pos| &frame.links[pos.index].1.windows)
    }

    #[test]
    fn empty_schedule_serves_nothing() {
        let frame = FrameService::from_schedule(&Schedule::new());
        assert!(frame.is_empty());
        assert_eq!(frame.frame_slots(), 0);
        assert_eq!(frame.links.len(), 0);
        assert_eq!(frame.service_share(link(1, 0)), 0.0);
        assert!(frame.next_service_slot(link(1, 0), 0).is_none());
    }

    #[test]
    fn windows_follow_the_run_structure() {
        // Slots: [a] x3, [a,b] x2, [b] x1  (a = 1->0, b = 3->2).
        let a = link(1, 0);
        let b = link(3, 2);
        let s = Schedule::from_runs(vec![(vec![a], 3), (vec![a, b], 2), (vec![b], 1)]);
        let frame = FrameService::from_schedule(&s);
        assert_eq!(frame.frame_slots(), 6);
        assert_eq!(frame.links.len(), 2);
        // a is served in slots 0..5 — one maximal window despite spanning two
        // runs; b in slots 3..6.
        assert_eq!(
            windows(&frame, a),
            &[ServiceWindow {
                start: 0,
                len: 5,
                capacity: 1
            }]
        );
        assert_eq!(
            windows(&frame, b),
            &[ServiceWindow {
                start: 3,
                len: 3,
                capacity: 1
            }]
        );
        assert_eq!(frame.service_slots(a), 5);
        assert_eq!(frame.service_share(b), 0.5);
        assert_eq!(frame.service_slots(link(5, 4)), 0);
    }

    #[test]
    fn next_service_slot_searches_and_wraps() {
        // b is served in frame slots 3, 4, 5 of a 6-slot frame.
        let a = link(1, 0);
        let b = link(3, 2);
        let s = Schedule::from_runs(vec![(vec![a], 3), (vec![a, b], 2), (vec![b], 1)]);
        let frame = FrameService::from_schedule(&s);
        let slot = |from| frame.next_service_slot(b, from).unwrap().slot;
        assert_eq!(slot(0), 3);
        assert_eq!(slot(3), 3);
        assert_eq!(slot(5), 5);
        // Past the last window: wrap into the next frame repetition.
        assert_eq!(slot(6), 6 + 3);
        assert_eq!(slot(4 * 6 + 5), 4 * 6 + 5);
        // a's window covers slots 0..5, so from-slot 5 wraps to slot 6.
        assert_eq!(frame.next_service_slot(a, 5).unwrap().slot, 6);
        assert_eq!(frame.next_service_slot(a, 17).unwrap().slot, 18);
    }

    /// The slot clock ends at `u64::MAX`: a service slot past it does not
    /// exist, so the link is not served again (`None`, never a wrapped slot
    /// in the past or an overflow panic). On `[b], [a], [b]` the clock's last
    /// slot, `u64::MAX`, runs frame slot 0 (3 divides `u64::MAX`).
    #[test]
    fn no_service_slot_lies_past_the_end_of_the_clock() {
        let (a, b) = (link(1, 0), link(3, 2));
        let s = Schedule::from_runs(vec![(vec![b], 1), (vec![a], 1), (vec![b], 1)]);
        let frame = FrameService::from_schedule(&s);
        let frame_slots = frame.frame_slots();
        let slot = |link, from| frame.next_service_slot(link, from).map(|n| n.slot);
        assert_eq!(slot(a, u64::MAX - 1), None, "wraps past the clock");
        assert_eq!(slot(a, u64::MAX), None, "later in the clock's last frame");
        assert_eq!(slot(a, u64::MAX - frame_slots), Some(u64::MAX - 2));
        assert_eq!(slot(b, u64::MAX), Some(u64::MAX));
        assert_eq!(slot(b, u64::MAX - 1), Some(u64::MAX - 1));
        assert_eq!(
            slot(b, u64::MAX - frame_slots),
            Some(u64::MAX - frame_slots)
        );
        // Every start within two frames of the end agrees with a scan of
        // the slots that exist.
        for link in [a, b] {
            for k in 0..=2 * frame_slots {
                let from = u64::MAX - k;
                let served = |t: u64| match t % frame_slots {
                    1 => link == a,
                    _ => link == b,
                };
                let scanned = (from..=u64::MAX).find(|&t| served(t));
                assert_eq!(slot(link, from), scanned, "{link} from u64::MAX - {k}");
            }
        }
    }

    #[test]
    fn positions_answer_on_their_own_frame_and_nowhere_else() {
        let a = link(1, 0);
        let b = link(3, 2);
        let s = Schedule::from_runs(vec![(vec![a], 3), (vec![a, b], 2), (vec![b], 1)]);
        let frame = FrameService::from_schedule(&s);
        let (pa, pb) = (frame.position(a).unwrap(), frame.position(b).unwrap());
        for from in 0..20 {
            assert_eq!(
                frame.next_service_slot_at(pa, from),
                frame.next_service_slot(a, from)
            );
            assert_eq!(
                frame.next_service_slot_at(pb, from),
                frame.next_service_slot(b, from)
            );
        }
        assert_eq!(frame.position(link(5, 4)), None);
        // In a frame serving b alone, a's index holds b and b's is out of
        // range: both positions are stale there, and neither panics.
        let only_b = FrameService::from_schedule(&Schedule::from_runs(vec![(vec![b], 1)]));
        assert_eq!(only_b.next_service_slot_at(pa, 0), None);
        assert_eq!(only_b.next_service_slot_at(pb, 0), None);
        // The same link at the same place answers for the frame it is asked.
        let swapped =
            FrameService::from_schedule(&Schedule::from_runs(vec![(vec![a], 1), (vec![b], 1)]));
        assert_eq!(swapped.next_service_slot_at(pa, 1).unwrap().slot, 2);
    }

    #[test]
    fn heavy_demand_frames_index_in_pattern_time() {
        // A million-slot frame with two patterns: the index must see two
        // windows, not a million slots.
        let a = link(1, 0);
        let b = link(3, 2);
        let mut s = Schedule::new();
        s.push_slot_run(vec![a], 1_000_000);
        s.push_slot_run(vec![b], 500_000);
        let frame = FrameService::from_schedule(&s);
        assert_eq!(frame.frame_slots(), 1_500_000);
        assert_eq!(windows(&frame, a).len(), 1);
        assert_eq!(frame.service_slots(a), 1_000_000);
        assert_eq!(
            frame.next_service_slot(b, 0).unwrap().slot,
            1_000_000,
            "b's first opportunity is after a's run"
        );
        assert_eq!(
            frame.next_service_slot(a, 1_200_000).unwrap().slot,
            1_500_000,
            "a wraps to the next frame repetition"
        );
    }

    #[test]
    fn multi_channel_entries_count_as_capacity() {
        // A (degenerate, verifier-rejected) pattern carrying the same link on
        // two channels yields capacity 2; a clean multi-channel pattern
        // serves each link with capacity 1.
        let a = link(1, 0);
        let b = link(3, 2);
        let doubled = SlotPattern::from_entries(vec![
            (ChannelId::new(0), a),
            (ChannelId::new(1), a),
            (ChannelId::new(1), b),
        ]);
        let mut s = Schedule::new();
        s.push_pattern_run(doubled, 4);
        let frame = FrameService::from_schedule(&s);
        assert_eq!(
            windows(&frame, a),
            &[ServiceWindow {
                start: 0,
                len: 4,
                capacity: 2
            }]
        );
        assert_eq!(frame.service_slots(a), 8);
        assert_eq!(frame.service_slots(b), 4);
        assert_eq!(frame.next_service_slot(a, 1).unwrap().capacity, 2);
    }

    #[test]
    fn capacity_changes_split_windows() {
        let a = link(1, 0);
        let double =
            SlotPattern::from_entries(vec![(ChannelId::new(0), a), (ChannelId::new(1), a)]);
        let mut s = Schedule::new();
        s.push_slot_run(vec![a], 2);
        s.push_pattern_run(double, 3);
        let frame = FrameService::from_schedule(&s);
        assert_eq!(
            windows(&frame, a),
            &[
                ServiceWindow {
                    start: 0,
                    len: 2,
                    capacity: 1
                },
                ServiceWindow {
                    start: 2,
                    len: 3,
                    capacity: 2
                }
            ]
        );
        assert_eq!(frame.service_slots(a), 2 + 6);
    }
}
