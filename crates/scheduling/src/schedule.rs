//! The STDMA schedule representation.
//!
//! A schedule is an ordered sequence of slots, each containing the set of
//! links that transmit concurrently in that slot. Both the centralized
//! GreedyPhysical algorithm and the distributed PDD/FDD protocols produce
//! values of this type, which makes cross-checking them (Theorem 4) a simple
//! equality test.
//!
//! # Run-length representation
//!
//! Heavy-demand instances repeat the same slot *pattern* (link set) many
//! times in a row — a link with a million units of leftover demand occupies a
//! million consecutive identical solo slots. Following the multicoloring view
//! of schedules as slot patterns with multiplicities (Vieira et al.,
//! arXiv:1106.1590 / arXiv:1504.01647), `Schedule` stores **maximal runs**
//! `(pattern, multiplicity)` instead of one `Vec<Link>` per slot, so memory
//! and most queries are O(#patterns) rather than O(#slots).
//! [`runs`](Schedule::runs) is the API: the verifier, `repair_schedule` and
//! the packet engine's `FrameService` walk it and pay per *distinct*
//! pattern, not per slot. [`slots`](Schedule::slots) and
//! [`expand`](Schedule::expand) remain as the explicit per-slot expansion
//! the reference packet model and the round-trip tests read.
//!
//! # Channel annotations
//!
//! Multi-channel/multi-radio scenarios are modeled as an extra *pattern
//! dimension*, not as expanded slot lists: a [`SlotPattern`] is a set of
//! `(channel, link)` assignments, kept sorted channel-major so each
//! channel's link set is a contiguous sub-slice
//! ([`channel_groups`](SlotPattern::channel_groups)). Orthogonal channels do
//! not interfere, so per-channel SINR feasibility plus the cross-channel
//! half-duplex rule (one radio per node — a node may not appear on two
//! channels of the same slot, checked by the verifier) fully characterize
//! multi-channel feasibility. Single-channel patterns store **no** channel
//! tags at all (the tag vector stays empty), so the `C = 1` representation
//! is byte-for-byte the plain link list the single-channel schedulers always
//! produced.
//!
//! The run list is kept **canonical** — no empty runs, no two adjacent runs
//! with the same pattern, pattern entries sorted and deduplicated, channel
//! tags elided when every entry sits on channel 0 — by every constructor and
//! mutator, so the derived `PartialEq` compares logical slot sequences
//! exactly as the old expanded form did.

use std::collections::BTreeMap;

use serde::Serialize;

use scream_netsim::ChannelId;
use scream_topology::{Link, NodeId};

/// One slot's channel-annotated link set: which links transmit concurrently,
/// and on which orthogonal channel each of them does.
///
/// Canonical form: entries sorted by `(channel, link)` and deduplicated, with
/// the channel-tag vector left **empty** whenever every entry is on channel 0
/// — so single-channel patterns are representationally identical to the plain
/// sorted link lists of the single-channel scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct SlotPattern {
    /// The scheduled links, sorted channel-major then by link.
    links: Vec<Link>,
    /// Channel tag per link (parallel to `links`); empty when every link is
    /// on channel 0.
    channels: Vec<ChannelId>,
}

impl SlotPattern {
    /// The empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a single-channel (channel 0) pattern, normalizing link order
    /// and dropping duplicates.
    pub fn from_links(mut links: Vec<Link>) -> Self {
        links.sort_unstable();
        links.dedup();
        Self {
            links,
            channels: Vec::new(),
        }
    }

    /// Builds a pattern from explicit `(channel, link)` entries, normalizing
    /// to the canonical form (sorted channel-major, deduplicated, channel
    /// tags elided when all-zero).
    pub fn from_entries(entries: impl IntoIterator<Item = (ChannelId, Link)>) -> Self {
        let mut entries: Vec<(ChannelId, Link)> = entries.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        if entries.iter().all(|(c, _)| *c == ChannelId::ZERO) {
            // The in-place collect keeps the 12-byte-stride `entries`
            // allocation (and whatever growth slack the caller's iterator
            // left in it) behind the 8-byte links; a pattern lives as long
            // as its frame, so hand the slack back.
            let mut links: Vec<Link> = entries.into_iter().map(|(_, l)| l).collect();
            links.shrink_to_fit();
            Self {
                links,
                channels: Vec::new(),
            }
        } else {
            let links = entries.iter().map(|&(_, l)| l).collect();
            let channels = entries.into_iter().map(|(c, _)| c).collect();
            Self { links, channels }
        }
    }

    /// The scheduled links, across all channels, sorted channel-major.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The channel of the `i`-th link.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn channel_of(&self, i: usize) -> ChannelId {
        assert!(i < self.links.len(), "entry {i} out of range");
        self.channels.get(i).copied().unwrap_or(ChannelId::ZERO)
    }

    /// The `(channel, link)` entries in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (ChannelId, Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &l)| (self.channel_of(i), l))
    }

    /// Number of `(channel, link)` entries — the slot's total concurrent
    /// transmissions across all channels.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether every entry sits on channel 0 (true for the empty pattern).
    pub fn is_single_channel(&self) -> bool {
        self.channels.is_empty()
    }

    /// The non-empty per-channel link groups, in increasing channel order.
    pub fn channel_groups(&self) -> impl Iterator<Item = (ChannelId, &[Link])> + '_ {
        ChannelGroups {
            pattern: self,
            start: 0,
        }
    }

    /// A node that appears in links of two *different* channels of this slot,
    /// if any — the cross-channel half-duplex violation the verifier rejects
    /// (a node has one radio, so it cannot operate on two channels in the
    /// same slot).
    pub fn node_on_multiple_channels(&self) -> Option<NodeId> {
        if self.channels.is_empty() {
            return None;
        }
        let mut seen: Vec<(NodeId, ChannelId)> = Vec::with_capacity(2 * self.links.len());
        for (channel, link) in self.entries() {
            for node in [link.head, link.tail] {
                if seen.iter().any(|&(n, c)| n == node && c != channel) {
                    return Some(node);
                }
                seen.push((node, channel));
            }
        }
        None
    }
}

/// Iterator behind [`SlotPattern::channel_groups`].
struct ChannelGroups<'a> {
    pattern: &'a SlotPattern,
    start: usize,
}

impl<'a> Iterator for ChannelGroups<'a> {
    type Item = (ChannelId, &'a [Link]);

    fn next(&mut self) -> Option<Self::Item> {
        let links = &self.pattern.links;
        if self.start >= links.len() {
            return None;
        }
        let channel = self.pattern.channel_of(self.start);
        let end = if self.pattern.channels.is_empty() {
            links.len()
        } else {
            self.pattern.channels.partition_point(|&c| c <= channel)
        };
        let group = &links[self.start..end];
        self.start = end;
        Some((channel, group))
    }
}

impl std::fmt::Display for SlotPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (channel, link) in self.entries() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            if self.is_single_channel() {
                write!(f, "{link}")?;
            } else {
                write!(f, "{link}@{channel}")?;
            }
        }
        Ok(())
    }
}

/// An STDMA schedule: logically, `slots[t]` is the set of `(channel, link)`
/// transmissions in slot `t`; physically, maximal runs of identical
/// consecutive slots are stored once with a multiplicity.
///
/// Deliberately *not* serde-deserializable (same stance as `ProtocolModel`):
/// equality, allocation counts and the run-aware verifier all rely on the
/// canonical-run invariant, and a derived `Deserialize` would construct
/// values that bypass it. Serialize the runs and rebuild with
/// [`Schedule::from_pattern_runs`], which re-establishes the invariant.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Schedule {
    /// Canonical maximal runs: `(pattern, multiplicity)`, multiplicity ≥ 1,
    /// no two adjacent runs share a pattern.
    runs: Vec<(SlotPattern, u64)>,
    /// Cached total slot count (the sum of multiplicities), kept in sync by
    /// every mutator so `length` is O(1).
    total: u64,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a single-channel schedule from explicit slots, normalizing the
    /// link order inside every slot (slot contents are sets; order carries no
    /// meaning).
    pub fn from_slots(slots: Vec<Vec<Link>>) -> Self {
        Self::from_runs(slots.into_iter().map(|links| (links, 1)))
    }

    /// Creates a single-channel schedule from `(links, multiplicity)` runs,
    /// normalizing patterns, dropping zero-multiplicity runs and merging
    /// adjacent runs with equal patterns.
    pub fn from_runs(runs: impl IntoIterator<Item = (Vec<Link>, u64)>) -> Self {
        Self::from_pattern_runs(
            runs.into_iter()
                .map(|(links, count)| (SlotPattern::from_links(links), count)),
        )
    }

    /// Creates a schedule from channel-annotated `(pattern, multiplicity)`
    /// runs, re-establishing every canonical-form invariant.
    pub fn from_pattern_runs(runs: impl IntoIterator<Item = (SlotPattern, u64)>) -> Self {
        let mut s = Self::new();
        for (pattern, count) in runs {
            s.push_pattern_run(pattern, count);
        }
        s.runs.shrink_to_fit();
        s
    }

    /// Number of slots (the schedule length `T` the paper minimizes).
    pub fn length(&self) -> usize {
        self.total as usize
    }

    /// Number of distinct consecutive slot patterns — the size of the compact
    /// representation, which bounds the cost of run-aware consumers like the
    /// verifier.
    pub fn pattern_count(&self) -> usize {
        self.runs.len()
    }

    /// Returns `true` if the schedule has no slots.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The maximal runs `(pattern, multiplicity)` in slot order. Iterating
    /// runs instead of [`slots`](Self::slots) is what makes heavy-demand
    /// schedules cheap to verify and measure.
    pub fn runs(&self) -> impl Iterator<Item = (&SlotPattern, u64)> + '_ {
        self.runs.iter().map(|(pattern, count)| (pattern, *count))
    }

    /// The pattern of slot `t`, or `None` if `t` is at or beyond the
    /// schedule length. Costs O(#patterns).
    pub fn slot(&self, t: usize) -> Option<&SlotPattern> {
        let mut end = 0usize;
        self.runs.iter().find_map(|(pattern, count)| {
            end += *count as usize;
            (t < end).then_some(pattern)
        })
    }

    /// Iterator over the slot patterns in order. Expands runs — prefer
    /// [`runs`](Self::runs) for heavy-demand schedules.
    pub fn slots(&self) -> impl Iterator<Item = &SlotPattern> + '_ {
        self.runs
            .iter()
            .flat_map(|(pattern, count)| std::iter::repeat_n(pattern, *count as usize))
    }

    /// Expands the schedule into one `Vec<Link>` per slot — the seed's
    /// single-channel representation, kept for round-trip tests and per-slot
    /// consumers. Channel tags are dropped; for single-channel schedules the
    /// round trip through [`from_slots`](Self::from_slots) is exact.
    #[expect(
        clippy::disallowed_methods,
        reason = "expand() is the explicit expansion entry point; callers opt in"
    )]
    pub fn expand(&self) -> Vec<Vec<Link>> {
        self.slots().map(|p| p.links().to_vec()).collect()
    }

    /// Appends `count` consecutive slots with the same channel-0 `links`
    /// pattern in O(pattern) — the run-length fast path the greedy scheduler
    /// and the serialized baseline use for leftover demand. A zero `count` is
    /// a no-op.
    pub fn push_slot_run(&mut self, links: Vec<Link>, count: u64) {
        self.push_pattern_run(SlotPattern::from_links(links), count);
    }

    /// Appends `count` consecutive slots with the same channel-annotated
    /// pattern, merging into the previous run when the patterns are equal. A
    /// zero `count` is a no-op.
    pub fn push_pattern_run(&mut self, pattern: SlotPattern, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        match self.runs.last_mut() {
            Some((last, multiplicity)) if *last == pattern => *multiplicity += count,
            _ => self.runs.push((pattern, count)),
        }
    }

    /// Number of slots allocated to each link (on whatever channel) across
    /// the whole schedule.
    pub fn allocation_counts(&self) -> BTreeMap<Link, u64> {
        let mut counts = BTreeMap::new();
        for (pattern, count) in &self.runs {
            for (i, &link) in pattern.links().iter().enumerate() {
                // A (degenerate) pattern may repeat a link on two channels;
                // count the slot once per link, as the demand ledger does.
                if pattern.links()[..i].contains(&link) {
                    continue;
                }
                *counts.entry(link).or_insert(0) += count;
            }
        }
        counts
    }

    /// Total number of (channel, link, slot) transmission opportunities in
    /// the schedule.
    pub fn total_transmissions(&self) -> u64 {
        self.runs
            .iter()
            .map(|(pattern, count)| pattern.len() as u64 * count)
            .sum()
    }

    /// Average number of concurrent transmissions per slot, across all
    /// channels — the spatial-reuse factor the physical model (multiplied by
    /// orthogonal channels) is supposed to unlock relative to serialized
    /// (one-link-per-slot) scheduling.
    pub fn spatial_reuse(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.total_transmissions() as f64 / self.length() as f64
    }

    /// Number of distinct channels used anywhere in the schedule (0 when the
    /// schedule has no transmissions at all).
    pub fn channels_used(&self) -> usize {
        let mut channels: Vec<ChannelId> = self
            .runs
            .iter()
            .flat_map(|(pattern, _)| pattern.channel_groups().map(|(c, _)| c))
            .collect();
        channels.sort_unstable();
        channels.dedup();
        channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    fn ch(c: u16) -> ChannelId {
        ChannelId::new(c)
    }

    #[test]
    fn empty_schedule_has_zero_length() {
        let s = Schedule::new();
        assert_eq!(s.length(), 0);
        assert!(s.is_empty());
        assert_eq!(s.spatial_reuse(), 0.0);
        assert_eq!(s.pattern_count(), 0);
        assert_eq!(s.channels_used(), 0);
        assert_eq!(s.slot(0), None);
    }

    #[test]
    fn from_slots_normalizes_order_and_duplicates() {
        let a = Schedule::from_slots(vec![vec![link(3, 2), link(1, 0), link(1, 0)]]);
        let b = Schedule::from_slots(vec![vec![link(1, 0), link(3, 2)]]);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_consecutive_slots_share_one_run() {
        let mut s = Schedule::new();
        for _ in 0..1000 {
            s.push_slot_run(vec![link(1, 0)], 1);
        }
        s.push_slot_run(vec![link(3, 2)], 1_000_000);
        assert_eq!(s.length(), 1_001_000);
        assert_eq!(s.pattern_count(), 2);
        assert_eq!(s.allocation_counts()[&link(3, 2)], 1_000_000);
        assert_eq!(s.total_transmissions(), 1_001_000);
        assert_eq!(s.slot(999).unwrap().links(), &[link(1, 0)]);
        assert_eq!(s.slot(1000).unwrap().links(), &[link(3, 2)]);
        // One past the end is `None`, not a panic.
        assert!(s.slot(s.length() - 1).is_some());
        assert_eq!(s.slot(s.length()), None);
    }

    #[test]
    fn run_construction_equals_slot_construction() {
        let by_runs = Schedule::from_runs(vec![
            (vec![link(1, 0)], 3),
            (vec![link(3, 2), link(1, 0)], 1),
            (vec![link(1, 0)], 0), // dropped
            (vec![link(1, 0)], 2),
        ]);
        let by_slots = Schedule::from_slots(vec![
            vec![link(1, 0)],
            vec![link(1, 0)],
            vec![link(1, 0)],
            vec![link(1, 0), link(3, 2)],
            vec![link(1, 0)],
            vec![link(1, 0)],
        ]);
        assert_eq!(by_runs, by_slots);
        assert_eq!(by_runs.pattern_count(), 3);
    }

    #[test]
    fn adjacent_equal_runs_are_merged_to_a_canonical_form() {
        let a = Schedule::from_runs(vec![(vec![link(1, 0)], 2), (vec![link(1, 0)], 3)]);
        let b = Schedule::from_runs(vec![(vec![link(1, 0)], 5)]);
        assert_eq!(a, b);
        assert_eq!(a.pattern_count(), 1);
    }

    #[test]
    fn allocation_counts_track_per_link_slots() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
        s.push_slot_run(vec![link(1, 0)], 1);
        s.push_slot_run(vec![link(5, 4)], 1);
        let counts = s.allocation_counts();
        assert_eq!(counts[&link(1, 0)], 2);
        assert_eq!(counts[&link(3, 2)], 1);
        assert!(!counts.contains_key(&link(9, 8)));
        assert_eq!(counts.len(), 3);
        assert_eq!(s.total_transmissions(), 4);
    }

    #[test]
    fn spatial_reuse_is_average_concurrency() {
        let mut s = Schedule::new();
        s.push_slot_run(vec![link(1, 0), link(3, 2)], 1);
        s.push_slot_run(vec![link(5, 4)], 1);
        assert!((s.spatial_reuse() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_channel_patterns_carry_no_channel_tags() {
        // The C = 1 representation is the plain sorted link list: channel-0
        // entries never materialize a tag vector, whichever constructor
        // produced them.
        let by_links = SlotPattern::from_links(vec![link(3, 2), link(1, 0)]);
        let by_entries = SlotPattern::from_entries(vec![
            (ChannelId::ZERO, link(1, 0)),
            (ChannelId::ZERO, link(3, 2)),
        ]);
        assert_eq!(by_links, by_entries);
        assert!(by_links.is_single_channel());
        assert!(by_entries.is_single_channel());
        assert_eq!(by_links.links(), &[link(1, 0), link(3, 2)]);
        assert_eq!(by_links.channel_of(0), ChannelId::ZERO);
        assert_eq!(by_links.channel_groups().count(), 1);
        let groups: Vec<(ChannelId, &[Link])> = by_links.channel_groups().collect();
        assert_eq!(groups, [(ChannelId::ZERO, by_links.links())]);
        assert!(by_links.node_on_multiple_channels().is_none());
    }

    #[test]
    fn channel_annotated_patterns_group_channel_major() {
        let p = SlotPattern::from_entries(vec![
            (ch(1), link(5, 4)),
            (ch(0), link(1, 0)),
            (ch(1), link(7, 6)),
            (ch(0), link(3, 2)),
            (ch(1), link(5, 4)), // duplicate entry is dropped
        ]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_single_channel());
        assert_eq!(p.channel_groups().count(), 2);
        let groups: Vec<(ChannelId, &[Link])> = p.channel_groups().collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (ch(0), &[link(1, 0), link(3, 2)][..]));
        assert_eq!(groups[1], (ch(1), &[link(5, 4), link(7, 6)][..]));
        assert!(p.entries().any(|e| e == (ch(1), link(7, 6))));
        assert!(!p.entries().any(|e| e == (ch(0), link(7, 6))));
        assert!(p.links().contains(&link(7, 6)));
        assert_eq!(
            p.to_string(),
            "n1->n0@ch0, n3->n2@ch0, n5->n4@ch1, n7->n6@ch1"
        );
    }

    #[test]
    fn node_on_multiple_channels_is_detected() {
        let clean = SlotPattern::from_entries(vec![(ch(0), link(1, 0)), (ch(1), link(3, 2))]);
        assert!(clean.node_on_multiple_channels().is_none());
        let conflicted = SlotPattern::from_entries(vec![(ch(0), link(1, 0)), (ch(1), link(2, 1))]);
        assert_eq!(conflicted.node_on_multiple_channels(), Some(NodeId::new(1)));
        // The same node twice on the *same* channel is not a cross-channel
        // conflict (it is an intra-channel half-duplex violation, caught by
        // the per-channel feasibility check instead).
        let same_channel =
            SlotPattern::from_entries(vec![(ch(1), link(1, 0)), (ch(1), link(2, 1))]);
        assert!(same_channel.node_on_multiple_channels().is_none());
    }

    #[test]
    fn multi_channel_runs_roundtrip_and_compare() {
        let p0 = SlotPattern::from_entries(vec![(ch(0), link(1, 0)), (ch(1), link(3, 2))]);
        let mut s = Schedule::new();
        s.push_pattern_run(p0.clone(), 1_000);
        s.push_pattern_run(p0.clone(), 500); // merges with the previous run
        s.push_pattern_run(SlotPattern::from_links(vec![link(1, 0)]), 2);
        assert_eq!(s.length(), 1_502);
        assert_eq!(s.pattern_count(), 2);
        assert_eq!(s.channels_used(), 2);
        assert_eq!(s.allocation_counts()[&link(3, 2)], 1_000 + 500);
        assert_eq!(s.total_transmissions(), 2 * 1_500 + 2);
        assert_eq!(s.slot(0), Some(&p0));
        assert!(!s
            .slot(1_501)
            .unwrap()
            .entries()
            .any(|e| e == (ch(1), link(3, 2))));
        let rebuilt = Schedule::from_pattern_runs(s.runs().map(|(p, c)| (p.clone(), c)));
        assert_eq!(rebuilt, s);
    }
}
