//! The batched first-fit placement loop, shared by
//! [`GreedyPhysical::schedule`](crate::GreedyPhysical::schedule) and pass 3
//! of [`repair_schedule`](crate::repair_schedule).
//!
//! First-fit is executed at the granularity of **runs** of identical slot
//! patterns: slots are mutually independent, so two consecutive slots with
//! the same pattern accept or reject a candidate identically and a whole run
//! is claimed (or skipped) with one feasibility probe per channel. A link
//! that fits only part of a run splits it, the augmented part first so slot
//! order matches per-unit first-fit exactly; demand no run accepts is
//! appended as one solo run. A run whose accumulator
//! [surely refuses](SlotAccumulator::surely_refuses) the link is passed by
//! unprobed — every probe of it would have been rejected — so the screen
//! moves what a placement costs and never where the link lands.

use scream_topology::Link;

use crate::feasibility::{ChannelId, SlotAccumulator, SlotFeasibility};
use crate::schedule::{Schedule, SlotPattern};

/// A run under construction: the accumulator of its pattern and the number
/// of consecutive slots sharing it.
struct OpenRun<'m> {
    accumulator: Box<dyn SlotAccumulator + 'm>,
    count: u64,
}

/// What placing one link cost and did; callers turn it into their own
/// counters.
pub(crate) struct Placement {
    /// `(run, channel)` pairs probed.
    pub(crate) probed: u64,
    /// Probes that were rejected.
    pub(crate) rejected: u64,
    /// `(run, channel)` pairs passed by unprobed because the run
    /// [surely refuses](SlotAccumulator::surely_refuses) the link; each would
    /// have been a rejected probe (unless the run already holds the link,
    /// which is then not looked up).
    pub(crate) skipped: u64,
    /// Index of the first run that accepted the link, or the number of open
    /// runs (before any solo run) when none did.
    pub(crate) first_fit_depth: u64,
    /// Whether a run was split to take part of the demand.
    pub(crate) split: bool,
    /// Whether leftover demand was appended as a solo run.
    pub(crate) solo: bool,
}

/// The open runs of a schedule being built or patched under `model`.
pub(crate) struct OpenRuns<'m, M: SlotFeasibility + ?Sized> {
    model: &'m M,
    runs: Vec<OpenRun<'m>>,
}

impl<'m, M: SlotFeasibility + ?Sized> OpenRuns<'m, M> {
    pub(crate) fn new(model: &'m M) -> Self {
        Self {
            model,
            runs: Vec::new(),
        }
    }

    /// Appends a run of `count` slots holding `entries` (assignment only —
    /// nothing is probed).
    pub(crate) fn push_run(&mut self, entries: &[(ChannelId, Link)], count: u64) {
        self.runs.push(open_run(self.model, entries, count));
    }

    /// First-fits `demand` slots of `link` into the cheapest `(run, channel)`
    /// pairs — runs in order, channels in increasing order within each run.
    pub(crate) fn place(&mut self, link: Link, demand: u64) -> Placement {
        let mut remaining = demand;
        let mut idx = 0usize;
        let (mut probed, mut rejected, mut skipped, mut split) = (0u64, 0u64, 0u64, false);
        let mut first_fit: Option<u64> = None;
        'slots: while remaining > 0 && idx < self.runs.len() {
            let run = &mut self.runs[idx];
            if run.accumulator.surely_refuses(link) {
                skipped += run.accumulator.channel_count() as u64;
            } else if !run.accumulator.contains_link(link) {
                for channel in channels(run.accumulator.as_ref()) {
                    probed += 1;
                    if !run.accumulator.can_add(channel, link) {
                        rejected += 1;
                        continue;
                    }
                    first_fit.get_or_insert(idx as u64);
                    if remaining >= run.count {
                        // The link joins every slot of the run.
                        run.accumulator.assign(channel, link);
                        remaining -= run.count;
                        break;
                    }
                    // The link joins only the first `remaining` slots: split
                    // the run. Rebuilding the augmented accumulator is O(k²),
                    // but a split ends the link's scan, so it happens at most
                    // once per link.
                    let mut entries = run_entries(run.accumulator.as_ref());
                    entries.push((channel, link));
                    run.count -= remaining;
                    let augmented = open_run(self.model, &entries, remaining);
                    self.runs.insert(idx, augmented);
                    remaining = 0;
                    split = true;
                    break 'slots;
                }
            }
            idx += 1;
        }
        let first_fit_depth = first_fit.unwrap_or(self.runs.len() as u64);
        let solo = remaining > 0;
        if solo {
            // No existing (slot, channel) pair accepts the leftover demand:
            // append it as one solo run on the first channel. If even the
            // solo slot is infeasible (link out of range under `model`) it is
            // still allocated so the demand accounting stays consistent — the
            // verifier flags the infeasibility explicitly.
            self.push_run(&[(ChannelId::ZERO, link)], remaining);
        }
        Placement {
            probed,
            rejected,
            skipped,
            first_fit_depth,
            split,
            solo,
        }
    }

    /// Number of open runs.
    pub(crate) fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether every run's every occupied channel is a feasible slot as it
    /// stands — read off the accumulators, untouched runs included.
    pub(crate) fn all_feasible(&self) -> bool {
        self.runs.iter().all(|run| {
            let slot = run.accumulator.as_ref();
            channels(slot).all(|c| slot.links(c).is_empty() || slot.channel_feasible(c))
        })
    }

    /// The schedule the runs spell out.
    pub(crate) fn into_schedule(self) -> Schedule {
        Schedule::from_pattern_runs(self.runs.into_iter().map(|run| {
            let entries = run_entries(run.accumulator.as_ref());
            (SlotPattern::from_entries(entries), run.count)
        }))
    }
}

/// A fresh run of `count` slots with `entries` assigned in order, one
/// same-channel stretch at a time (a split's link comes after the higher
/// channels' entries, so a channel may have two).
fn open_run<'m, M: SlotFeasibility + ?Sized>(
    model: &'m M,
    entries: &[(ChannelId, Link)],
    count: u64,
) -> OpenRun<'m> {
    let mut accumulator = model.open_slot();
    for stretch in entries.chunk_by(|a, b| a.0 == b.0) {
        let links: Vec<Link> = stretch.iter().map(|&(_, link)| link).collect();
        accumulator.assign_all(stretch[0].0, &links);
    }
    OpenRun { accumulator, count }
}

/// The channels of a slot, in increasing order.
fn channels(accumulator: &dyn SlotAccumulator) -> impl Iterator<Item = ChannelId> {
    (0..accumulator.channel_count()).map(|c| ChannelId::new(c as u16))
}

/// A run's `(channel, link)` entries, channel by channel, links in
/// assignment order within each.
fn run_entries(accumulator: &dyn SlotAccumulator) -> Vec<(ChannelId, Link)> {
    channels(accumulator)
        .flat_map(|c| accumulator.links(c).iter().map(move |&l| (c, l)))
        .collect()
}
