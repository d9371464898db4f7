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
//! moves what a placement costs and never where the link lands. A run whose
//! screen refused a link *and* read [closed](SlotAccumulator::closed) is
//! latched: it refuses every link from then on (first-fit never assigns to a
//! run that refuses, and by the argument in `scream_netsim`'s `refusal`
//! module not even an assignment would let a link in again), so every later
//! link passes it by without a screen. Closure is asked once per run state,
//! on the first refusal after the run last changed.

use scream_topology::Link;

use crate::feasibility::{ChannelId, SlotAccumulator, SlotFeasibility};
use crate::schedule::{Schedule, SlotPattern};

/// A run under construction: the accumulator of its pattern and the number
/// of consecutive slots sharing it.
struct OpenRun<'m> {
    accumulator: Box<dyn SlotAccumulator + 'm>,
    count: u64,
    /// The accumulator's channel count, read once so that passing a latched
    /// run touches nothing behind the box.
    channels: u32,
    /// What [`closed`](SlotAccumulator::closed) said since the run last
    /// changed.
    closure: Closure,
}

/// Whether a run is closed, as far as first-fit has asked: once per run
/// state, on the first refusal, so a run refused by its disc alone is not
/// asked again until a link joins it.
#[derive(Clone, Copy, PartialEq)]
enum Closure {
    /// Not asked since the run last changed.
    Unread,
    /// Asked since the run last changed, and open.
    Open,
    /// Asked and closed: the latch. Never cleared, because the run refuses
    /// everyone from then on and so never changes again.
    Latched,
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
    /// The part of `skipped` passed by without asking the screen: pairs of
    /// runs latched closed.
    pub(crate) dropped: u64,
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
        let (mut probed, mut rejected, mut skipped, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let mut split = false;
        let mut first_fit: Option<u64> = None;
        'slots: while remaining > 0 && idx < self.runs.len() {
            let run = &mut self.runs[idx];
            if run.closure == Closure::Latched {
                skipped += u64::from(run.channels);
                dropped += u64::from(run.channels);
            } else if run.accumulator.surely_refuses(link) {
                skipped += u64::from(run.channels);
                if run.closure == Closure::Unread {
                    run.closure = if run.accumulator.closed() {
                        Closure::Latched
                    } else {
                        Closure::Open
                    };
                }
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
                        run.closure = Closure::Unread;
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
            dropped,
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
    OpenRun {
        channels: accumulator.channel_count() as u32,
        accumulator,
        count,
        closure: Closure::Unread,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::EdgeOrdering;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use scream_netsim::{PropagationModel, RadioConfig, RadioEnvironment};
    use scream_topology::{
        density_to_area_m2, DemandConfig, DemandVector, Deployment, GridDeployment, LinkDemands,
        NodeId, Point2, Rect, RoutingForest, UniformDeployment,
    };

    /// A seeded shadowed paper mesh of 9–36 nodes (planned or unplanned,
    /// heterogeneous powers) on `channels` channels, with routed demands.
    fn shadowed_mesh(rng: &mut ChaCha8Rng, channels: usize) -> (RadioEnvironment, LinkDemands) {
        let side = rng.gen_range(3..=6usize);
        let nodes = side * side;
        let area_m2 = density_to_area_m2(nodes, rng.gen_range(1_000.0..4_000.0));
        let deployment: Deployment = if rng.gen_bool(0.5) {
            let step = (area_m2 / nodes as f64).sqrt();
            GridDeployment::new(side, side, step)
                .tx_power_dbm(10.0)
                .build()
        } else {
            UniformDeployment::new(nodes, area_m2.sqrt())
                .tx_power_dbm(10.0)
                .heterogeneous_power(6.0)
                .build(rng)
        };
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(4.0, rng.next_u64())
            .config(
                RadioConfig::mesh_default()
                    .with_sinr_threshold_db(6.0)
                    .with_channel_count(channels),
            )
            .build(&deployment);
        let gateways = deployment.corner_nodes();
        let demands = DemandVector::generate(nodes, DemandConfig::PAPER, &gateways, &mut *rng);
        let (forest, _) = RoutingForest::shortest_path_partial(
            &env.communication_graph(),
            &gateways,
            rng.next_u64(),
        )
        .unwrap();
        let target = LinkDemands::aggregate(&forest, &demands).unwrap();
        (env, target)
    }

    /// A streamed-gain patch of a jittered 250 m lattice, 32 dBm, where
    /// node `2i + 1` sends to node `2i` with a demand of one to three slots.
    fn streamed_patch(rng: &mut ChaCha8Rng, channels: usize) -> (RadioEnvironment, LinkDemands) {
        let (columns, rows, step_m) = (16usize, 6usize, 250.0);
        let positions: Vec<Point2> = (0..columns * rows)
            .map(|i| {
                let (dx, dy) = (rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
                Point2::new(
                    ((i % columns) as f64 + 0.5 + dx) * step_m,
                    ((i / columns) as f64 + 0.5 + dy) * step_m,
                )
            })
            .collect();
        let region = Rect::new(
            Point2::new(0.0, 0.0),
            Point2::new(columns as f64 * step_m, rows as f64 * step_m),
        );
        let deployment = Deployment::from_positions(&positions, 32.0, region).unwrap();
        let env = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .streamed_gains()
            .config(RadioConfig::mesh_default().with_channel_count(channels))
            .build(&deployment);
        let links: Vec<(Link, u64)> = (0..columns * rows / 2)
            .map(|pair| {
                let tail = NodeId::new(2 * pair as u32);
                let head = NodeId::new(2 * pair as u32 + 1);
                (Link::new(head, tail), rng.gen_range(1..=3u64))
            })
            .collect();
        let demands = LinkDemands::from_links(deployment.len(), &links).unwrap();
        (env, demands)
    }

    /// Whether `slot` refuses every link of `in_range` on every channel.
    fn refuses_all(slot: &dyn SlotAccumulator, in_range: &[Link]) -> bool {
        channels(slot).all(|c| in_range.iter().all(|&l| !slot.can_add(c, l)))
    }

    /// Which cases a draw reached.
    #[derive(Default)]
    struct Reached {
        latched: u32,
        reopened: u32,
        streamed: u32,
        two_channels: u32,
    }

    /// A run first-fit latched closed refuses every link of the
    /// communication graph, both directions, on every channel — when it is
    /// latched and after any link is forced into it, although the screen
    /// re-derived after that assignment may read open again (the refusal
    /// module's latch argument). Seeded shadowed paper meshes and streamed
    /// lattice patches, one or two channels, placed in the paper's order.
    #[test]
    fn a_latched_run_refuses_every_link_even_after_its_screen_reopens() {
        const NAME: &str = "a_latched_run_refuses_every_link_even_after_its_screen_reopens";
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in NAME.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
        let mut reached = Reached::default();
        for case in 0..100u64 {
            let failed = format!("property '{NAME}' failed at case {case}");
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(case));
            let channels = rng.gen_range(1..=2usize);
            reached.two_channels += u32::from(channels == 2);
            let streamed = rng.gen_bool(0.4);
            reached.streamed += u32::from(streamed);
            let (env, demands) = if streamed {
                streamed_patch(&mut rng, channels)
            } else {
                shadowed_mesh(&mut rng, channels)
            };
            let in_range: Vec<Link> = env
                .communication_graph()
                .edges()
                .flat_map(|(u, v)| [Link::new(u, v), Link::new(v, u)])
                .collect();
            let mut edges: Vec<(Link, u64)> = demands.demanded_links().collect();
            EdgeOrdering::DecreasingHeadId.sort(&mut edges);
            let mut runs = OpenRuns::new(&env);
            for (link, demand) in edges {
                runs.place(link, demand);
            }
            let mut reopened = false;
            for run in runs
                .runs
                .iter()
                .filter(|run| run.closure == Closure::Latched)
            {
                reached.latched += 1;
                let slot = run.accumulator.as_ref();
                assert!(slot.closed(), "{failed}: a latched run reads open");
                assert!(
                    refuses_all(slot, &in_range),
                    "{failed}: a latched run accepts"
                );
                // Force each link in, on each channel, until the re-derived
                // screen reads open; the run must still refuse everyone.
                let entries = run_entries(slot);
                let forced = in_range
                    .iter()
                    .flat_map(|&l| (0..channels).map(move |c| (ChannelId::new(c as u16), l)));
                for (channel, extra) in forced {
                    let mut grown = open_run(&env, &entries, 1);
                    grown.accumulator.assign(channel, extra);
                    if !grown.accumulator.closed() {
                        reopened = true;
                        assert!(
                            refuses_all(grown.accumulator.as_ref(), &in_range),
                            "{failed}: forcing {extra} in reopened a latched run"
                        );
                        break;
                    }
                }
            }
            reached.reopened += u32::from(reopened);
        }
        for (what, count) in [
            ("a latched run", reached.latched),
            ("a screen that reads open after the latch", reached.reopened),
            ("a streamed patch", reached.streamed),
            ("two channels", reached.two_channels),
        ] {
            assert!(count >= 20, "only {count} draws reached {what}");
        }
    }
}
