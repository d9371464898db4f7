//! Verification and repair fill each pattern once and read the verdict off
//! the filled slot. These tests hold that against what it replaced — the
//! probe-as-you-go loop, kept here as the reference — and against the one
//! input that would make skipping an unedited run unsound: a frame built
//! before the gains changed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scream::prelude::*;
use scream::scheduling::{verify_slots_feasible, SlotPattern};
use scream_bench::PaperScenario;

/// `verify_slots_feasible` as it stood before it filled and read: every
/// entry admitted through `can_add` before it is assigned, the first refusal
/// reported. Shape checks, error variants and fields as in the product path.
fn probe_as_you_go<M: SlotFeasibility>(
    model: &M,
    schedule: &Schedule,
) -> Result<(), ScheduleViolation> {
    let mut accumulator = model.open_slot();
    let channel_count = accumulator.channel_count();
    let mut t = 0usize;
    for (pattern, count) in schedule.runs() {
        if let Some(channel) = pattern
            .channel_groups()
            .map(|(c, _)| c)
            .find(|c| c.index() >= channel_count)
        {
            return Err(ScheduleViolation::ChannelOutOfRange {
                slot: t,
                channel,
                channel_count,
            });
        }
        if let Some(node) = pattern.node_on_multiple_channels() {
            return Err(ScheduleViolation::CrossChannelConflict { slot: t, node });
        }
        accumulator.clear();
        for (channel, links) in pattern.channel_groups() {
            for &link in links {
                if !accumulator.can_add(channel, link) {
                    return Err(ScheduleViolation::InfeasibleSlot {
                        slot: t,
                        channel,
                        links: links.to_vec(),
                        margins: model.slot_margins(links),
                    });
                }
                accumulator.assign(channel, link);
            }
        }
        t += count as usize;
    }
    Ok(())
}

/// A jittered 120 × 3 lattice with streamed gains: 0 dBm over 21.5 m hops
/// keeps the 2.15 km far-field cutoff inside the 2.6 km extent, so the
/// environment's own accumulator prunes.
fn streamed_lattice(rng: &mut ChaCha8Rng, channel_count: usize) -> RadioEnvironment {
    let (columns, rows, step_m) = (120usize, 3usize, 21.5);
    let positions: Vec<Point2> = (0..columns * rows)
        .map(|i| {
            let (dx, dy): (f64, f64) = (rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
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
    let deployment = Deployment::from_positions(&positions, 0.0, region).expect("contiguous ids");
    RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .config(RadioConfig::mesh_default().with_channel_count(channel_count))
        .streamed_gains()
        .build(&deployment)
}

/// A shadowed uniform mesh with a dense gain matrix, narrower than its
/// far-field cutoff (exact probes).
fn shadowed_mesh(rng: &mut ChaCha8Rng, seed: u64, channel_count: usize) -> RadioEnvironment {
    let nodes = rng.gen_range(12usize..=40);
    let deployment = UniformDeployment::new(nodes, 150.0 * (nodes as f64).sqrt()).build(rng);
    RadioEnvironment::builder()
        .propagation(PropagationModel::log_distance(3.0))
        .shadowing(rng.gen_range(0.0..8.0), seed)
        .config(
            RadioConfig::mesh_default()
                .with_sinr_threshold_db(rng.gen_range(4.0..12.0))
                .with_channel_count(channel_count),
        )
        .build(&deployment)
}

/// A random link, one-id hops preferred so most draws are decodable.
fn draw_link(node_count: usize, rng: &mut ChaCha8Rng) -> Link {
    let n = node_count as u32;
    let head = rng.gen_range(0..n);
    let hop = if rng.gen_bool(0.7) {
        1
    } else {
        rng.gen_range(1..n)
    };
    Link::new(NodeId::new(head), NodeId::new((head + hop) % n))
}

/// One pattern admitted link by link under `model`, then spoiled by `shape`:
/// 0 nothing, 1 a link the slot refuses with free endpoints (SINR), 2 a
/// reversed copy of a member (shared endpoints), 3 a self-link, 4 a member's
/// radios on the next channel, 5 a channel the model does not have. The
/// pattern's canonical sort decides where the intruder sits in its group —
/// first, last or in the middle, as drawn.
fn draw_pattern<M: SlotFeasibility>(
    model: &M,
    node_count: usize,
    rng: &mut ChaCha8Rng,
    shape: usize,
) -> SlotPattern {
    let mut scratch = model.open_slot();
    let channel_count = scratch.channel_count() as u16;
    let mut entries: Vec<(ChannelId, Link)> = Vec::new();
    for _ in 0..60 {
        let (channel, link) = (
            ChannelId::new(rng.gen_range(0..channel_count)),
            draw_link(node_count, rng),
        );
        if scratch.can_add(channel, link) {
            scratch.assign(channel, link);
            entries.push((channel, link));
        }
    }
    let Some(&(channel, member)) = entries.first() else {
        return SlotPattern::new();
    };
    let reversed = Link::new(member.tail, member.head);
    let free = |l: Link| entries.iter().all(|(_, e)| !e.shares_endpoint(&l));
    let intruder = match shape {
        0 => None,
        1 => (0..400).find_map(|_| {
            let l = draw_link(node_count, rng);
            let c = ChannelId::new(rng.gen_range(0..channel_count));
            (l.head != l.tail && free(l) && !scratch.can_add(c, l)).then_some((c, l))
        }),
        2 => Some((channel, reversed)),
        3 => Some((channel, Link::new(member.head, member.head))),
        4 => Some((
            ChannelId::new((channel.index() as u16 + 1) % channel_count),
            reversed,
        )),
        _ => Some((ChannelId::new(channel_count), reversed)),
    };
    entries.extend(intruder);
    SlotPattern::from_entries(entries)
}

/// Draws `patterns` patterns (each spoiled with probability ~1/2) and holds
/// `verify_slots_feasible` to the reference on the frame and on every
/// single-run frame — so every pattern's verdict is compared, not only the
/// first failure's. Returns how many patterns each side of the verdict drew.
fn assert_fill_matches_probing<M: SlotFeasibility>(
    model: &M,
    node_count: usize,
    rng: &mut ChaCha8Rng,
    patterns: usize,
    what: &str,
) -> (usize, usize) {
    let runs: Vec<(SlotPattern, u64)> = (0..patterns)
        .map(|_| {
            let shape = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1..6usize)
            };
            let pattern = draw_pattern(model, node_count, rng, shape);
            (pattern, rng.gen_range(1..5u64))
        })
        .collect();
    let (mut ok, mut violated) = (0, 0);
    for (pattern, count) in &runs {
        let alone = Schedule::from_pattern_runs([(pattern.clone(), *count)]);
        let verdict = verify_slots_feasible(model, &alone);
        assert_eq!(verdict, probe_as_you_go(model, &alone), "{what}: {pattern}");
        if verdict.is_ok() {
            ok += 1;
        } else {
            violated += 1;
        }
    }
    let frame = Schedule::from_pattern_runs(runs);
    assert_eq!(
        verify_slots_feasible(model, &frame),
        probe_as_you_go(model, &frame),
        "{what}: the frame's first violation"
    );
    (ok, violated)
}

#[test]
fn filling_and_reading_returns_what_probing_entry_by_entry_returned() {
    let (mut ok, mut violated) = (0, 0);
    let mut tally = |(a, b): (usize, usize)| {
        ok += a;
        violated += b;
    };
    for seed in 0..16u64 {
        for channel_count in [1usize, 2] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf111);
            let env = if seed % 2 == 0 {
                streamed_lattice(&mut rng, channel_count)
            } else {
                shadowed_mesh(&mut rng, seed, channel_count)
            };
            let n = env.node_count();
            let what = format!("seed {seed}, C = {channel_count}");
            // The environment's own accumulator (pruned on the lattice), the
            // exact ledger, and a model with no accumulator of its own.
            tally(assert_fill_matches_probing(&env, n, &mut rng, 12, &what));
            let exact = ExactPhysical(&env);
            tally(assert_fill_matches_probing(&exact, n, &mut rng, 12, &what));
            let protocol = ProtocolModel::new(env.communication_graph(), 2);
            tally(assert_fill_matches_probing(
                &protocol, n, &mut rng, 6, &what,
            ));
        }
    }
    assert!(
        ok > 300 && violated > 300,
        "{ok} clean and {violated} violated patterns were drawn"
    );
}

/// The frame `repair_schedule` is handed after a fade was built for other
/// gains: a run the edit never touches may have become infeasible, and only
/// reading *every* run's accumulator sees it.
#[test]
fn a_run_a_fade_broke_forces_a_rebuild_even_when_the_edit_is_elsewhere() {
    let instance = PaperScenario::uniform(2_000.0)
        .instantiate(3)
        .expect("a connected paper mesh");
    let (env, demands) = (&instance.env, &instance.link_demands);
    let frame = GreedyPhysical::paper_baseline().schedule(env, demands);
    verify_schedule(env, &frame, demands).expect("the frame verifies where it was built");

    let mut stale_frames = 0;
    for fade_seed in 0..24u64 {
        // A fresh 4 dB shadowing draw, as `FaultKind::Fade` installs it. The
        // target keeps the links that still decode alone (the rest left the
        // communication graph; a rebuild could not verify with them) and
        // takes one unit from the first link that has two.
        let faded = env.refaded(Db::new(4.0), fade_seed).expect("dense gains");
        let mut target: Vec<(Link, u64)> = demands
            .demanded_links()
            .filter(|&(link, _)| SlotFeasibility::slot_feasible(&faded, &[link]))
            .collect();
        let Some(edited) = target.iter_mut().find(|(_, demand)| *demand >= 2) else {
            continue;
        };
        edited.1 -= 1;
        let edited = edited.0;
        let target = LinkDemands::from_links(env.node_count(), &target).expect("a subset");

        // Runs the patch leaves exactly as they are — no dropped link, not
        // the trimmed one — that the new gains made infeasible.
        let untouched_and_broken = frame
            .runs()
            .filter(|(pattern, _)| {
                let kept = |&l: &Link| l != edited && target.demand_of_link(l).is_some();
                pattern.links().iter().all(kept)
                    && verify_slots_feasible(
                        &faded,
                        &Schedule::from_pattern_runs([((*pattern).clone(), 1)]),
                    )
                    .is_err()
            })
            .count();
        if untouched_and_broken == 0 {
            continue;
        }
        stale_frames += 1;

        let repaired = repair_schedule(&faded, &frame, &target);
        assert_eq!(
            repaired.outcome,
            RepairOutcome::Rebuilt,
            "fade {fade_seed}: {untouched_and_broken} untouched run(s) are infeasible"
        );
        verify_schedule(&faded, &repaired.schedule, &target)
            .unwrap_or_else(|violation| panic!("fade {fade_seed}: {violation}"));
    }
    assert!(stale_frames >= 8, "only {stale_frames} fades broke a run");

    // Without a fade the same kind of edit is an incremental patch.
    let mut target: Vec<(Link, u64)> = demands.demanded_links().collect();
    let edited = target.iter_mut().find(|(_, demand)| *demand >= 2);
    edited.expect("a link with two units").1 -= 1;
    let target = LinkDemands::from_links(env.node_count(), &target).expect("the same links");
    let repaired = repair_schedule(env, &frame, &target);
    assert_eq!(repaired.outcome, RepairOutcome::Incremental);
    verify_schedule(env, &repaired.schedule, &target).expect("the patch verifies");
}
