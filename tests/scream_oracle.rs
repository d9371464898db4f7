//! The paper's own primitive judged by the independent `Oracle`: the
//! sensitivity graph, the interference diameter and the communication graph
//! the environment builds, the closed-form SCREAM OR that `K ≥ ID(G_S)`
//! licenses (Section III-A) and the election read off it (Section III-B),
//! each against the oracle's slot-by-slot carrier-sense flood over its own
//! gains, on every mesh of `scream_meshes`.

use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scream::prelude::*;
use scream::protocols::ScreamChannel;

#[path = "common/meshes.rs"]
mod meshes;
#[path = "common/oracle.rs"]
mod oracle;
use meshes::{scream_meshes, Mesh};

/// Seeded random node sets per mesh, on top of the structured ones.
const RANDOM_SETS: usize = 32;

/// `K = ID(G_S)`, the least `K` the channel accepts.
fn tightest_channel(mesh: &Mesh) -> ScreamChannel {
    let config =
        ProtocolConfig::paper_default().with_scream_slots(mesh.env.interference_diameter());
    ScreamChannel::new(&mesh.env, &config).unwrap()
}

/// Every single node, nobody, everybody, then [`RANDOM_SETS`] seeded sets
/// of varied density: ascending ids each.
fn node_sets(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let everyone: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    let mut sets: Vec<Vec<NodeId>> = everyone.iter().map(|&v| vec![v]).collect();
    sets.push(Vec::new());
    sets.push(everyone.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..RANDOM_SETS {
        let p = [0.05, 0.2, 0.5, 0.8][i % 4];
        sets.push(
            everyone
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(p))
                .collect(),
        );
    }
    sets
}

fn flags(n: usize, set: &[NodeId]) -> Vec<bool> {
    let mut flags = vec![false; n];
    for v in set {
        flags[v.index()] = true;
    }
    flags
}

#[test]
fn sensitivity_graph_and_interference_diameter_equal_the_oracles() {
    for mesh in scream_meshes() {
        let built: Vec<(NodeId, NodeId)> = {
            let mut edges: Vec<_> = mesh.env.sensitivity_graph().edges().collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(built, mesh.oracle.sensitivity_edges(), "{}", mesh.label);
        let id = mesh.oracle.interference_diameter();
        assert!((1..usize::MAX).contains(&id), "{}: ID {id}", mesh.label);
        assert_eq!(mesh.env.interference_diameter(), id, "{}", mesh.label);
    }
}

#[test]
fn communication_graph_equals_the_oracles_lone_handshake_graph() {
    for mesh in scream_meshes() {
        let n = mesh.deployment.len() as u32;
        let built: BTreeSet<_> = mesh.env.communication_graph().edges().collect();
        assert!(!built.is_empty(), "{}", mesh.label);
        for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (NodeId::new(u), NodeId::new(v))))
        {
            let link = Link::new(u, v);
            if let Some(lone) = mesh.oracle.handshake(link, &[link]) {
                assert_eq!(built.contains(&(u, v)), lone, "{}: {link}", mesh.label);
            }
        }
        assert_eq!(mesh.oracle.undecided(), 0, "{}", mesh.label);
    }
}

#[test]
fn a_lone_screamer_is_heard_everywhere_at_k_equal_id() {
    // Section III-A's guarantee in the physical model itself: K = ID slots
    // of the oracle's flood carry any one screamer to every node, even from
    // the end of a line, and the closed form answers the same.
    let meshes = std::iter::once(Mesh::planned(8, 1, 150.0)).chain(scream_meshes());
    for mesh in meshes {
        let channel = tightest_channel(&mesh);
        let (n, k) = (mesh.deployment.len(), channel.scream_slots());
        let mut timing = ProtocolTiming::new();
        for v in (0..n as u32).map(NodeId::new) {
            let heard = mesh.oracle.flood(&[v], k);
            assert_eq!(heard, vec![true; n], "{}: K = {k}, {v:?}", mesh.label);
            let views = channel.network_or(&flags(n, &[v]), &mut timing);
            assert_eq!(views, Ok(vec![true; n]), "{}: {v:?}", mesh.label);
        }
        assert_eq!(mesh.oracle.flood(&[], k), vec![false; n], "{}", mesh.label);
        let silent = channel.network_or(&vec![false; n], &mut timing);
        assert_eq!(silent, Ok(vec![false; n]), "{}", mesh.label);
    }
}

#[test]
fn the_least_k_that_carries_every_lone_screamer_never_exceeds_id() {
    // Section III-A's sufficiency from the other side: the least K at which
    // the oracle's flood carries every single screamer to every node is at
    // most ID(G_S), and summed relay power often makes it less. The pairs
    // (ID, least K) are ROADMAP item 3(e)'s table.
    let pinned = [
        (7, 7),
        (3, 3),
        (4, 3),
        (5, 4),
        (7, 5),
        (4, 3),
        (10, 5),
        (2, 2),
        (2, 2),
        (2, 2),
        (2, 2),
    ];
    let meshes = std::iter::once(Mesh::planned(8, 1, 150.0)).chain(scream_meshes());
    let mut measured = Vec::new();
    for mesh in meshes {
        let n = mesh.deployment.len();
        let id = mesh.oracle.interference_diameter();
        let carries_everyone = |k: usize| {
            (0..n as u32).all(|v| mesh.oracle.flood(&[NodeId::new(v)], k) == vec![true; n])
        };
        let least_k = (1..=n)
            .find(|&k| carries_everyone(k))
            .unwrap_or_else(|| panic!("{}: no K carries every lone screamer", mesh.label));
        assert!(least_k <= id, "{}: least K {least_k} > ID {id}", mesh.label);
        assert_eq!(mesh.oracle.undecided(), 0, "{}", mesh.label);
        measured.push((id, least_k));
    }
    assert_eq!(measured, pinned);
}

#[test]
fn network_or_equals_the_oracle_flood_at_k_equal_id() {
    for (seed, mesh) in (0u64..).zip(scream_meshes()) {
        let channel = tightest_channel(&mesh);
        let (n, k) = (mesh.deployment.len(), channel.scream_slots());
        for screamers in node_sets(n, seed) {
            let mut timing = ProtocolTiming::new();
            let views = channel.network_or(&flags(n, &screamers), &mut timing);
            let flooded = mesh.oracle.flood(&screamers, k);
            assert_eq!(
                views,
                Ok(flooded),
                "{}: K = {k}, screamers {screamers:?}",
                mesh.label
            );
            assert_eq!(timing.scream_slots, k as u64);
        }
    }
}

#[test]
fn elect_equals_the_oracle_bitwise_election() {
    for (seed, mesh) in (100u64..).zip(scream_meshes()) {
        let channel = tightest_channel(&mesh);
        let (n, k) = (mesh.deployment.len(), channel.scream_slots());
        for candidates in node_sets(n, seed) {
            let mut timing = ProtocolTiming::new();
            let winner = LeaderElection::new()
                .elect(&channel, &flags(n, &candidates), &mut timing)
                .unwrap();
            assert_eq!(
                Vec::from_iter(winner),
                mesh.oracle.elect(&candidates, k),
                "{}: K = {k}, candidates {candidates:?}",
                mesh.label
            );
            let floods = u64::from(mesh.oracle.id_bits());
            assert_eq!(timing.scream_slots, floods * k as u64, "{}", mesh.label);
        }
    }
}

#[test]
fn below_the_interference_diameter_the_flood_misses_and_no_channel_is_built() {
    // K ≥ ID(G_S) is sufficient, not always necessary: summed relay power
    // reaches past the hop graph, and on the 5×5 and 6×6 grids K = ID − 1
    // already carries every single screamer everywhere. On a line it cannot.
    let line = Mesh::planned(8, 1, 150.0);
    let id = line.oracle.interference_diameter();
    assert!(id >= 3, "an 8-node line is multi-hop: ID {id}");
    let heard = line.oracle.flood(&[NodeId::new(0)], 1);
    assert!(heard[1], "a sensitivity neighbour hears the first slot");
    assert!(!heard[7], "the far end cannot learn the OR in one slot");
    assert_eq!(line.oracle.flood(&[NodeId::new(0)], id), vec![true; 8]);
    for k in 1..id {
        let config = ProtocolConfig::paper_default().with_scream_slots(k);
        assert_eq!(
            ScreamChannel::new(&line.env, &config),
            Err(ProtocolError::ScreamSlotsTooSmall {
                configured: k,
                interference_diameter: id,
            })
        );
    }
    let tight = ProtocolConfig::paper_default().with_scream_slots(id);
    assert!(ScreamChannel::new(&line.env, &tight).is_ok());
    // An election over floods that short leaves both ends standing.
    let ends = [NodeId::new(0), NodeId::new(7)];
    assert_eq!(line.oracle.elect(&ends, 1), ends.to_vec());
    assert_eq!(line.oracle.elect(&ends, id), vec![ends[1]]);
}
