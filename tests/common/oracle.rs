//! The independent SINR oracle (ROADMAP 1(a)), shared by the integration
//! suites: the paper's feasibility definition (Section II) computed from node
//! coordinates and the instance's own constants — log-distance path loss,
//! 40 dB at 1 m (flat inside it) plus 10 · 3 · log₁₀ d, per-node transmit
//! power, the configuration's noise floor, β and channel count — calling no
//! `netsim` gain, SINR or ledger function. Shadowing enters only as data:
//! the draws `ShadowingField::generate(n, σ, seed)` makes, which is the field
//! an environment built with `.shadowing(σ, seed)` carries. Every input is
//! read out as a raw `f64` and the arithmetic is its own: no unit type's
//! operator or conversion (`Dbm::to_mw`, …) is on its path.
//!
//! Above the SINR test it holds the paper's own primitive (ROADMAP 3): the
//! carrier-sense detection rule of Section III-A over the same gains, the
//! sensitivity graph and interference diameter it induces (Definitions 1–2),
//! the slot-by-slot SCREAM flood and the bitwise leader election of Section
//! III-B run over that flood.
#![allow(dead_code, reason = "each suite uses the part it judges")]

use std::cell::OnceCell;

use scream::netsim::{RadioConfig, ShadowingField};
use scream::prelude::*;

/// The paper's path-loss exponent.
const EXPONENT: f64 = 3.0;
/// Path loss at (and inside) the 1 m reference distance, in dB.
const REFERENCE_LOSS_DB: f64 = 40.0;

fn mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// One deployment's physical layer, as the oracle sees it.
pub struct Oracle {
    positions: Vec<Point2>,
    tx_power_dbm: Vec<f64>,
    shadowing: ShadowingField,
    noise_mw: f64,
    beta: f64,
    channel_count: usize,
    carrier_sense_mw: f64,
    /// `received_mw(tx, rx)` at `tx · n + rx`, filled on the first detection.
    received: OnceCell<Vec<f64>>,
}

impl Oracle {
    /// The oracle of `deployment` under `config`, with `shadowing`'s draws
    /// added to every pair's path loss (`ShadowingField::disabled` for none).
    pub fn new(deployment: &Deployment, config: &RadioConfig, shadowing: ShadowingField) -> Self {
        Self {
            positions: deployment
                .node_ids()
                .map(|v| deployment.position(v))
                .collect(),
            tx_power_dbm: deployment
                .nodes()
                .iter()
                .map(|node| node.tx_power_dbm)
                .collect(),
            shadowing,
            noise_mw: mw(config.noise_floor_dbm.get()),
            beta: mw(config.sinr_threshold_db.get()),
            channel_count: config.channel_count.max(1),
            carrier_sense_mw: mw(RadioConfig::CARRIER_SENSE_THRESHOLD_DBM.get()),
            received: OnceCell::new(),
        }
    }

    /// [`new`](Self::new) for an environment built without shadowing.
    pub fn unshadowed(deployment: &Deployment, config: &RadioConfig) -> Self {
        Self::new(
            deployment,
            config,
            ShadowingField::disabled(deployment.len()),
        )
    }

    /// Power `rx` receives from `tx`, in milliwatts.
    pub fn received_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        let (a, b) = (self.positions[tx.index()], self.positions[rx.index()]);
        let distance_m = (a.x - b.x).hypot(a.y - b.y);
        let loss_db = REFERENCE_LOSS_DB
            + 10.0 * EXPONENT * distance_m.max(1.0).log10()
            + self.shadowing.shadow_db(tx.index(), rx.index()).get();
        mw(self.tx_power_dbm[tx.index()] - loss_db)
    }

    /// Whether `link`'s two-way handshake completes while `concurrent` (which
    /// may hold `link` itself) transmits on its channel: the data sub-slot
    /// (head → tail, against the other links' heads) and the ACK sub-slot
    /// (tail → head, against their tails) both reach β, a sender that is
    /// one of `link`'s own endpoints not counting as interference.
    pub fn handshake_ok(&self, link: Link, concurrent: &[Link]) -> bool {
        let decodes = |tx: NodeId, rx: NodeId, senders: &mut dyn Iterator<Item = NodeId>| {
            let interference_mw: f64 = senders
                .filter(|&s| s != tx && s != rx)
                .map(|s| self.received_mw(s, rx))
                .sum();
            self.received_mw(tx, rx) / (self.noise_mw + interference_mw) >= self.beta
        };
        let others = || concurrent.iter().filter(|&&l| l != link);
        decodes(link.head, link.tail, &mut others().map(|l| l.head))
            && decodes(link.tail, link.head, &mut others().map(|l| l.tail))
    }

    /// Whether every slot of `schedule` is feasible: a node has one radio, so
    /// a pattern's links are endpoint-disjoint across all its channels; every
    /// channel is one the configuration has, and every channel group is a
    /// feasible slot.
    pub fn accepts(&self, schedule: &Schedule) -> bool {
        schedule.runs().all(|(pattern, _)| {
            endpoint_disjoint(pattern.links())
                && pattern.channel_groups().all(|(channel, group)| {
                    channel.index() < self.channel_count && self.slot_feasible(group)
                })
        })
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.positions.len() as u32).map(NodeId::new)
    }

    /// Whether `listener` detects a slot in which `screamers` transmit: the
    /// summed power it receives from them, itself excluded, reaches the
    /// carrier-sense threshold.
    fn detects(&self, listener: NodeId, screamers: &[NodeId]) -> bool {
        let n = self.positions.len();
        let received = self.received.get_or_init(|| {
            let nodes = self.nodes();
            nodes
                .clone()
                .flat_map(|tx| nodes.clone().map(move |rx| self.received_mw(tx, rx)))
                .collect()
        });
        let power: f64 = screamers
            .iter()
            .filter(|&&s| s != listener)
            .map(|s| received[s.index() * n + listener.index()])
            .sum();
        power >= self.carrier_sense_mw
    }

    /// The sensitivity graph `G_S` of Definition 1, as `(u, v)` pairs in
    /// ascending order: `v` detects `u` transmitting alone.
    pub fn sensitivity_edges(&self) -> Vec<(NodeId, NodeId)> {
        let nodes = self.nodes();
        nodes
            .clone()
            .flat_map(|u| nodes.clone().map(move |v| (u, v)))
            .filter(|&(u, v)| u != v && self.detects(v, &[u]))
            .collect()
    }

    /// `ID(G_S)` (Definition 2): the largest breadth-first eccentricity over
    /// the sensitivity edges, `usize::MAX` when some node cannot reach
    /// another.
    pub fn interference_diameter(&self) -> usize {
        let n = self.positions.len();
        let mut out = vec![Vec::new(); n];
        for (u, v) in self.sensitivity_edges() {
            out[u.index()].push(v.index());
        }
        let mut diameter = 0;
        for source in 0..n {
            let mut hops = vec![usize::MAX; n];
            hops[source] = 0;
            let mut frontier = vec![source];
            for depth in 1.. {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in &out[u] {
                        if hops[v] == usize::MAX {
                            hops[v] = depth;
                            next.push(v);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            diameter = diameter.max(hops.into_iter().max().unwrap_or(0));
        }
        diameter
    }

    /// Each node's view after `k` SCREAM slots that `screamers` start
    /// (Section III-A): in every slot the current relays transmit, and every
    /// silent node that [`detects`](Self::detects) them relays from the next
    /// slot on.
    pub fn flood(&self, screamers: &[NodeId], k: usize) -> Vec<bool> {
        let mut relaying = vec![false; self.positions.len()];
        for s in screamers {
            relaying[s.index()] = true;
        }
        for _ in 0..k {
            let relays: Vec<NodeId> = self.nodes().filter(|v| relaying[v.index()]).collect();
            let heard: Vec<NodeId> = self
                .nodes()
                .filter(|&v| !relaying[v.index()] && self.detects(v, &relays))
                .collect();
            for v in heard {
                relaying[v.index()] = true;
            }
        }
        relaying
    }

    /// The fewest bits that number every node, and at least one.
    pub fn id_bits(&self) -> u32 {
        let mut bits = 1;
        while (1usize << bits) < self.positions.len() {
            bits += 1;
        }
        bits
    }

    /// Section III-B's election among `candidates`, one `k`-slot
    /// [`flood`](Self::flood) per id bit: from the most significant bit down,
    /// the candidates still standing whose bit is 1 scream, and a standing
    /// candidate whose bit is 0 steps down if it hears them. Returns who is
    /// left standing, ascending — the highest id alone when every flood
    /// reached every node.
    pub fn elect(&self, candidates: &[NodeId], k: usize) -> Vec<NodeId> {
        let mut standing = candidates.to_vec();
        for j in (0..self.id_bits()).rev() {
            let bit = |v: NodeId| (v.0 >> j) & 1 == 1;
            let screamers: Vec<NodeId> = standing.iter().copied().filter(|&v| bit(v)).collect();
            let heard = self.flood(&screamers, k);
            standing.retain(|&v| bit(v) || !heard[v.index()]);
        }
        standing
    }
}

/// No self-link, and no node in two links.
fn endpoint_disjoint(links: &[Link]) -> bool {
    links
        .iter()
        .enumerate()
        .all(|(i, a)| a.head != a.tail && links[i + 1..].iter().all(|b| !a.shares_endpoint(b)))
}

/// One channel's slot by the paper's definition; `can_add` and the
/// per-channel accumulator are the trait's from-scratch defaults.
impl SlotFeasibility for Oracle {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        endpoint_disjoint(links) && links.iter().all(|&l| self.handshake_ok(l, links))
    }

    fn channel_count(&self) -> usize {
        self.channel_count
    }
}
