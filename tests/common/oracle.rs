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
//!
//! Its SINR verdicts are three-valued: `Some(true)`, `Some(false)`, or
//! `None` — too close to call — when the computed ratio lies within an error
//! bound of β that covers the oracle's own arithmetic ([`TERM_ERROR`] per
//! received power, one rounding per addend of its `f64` sum, the quotient).
//! A suite compares the ledger with decisive verdicts only and asserts how
//! many were undecided ([`Oracle::undecided`]): none, on drawn instances.
#![allow(dead_code, reason = "each suite uses the part it judges")]

use std::cell::{Cell, OnceCell};

use scream::netsim::{RadioConfig, ShadowingField};
use scream::prelude::*;

/// The paper's path-loss exponent.
const EXPONENT: f64 = 3.0;
/// Path loss at (and inside) the 1 m reference distance, in dB.
const REFERENCE_LOSS_DB: f64 = 40.0;
/// Relative error allowed each received power (and β): the oracle's `hypot`
/// / `log10` / `powf` chain is good to a few ulps, and the ledger floors each
/// term to 2⁻⁸⁰ mW, 10⁻¹⁴ of a −100 dBm floor; generous for both.
const TERM_ERROR: f64 = 1e-10;

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
    /// How many verdicts asked of this oracle were too close to call.
    undecided: Cell<usize>,
}

/// The conjunction of three-valued verdicts: `false` if any is, else
/// undecided if any is, else `true`.
fn all(verdicts: impl IntoIterator<Item = Option<bool>>) -> Option<bool> {
    let (mut refused, mut decided) = (false, true);
    for verdict in verdicts {
        refused |= verdict == Some(false);
        decided &= verdict.is_some();
    }
    if refused {
        Some(false)
    } else {
        decided.then_some(true)
    }
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
            undecided: Cell::new(0),
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

    /// How many of the verdicts asked of this oracle so far were too close
    /// to call.
    pub fn undecided(&self) -> usize {
        self.undecided.get()
    }

    /// Counts `verdict` in [`undecided`](Self::undecided) if it is `None`.
    fn tally(&self, verdict: Option<bool>) -> Option<bool> {
        if verdict.is_none() {
            self.undecided.set(self.undecided.get() + 1);
        }
        verdict
    }

    /// Whether `rx` hears `tx` at β over the noise and `senders`, a sender
    /// that is `tx` or `rx` not counting; with `decisive_only`, `None` when
    /// the computed ratio is within the oracle's error bound of β.
    fn decodes(
        &self,
        tx: NodeId,
        rx: NodeId,
        senders: impl Iterator<Item = NodeId>,
        decisive_only: bool,
    ) -> Option<bool> {
        let (mut interference_mw, mut addends) = (0.0, 0);
        for s in senders.filter(|&s| s != tx && s != rx) {
            interference_mw += self.received_mw(s, rx);
            addends += 1;
        }
        let ratio = self.received_mw(tx, rx) / (self.noise_mw + interference_mw) / self.beta;
        let bound = if decisive_only {
            3.0 * TERM_ERROR + f64::from(addends + 3) * f64::EPSILON
        } else {
            0.0
        };
        if ratio >= 1.0 + bound {
            Some(true)
        } else if ratio < 1.0 - bound {
            Some(false)
        } else {
            None
        }
    }

    /// `link`'s two-way handshake while `concurrent` (which may hold `link`
    /// itself) transmits on its channel: the data sub-slot (head → tail,
    /// against the other links' heads) and the ACK sub-slot (tail → head,
    /// against their tails) both reach β, a sender that is one of `link`'s
    /// own endpoints not counting as interference.
    fn handshake_verdict(
        &self,
        link: Link,
        concurrent: &[Link],
        decisive_only: bool,
    ) -> Option<bool> {
        let others = || concurrent.iter().filter(|&&l| l != link);
        all([
            self.decodes(
                link.head,
                link.tail,
                others().map(|l| l.head),
                decisive_only,
            ),
            self.decodes(
                link.tail,
                link.head,
                others().map(|l| l.tail),
                decisive_only,
            ),
        ])
    }

    /// One channel's slot by the paper's definition.
    fn slot_verdict(&self, links: &[Link], decisive_only: bool) -> Option<bool> {
        if !endpoint_disjoint(links) {
            return Some(false);
        }
        all(links
            .iter()
            .map(|&l| self.handshake_verdict(l, links, decisive_only)))
    }

    /// `link`'s two-way handshake while `concurrent` transmits (see
    /// `handshake_verdict`), or `None` if too close to call.
    pub fn handshake(&self, link: Link, concurrent: &[Link]) -> Option<bool> {
        self.tally(self.handshake_verdict(link, concurrent, true))
    }

    /// Whether `links` are a feasible slot on one channel, or `None` if too
    /// close to call.
    pub fn slot(&self, links: &[Link]) -> Option<bool> {
        self.tally(self.slot_verdict(links, true))
    }

    /// Whether every slot of `schedule` is feasible, or `None` if that is
    /// too close to call: a node has one radio, so a pattern's links are
    /// endpoint-disjoint across all its channels; every channel is one the
    /// configuration has, and every channel group is a feasible slot.
    pub fn judge(&self, schedule: &Schedule) -> Option<bool> {
        let verdict = all(schedule.runs().map(|(pattern, _)| {
            if !endpoint_disjoint(pattern.links()) {
                return Some(false);
            }
            all(pattern.channel_groups().map(|(channel, group)| {
                if channel.index() < self.channel_count {
                    self.slot_verdict(group, true)
                } else {
                    Some(false)
                }
            }))
        }));
        self.tally(verdict)
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
/// per-channel accumulator are the trait's from-scratch defaults. A trait
/// verdict must be a yes or a no: one too close to call is counted in
/// [`Oracle::undecided`] and answered by the plain `≥ β` comparison.
impl SlotFeasibility for Oracle {
    fn slot_feasible(&self, links: &[Link]) -> bool {
        self.slot(links)
            .or_else(|| self.slot_verdict(links, false))
            .unwrap_or(false)
    }

    fn channel_count(&self) -> usize {
        self.channel_count
    }
}
