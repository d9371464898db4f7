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
