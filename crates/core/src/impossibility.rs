//! The impossibility of *localized* distributed scheduling under physical
//! interference (Theorem 1), made constructive.
//!
//! The theorem's proof sketch builds a line network in which a link `l` and a
//! far-away link `l'` are individually compatible with the links already
//! scheduled in a slot, but aggregate interference makes the slot infeasible
//! when both are added. A localized algorithm (one whose per-link decisions
//! only consult a constant-hop neighborhood) cannot distinguish the two
//! situations and can therefore produce an infeasible schedule.
//!
//! [`CounterExample`] constructs such an instance explicitly so tests and
//! examples can exhibit the failure, and [`LocalizedGreedy`] is the strawman
//! localized scheduler the construction defeats.

use serde::{Deserialize, Serialize};

use scream_netsim::{Db, Dbm, Meters, PropagationModel, RadioConfig, RadioEnvironment, SlotLedger};
use scream_topology::{Deployment, Graph, Link, NodeId, Point2, Rect};

use crate::error::ProtocolError;

/// A concrete network and link pair realizing the construction in the proof
/// of Theorem 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterExample {
    /// The deployment (a long line of nodes).
    pub deployment: Deployment,
    /// The link `l` whose scheduling decision is under scrutiny.
    pub link_l: Link,
    /// The distant link `l'` outside any constant-hop neighborhood of `l`.
    pub link_l_prime: Link,
    /// SINR threshold used by the construction.
    pub sinr_threshold_db: Db,
}

impl CounterExample {
    /// Builds a counterexample defeating locality radius `k` (hops).
    ///
    /// The construction places `4k + 8` nodes on a line. The two candidate
    /// links sit at opposite ends — more than `k` hops apart — and the SINR
    /// threshold is tuned so that each link is feasible on its own (and
    /// together with nothing else) but the pair is infeasible when scheduled
    /// concurrently: each link's ACK receiver sits close enough to the other
    /// link's data transmitter that the *combined* interference and noise
    /// push the SINR just below the threshold, while either source alone
    /// stays above it.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidParameter`] if `k` is zero.
    pub fn for_locality(k: usize) -> Result<Self, ProtocolError> {
        if k == 0 {
            return Err(ProtocolError::InvalidParameter(
                "locality radius must be at least one hop".to_string(),
            ));
        }
        // A line of nodes spaced so that consecutive nodes are well within
        // range (the communication graph is the line) but the two candidate
        // links are Θ(n) hops apart for any fixed k.
        let spacing = 150.0;
        let count = 4 * k + 8;
        let positions: Vec<Point2> = (0..count)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        let region = Rect::new(
            Point2::ORIGIN,
            Point2::new((count - 1) as f64 * spacing, 1.0),
        );
        let deployment = Deployment::from_positions(&positions, 20.0, region)
            .map_err(|e| ProtocolError::InvalidParameter(e.to_string()))?;

        let last = (count - 1) as u32;
        Ok(Self {
            deployment,
            // Link l at the left end: node 1 transmits to node 0.
            link_l: Link::new(NodeId::new(1), NodeId::new(0)),
            // Link l' at the right end: node count-2 transmits to node count-1.
            link_l_prime: Link::new(NodeId::new(last - 1), NodeId::new(last)),
            sinr_threshold_db: Self::tuned_threshold(&positions, spacing),
        })
    }

    /// Chooses a SINR threshold strictly between the SINR each candidate link
    /// sees when scheduled alone and the SINR it sees when both are
    /// scheduled, so the construction is guaranteed to separate the two
    /// cases.
    fn tuned_threshold(positions: &[Point2], spacing: f64) -> Db {
        let propagation = PropagationModel::log_distance(3.0);
        let noise = Dbm::new(-100.0);
        let tx = Dbm::new(20.0);
        // Worst affected reception: the ACK of link l is transmitted by node 0
        // and received by node 1, while node count-2 (the data transmitter of
        // l') interferes from (count - 3) * spacing away.
        let n = positions.len();
        let signal = tx - propagation.path_loss_db(Meters::new(spacing));
        let interferer_distance = Meters::new(positions[1].distance(positions[n - 2]));
        let interference = tx - propagation.path_loss_db(interferer_distance);
        let (noise_mw, interference_mw, signal_mw) =
            (noise.to_mw(), interference.to_mw(), signal.to_mw());
        let sinr_alone = Db::from_linear(signal_mw / noise_mw);
        let sinr_both = Db::from_linear(signal_mw / (noise_mw + interference_mw));
        // Midpoint between the two regimes (in dB); `× 0.5` rounds as `/ 2`.
        (sinr_alone + sinr_both) * 0.5
    }

    /// The radio environment realizing the construction.
    pub fn environment(&self) -> RadioEnvironment {
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .config(
                RadioConfig::mesh_default()
                    .with_sinr_threshold_db(self.sinr_threshold_db.get())
                    .with_noise_floor_dbm(Dbm::new(-100.0)),
            )
            .build(&self.deployment)
    }

    /// Hop distance between the two candidate links in the communication
    /// graph (always greater than the locality radius).
    pub fn link_separation_hops(&self, graph: &Graph) -> usize {
        graph
            .link_hop_distance(
                (self.link_l.head, self.link_l.tail),
                (self.link_l_prime.head, self.link_l_prime.tail),
            )
            .unwrap_or(usize::MAX)
    }
}

/// A strawman *localized* scheduler: it adds a link to a slot whenever the
/// links already present within `k` hops of it leave it feasible, ignoring
/// everything farther away — precisely the class of algorithms Theorem 1
/// rules out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalizedGreedy {
    /// The locality radius in hops.
    pub(crate) locality_hops: usize,
}

impl LocalizedGreedy {
    /// Creates a localized scheduler with radius `k` hops.
    pub fn new(locality_hops: usize) -> Self {
        Self { locality_hops }
    }

    /// Decides — looking only at links within `k` hops of `candidate` —
    /// whether `candidate` may join the slot `existing`.
    pub fn admits(
        &self,
        env: &RadioEnvironment,
        graph: &Graph,
        existing: &[Link],
        candidate: Link,
    ) -> bool {
        let visible: Vec<Link> = existing
            .iter()
            .copied()
            .filter(|l| {
                graph
                    .link_hop_distance((l.head, l.tail), (candidate.head, candidate.tail))
                    .is_some_and(|d| d <= self.locality_hops)
            })
            .collect();
        SlotLedger::with_links(env, &visible).can_add(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible(env: &RadioEnvironment, slot: &[Link]) -> bool {
        SlotLedger::with_links(env, slot).slot_feasible()
    }

    #[test]
    fn both_links_are_individually_feasible_but_jointly_infeasible() {
        for k in [1usize, 2, 3] {
            let ce = CounterExample::for_locality(k).unwrap();
            let env = ce.environment();
            assert!(
                feasible(&env, &[ce.link_l]),
                "l alone must be feasible (k={k})"
            );
            assert!(
                feasible(&env, &[ce.link_l_prime]),
                "l' alone must be feasible (k={k})"
            );
            assert!(
                !feasible(&env, &[ce.link_l, ce.link_l_prime]),
                "l and l' together must be infeasible (k={k})"
            );
        }
    }

    #[test]
    fn the_links_are_outside_each_others_locality() {
        let k = 2;
        let ce = CounterExample::for_locality(k).unwrap();
        let env = ce.environment();
        let graph = env.communication_graph();
        assert!(graph.is_connected());
        assert!(ce.link_separation_hops(&graph) > k);
    }

    #[test]
    fn a_localized_greedy_scheduler_builds_an_infeasible_slot() {
        // Both endpoints run the same localized rule; each admits its link
        // because the other is invisible, and the resulting slot violates the
        // physical model — the constructive content of Theorem 1.
        let k = 2;
        let ce = CounterExample::for_locality(k).unwrap();
        let env = ce.environment();
        let graph = env.communication_graph();
        let alg = LocalizedGreedy::new(k);

        let mut slot: Vec<Link> = Vec::new();
        assert!(alg.admits(&env, &graph, &slot, ce.link_l));
        slot.push(ce.link_l);
        assert!(
            alg.admits(&env, &graph, &slot, ce.link_l_prime),
            "the localized rule cannot see link l and admits l'"
        );
        slot.push(ce.link_l_prime);
        assert!(!feasible(&env, &slot), "the produced slot is infeasible");
    }

    #[test]
    fn a_global_rule_rejects_the_second_link() {
        let ce = CounterExample::for_locality(2).unwrap();
        let env = ce.environment();
        assert!(!SlotLedger::with_links(&env, &[ce.link_l]).can_add(ce.link_l_prime));
    }

    #[test]
    fn construction_scales_with_the_locality_radius() {
        let small = CounterExample::for_locality(1).unwrap();
        let large = CounterExample::for_locality(5).unwrap();
        assert!(large.deployment.len() > small.deployment.len());
        assert_eq!(large.deployment.len(), 4 * 5 + 8);
    }

    #[test]
    fn zero_locality_is_rejected() {
        let err = CounterExample::for_locality(0).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidParameter(_)), "{err:?}");
        assert!(err.to_string().contains("at least one hop"), "{err}");
    }
}
