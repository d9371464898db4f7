//! Deterministic fault plans: what breaks, when, and when it comes back.
//!
//! A [`ChurnTrace`] is a slot-ordered list of [`FaultEvent`]s — link and
//! node outages with their repairs, shadowing re-fades, and flow
//! stop/start churn. Traces are built either explicitly through
//! [`FaultPlan`] or drawn from a seeded distribution with
//! [`FaultPlan::random_churn`]; in both cases the result is a plain sorted
//! value type, so the same inputs always produce byte-identical traces
//! (pinned by the determinism property test in the workspace test suite).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use scream_topology::{Link, NodeId};

/// One kind of injected fault (or repair).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// The (undirected) link stops carrying traffic in either direction.
    LinkDown(Link),
    /// A previously failed link returns to service.
    LinkUp(Link),
    /// The node dies: every link touching it goes down and its flow stops.
    NodeDown(NodeId),
    /// A previously failed node returns, together with its surviving links.
    NodeUp(NodeId),
    /// The shadowing field is redrawn: a time-varying fade that changes
    /// every link gain (and therefore the communication graph and SINR
    /// feasibility) at once.
    Fade {
        /// Log-normal shadowing deviation of the redrawn field, in dB.
        sigma_db: f64,
        /// Seed of the redrawn field.
        seed: u64,
    },
    /// The node's flow departs (stops injecting packets).
    FlowStop(NodeId),
    /// The node's flow arrives (starts, or resumes, injecting packets).
    FlowStart(NodeId),
}

/// A fault at a scheduled slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// The absolute slot at which the fault takes effect.
    pub slot: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A slot-ordered sequence of fault events.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ChurnTrace {
    events: Vec<FaultEvent>,
}

impl ChurnTrace {
    /// Builds a trace from events, sorting them by slot. Events at the same
    /// slot keep their given order (a `LinkDown` listed before a `LinkUp`
    /// at the same slot loses the race, deterministically).
    pub(crate) fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        Self { events }
    }

    /// The events, slot-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The slot of the first fault, if any.
    pub(crate) fn first_slot(&self) -> Option<u64> {
        self.events.first().map(|e| e.slot)
    }

    /// The slot of the last fault, if any.
    pub fn last_slot(&self) -> Option<u64> {
        self.events.last().map(|e| e.slot)
    }
}

/// Parameters of a random churn draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnConfig {
    /// The horizon the faults must fall inside.
    pub horizon_slots: u64,
    /// How many link outage/repair pairs to draw.
    pub link_failures: usize,
    /// How many node outage/repair pairs to draw.
    pub node_failures: usize,
    /// How many flow stop/start pairs to draw.
    pub flow_churns: usize,
    /// How many shadowing re-fades to draw.
    pub fades: usize,
    /// Mean outage duration (exponentially distributed), in slots.
    pub mean_outage_slots: f64,
    /// Shadowing deviation of drawn fades, in dB.
    pub fade_sigma_db: f64,
}

/// Builder for fault plans: explicit events plus seeded random churn.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary event.
    pub fn at(mut self, slot: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { slot, kind });
        self
    }

    /// Fails `link` at `down_slot`, permanently.
    pub fn link_down(self, link: Link, down_slot: u64) -> Self {
        self.at(down_slot, FaultKind::LinkDown(link))
    }

    /// Appends seeded random churn over the given candidate links and
    /// nodes: outage starts are uniform in the middle 60% of the horizon
    /// (so the run has a pre-fault baseline and a post-repair tail),
    /// durations are exponential with the configured mean, and repairs
    /// past the horizon are dropped (the outage becomes permanent). The
    /// same `(config, candidates, seed)` triple always appends the same
    /// events.
    pub fn random_churn(
        mut self,
        config: ChurnConfig,
        links: &[Link],
        nodes: &[NodeId],
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (down, up) = (FaultKind::LinkDown, FaultKind::LinkUp);
        self.push_outages(&mut rng, &config, config.link_failures, links, down, up);
        let (down, up) = (FaultKind::NodeDown, FaultKind::NodeUp);
        self.push_outages(&mut rng, &config, config.node_failures, nodes, down, up);
        let (down, up) = (FaultKind::FlowStop, FaultKind::FlowStart);
        self.push_outages(&mut rng, &config, config.flow_churns, nodes, down, up);
        for _ in 0..config.fades {
            let slot = rng.gen_range(start_window(config.horizon_slots));
            let fade_seed = rng.gen_range(0..u64::MAX);
            self.events.push(FaultEvent {
                slot,
                kind: FaultKind::Fade {
                    sigma_db: config.fade_sigma_db,
                    seed: fade_seed,
                },
            });
        }
        self
    }

    /// Appends `count` outages drawn from `candidates`: for each, the
    /// candidate, then the start (uniform in the [`start_window`]), then the
    /// exponential length. An outage ending past the horizon is permanent.
    fn push_outages<T: Copy>(
        &mut self,
        rng: &mut ChaCha8Rng,
        config: &ChurnConfig,
        count: usize,
        candidates: &[T],
        down: impl Fn(T) -> FaultKind,
        up: impl Fn(T) -> FaultKind,
    ) {
        if candidates.is_empty() {
            return;
        }
        for _ in 0..count {
            let candidate = candidates[rng.gen_range(0..candidates.len())];
            let start = rng.gen_range(start_window(config.horizon_slots));
            let length = exponential(rng, config.mean_outage_slots).max(1.0) as u64;
            let end = start.saturating_add(length);
            self.events.push(FaultEvent {
                slot: start,
                kind: down(candidate),
            });
            if end < config.horizon_slots {
                self.events.push(FaultEvent {
                    slot: end,
                    kind: up(candidate),
                });
            }
        }
    }

    /// Finalizes the plan into a slot-ordered trace.
    pub fn build(self) -> ChurnTrace {
        ChurnTrace::new(self.events)
    }
}

/// The slots random churn starts outages and fades in: the middle 60% of
/// the horizon, never empty (computed in `u128`, so no horizon overflows).
fn start_window(horizon: u64) -> std::ops::Range<u64> {
    let start = horizon / 5;
    let end = (u128::from(horizon) * 4 / 5) as u64;
    start..end.max(start + 1)
}

/// `Exp(mean)`-distributed draw in slots.
fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    #[test]
    fn traces_sort_by_slot_and_keep_same_slot_order() {
        let trace = FaultPlan::new()
            .at(30, FaultKind::LinkUp(link(1, 0)))
            .at(10, FaultKind::LinkDown(link(1, 0)))
            .at(30, FaultKind::NodeDown(NodeId::new(2)))
            .build();
        assert_eq!(trace.first_slot(), Some(10));
        assert_eq!(trace.last_slot(), Some(30));
        assert_eq!(
            trace.events()[1].kind,
            FaultKind::LinkUp(link(1, 0)),
            "stable sort keeps the listed order within a slot"
        );
    }

    #[test]
    fn random_churn_is_seed_deterministic_and_in_window() {
        let links = [link(1, 0), link(2, 1), link(3, 2)];
        let nodes = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let config = ChurnConfig {
            horizon_slots: 1000,
            link_failures: 3,
            node_failures: 2,
            flow_churns: 2,
            fades: 1,
            mean_outage_slots: 100.0,
            fade_sigma_db: 4.0,
        };
        let a = FaultPlan::new()
            .random_churn(config, &links, &nodes, 7)
            .build();
        let b = FaultPlan::new()
            .random_churn(config, &links, &nodes, 7)
            .build();
        let c = FaultPlan::new()
            .random_churn(config, &links, &nodes, 8)
            .build();
        assert_eq!(a, b, "same seed, same trace");
        assert_ne!(a, c, "different seeds diverge");
        assert!(!a.is_empty());
        for event in a.events() {
            assert!(event.slot < 1000);
            if let FaultKind::LinkDown(_) | FaultKind::NodeDown(_) | FaultKind::FlowStop(_) =
                event.kind
            {
                assert!((200..800).contains(&event.slot), "outages start mid-run");
            }
        }
    }

    #[test]
    fn a_horizon_near_u64_max_draws_in_its_window() {
        let config = ChurnConfig {
            horizon_slots: u64::MAX,
            link_failures: 1,
            node_failures: 0,
            flow_churns: 0,
            fades: 1,
            mean_outage_slots: 1.0,
            fade_sigma_db: 4.0,
        };
        let trace = FaultPlan::new()
            .random_churn(config, &[link(1, 0)], &[], 5)
            .build();
        assert_eq!(trace.events().len(), 3, "outage, repair and fade");
        for e in trace.events() {
            if !matches!(e.kind, FaultKind::LinkUp(_)) {
                assert!((u64::MAX / 5..u64::MAX / 5 * 4).contains(&e.slot));
            }
        }
    }

    #[test]
    fn repairs_past_the_horizon_become_permanent_outages() {
        let links = [link(1, 0)];
        let config = ChurnConfig {
            horizon_slots: 100,
            link_failures: 1,
            node_failures: 0,
            flow_churns: 0,
            fades: 0,
            // Mean outage far beyond the horizon: the repair is dropped.
            mean_outage_slots: 1e9,
            fade_sigma_db: 4.0,
        };
        let trace = FaultPlan::new()
            .random_churn(config, &links, &[], 3)
            .build();
        assert_eq!(trace.events().len(), 1);
        assert!(matches!(trace.events()[0].kind, FaultKind::LinkDown(_)));
    }
}
