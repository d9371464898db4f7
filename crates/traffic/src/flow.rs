//! Traffic flows and their arrival processes.
//!
//! A [`Flow`] injects packets at a source node and carries each of them hop
//! by hop along a fixed multi-hop route (a path of links, in practice a
//! routing-forest route to a gateway). When packets arrive is governed by the
//! flow's [`ArrivalProcess`]; all processes are seeded deterministically (the
//! workspace ChaCha shim), so a traffic simulation reruns bit-identically
//! from its inputs.
//!
//! Rates are expressed in **packets per slot** — the same unit as a link's
//! per-frame service share (`service_slots / frame_slots`), which makes the
//! stability comparison (offered load vs. share) unit-free.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use scream_topology::{DemandVector, Link, NodeId, RoutingForest};

/// When a flow's packets arrive, in slot-denominated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Constant-bit-rate arrivals: one packet every `1 / packets_per_slot`
    /// slots, exactly.
    Deterministic {
        /// Mean arrival rate in packets per slot.
        packets_per_slot: f64,
    },
    /// Poisson arrivals: exponential inter-arrival times with the given mean
    /// rate.
    Poisson {
        /// Mean arrival rate in packets per slot.
        packets_per_slot: f64,
    },
    /// Bursty on/off (interrupted Poisson) arrivals: exponentially
    /// distributed ON and OFF periods; packets arrive as a Poisson process at
    /// `packets_per_slot_on` during ON periods and not at all during OFF
    /// periods.
    OnOff {
        /// Arrival rate during ON periods, in packets per slot.
        packets_per_slot_on: f64,
        /// Mean ON-period duration in slots.
        mean_on_slots: f64,
        /// Mean OFF-period duration in slots.
        mean_off_slots: f64,
    },
}

impl ArrivalProcess {
    /// Constant-rate arrivals at `packets_per_slot`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and strictly positive.
    pub fn deterministic(packets_per_slot: f64) -> Self {
        assert_rate(packets_per_slot);
        Self::Deterministic { packets_per_slot }
    }

    /// Poisson arrivals at mean rate `packets_per_slot`.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and strictly positive.
    pub fn poisson(packets_per_slot: f64) -> Self {
        assert_rate(packets_per_slot);
        Self::Poisson { packets_per_slot }
    }

    /// Bursty on/off arrivals.
    ///
    /// # Panics
    ///
    /// Panics unless the ON rate and both mean durations are finite and
    /// strictly positive.
    pub fn on_off(packets_per_slot_on: f64, mean_on_slots: f64, mean_off_slots: f64) -> Self {
        assert_rate(packets_per_slot_on);
        assert_rate(mean_on_slots);
        assert_rate(mean_off_slots);
        Self::OnOff {
            packets_per_slot_on,
            mean_on_slots,
            mean_off_slots,
        }
    }

    /// The long-run mean arrival rate in packets per slot (the offered load
    /// this process contributes to every link of its route).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            Self::Deterministic { packets_per_slot } | Self::Poisson { packets_per_slot } => {
                packets_per_slot
            }
            Self::OnOff {
                packets_per_slot_on,
                mean_on_slots,
                mean_off_slots,
            } => packets_per_slot_on * mean_on_slots / (mean_on_slots + mean_off_slots),
        }
    }
}

fn assert_rate(value: f64) {
    assert!(
        value.is_finite() && value > 0.0,
        "arrival parameters must be finite and positive, got {value}"
    );
}

/// Samples one flow's arrival instants, in slots, deterministically per seed.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalSampler {
    process: ArrivalProcess,
    rng: ChaCha8Rng,
    /// Time of the previously emitted arrival (slots).
    now_slots: f64,
    /// For [`ArrivalProcess::OnOff`]: end of the current ON period, and start
    /// of that period (arrivals before it are impossible).
    on_window: Option<(f64, f64)>,
}

impl ArrivalSampler {
    pub(crate) fn new(process: ArrivalProcess, seed: u64) -> Self {
        Self {
            process,
            rng: ChaCha8Rng::seed_from_u64(seed),
            now_slots: 0.0,
            on_window: None,
        }
    }

    /// Draws `Exp(1/mean)`-distributed durations (mean `mean` slots).
    fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
        // gen_range(0.0..1.0) excludes 1.0, so 1 - u is never 0.
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() * mean
    }

    /// The next arrival instant in slots (strictly increasing).
    pub(crate) fn next_arrival_slots(&mut self) -> f64 {
        let next = match self.process {
            ArrivalProcess::Deterministic { packets_per_slot } => {
                self.now_slots + 1.0 / packets_per_slot
            }
            ArrivalProcess::Poisson { packets_per_slot } => {
                self.now_slots + Self::exponential(&mut self.rng, 1.0 / packets_per_slot)
            }
            ArrivalProcess::OnOff {
                packets_per_slot_on,
                mean_on_slots,
                mean_off_slots,
            } => {
                // Accumulate exponential inter-arrival time in ON-time only,
                // hopping over OFF periods as needed.
                let (mut on_start, mut on_end) = match self.on_window {
                    Some(w) => w,
                    // The process starts at the beginning of an ON period.
                    None => (0.0, Self::exponential(&mut self.rng, mean_on_slots)),
                };
                let mut t = self.now_slots.max(on_start);
                let mut remaining = Self::exponential(&mut self.rng, 1.0 / packets_per_slot_on);
                while t + remaining >= on_end {
                    remaining -= on_end - t;
                    on_start = on_end + Self::exponential(&mut self.rng, mean_off_slots);
                    on_end = on_start + Self::exponential(&mut self.rng, mean_on_slots);
                    t = on_start;
                }
                self.on_window = Some((on_start, on_end));
                t + remaining
            }
        };
        self.now_slots = next;
        next
    }
}

/// One traffic flow: packets created at the head of the first route link
/// traverse `route` link by link (head to tail) and exit the network after
/// the last link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Flow {
    /// The multi-hop route, in traversal order; each link's tail is the next
    /// link's head, and the last tail is the destination (a gateway, for
    /// forest routes).
    pub route: Vec<Link>,
    /// The flow's arrival process.
    pub arrival: ArrivalProcess,
}

impl Flow {
    /// Creates a flow after validating the route: it must be non-empty,
    /// start at `source` and be contiguous (each link's tail is the next
    /// link's head).
    ///
    /// # Panics
    ///
    /// Panics if the route is empty or broken.
    pub fn new(source: NodeId, route: Vec<Link>, arrival: ArrivalProcess) -> Self {
        assert!(!route.is_empty(), "a flow needs at least one route link");
        assert_eq!(route[0].head, source, "route must start at the source");
        for pair in route.windows(2) {
            assert_eq!(
                pair[0].tail, pair[1].head,
                "route is not contiguous at {} -> {}",
                pair[0], pair[1]
            );
        }
        Self { route, arrival }
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.route.len()
    }
}

/// A set of flows driven together through one
/// [`TrafficEngine`](crate::TrafficEngine) run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FlowSet {
    flows: Vec<Flow>,
}

impl FlowSet {
    /// Wraps an explicit flow list.
    pub fn new(flows: Vec<Flow>) -> Self {
        Self { flows }
    }

    /// One flow per non-gateway node with positive demand, routed along the
    /// forest to its gateway, with per-node rate `demand(v) ·
    /// packets_per_slot_per_demand_unit` produced by `make` (which receives
    /// the node and its computed rate).
    ///
    /// This is the paper's traffic pattern: the per-node demands that the
    /// schedulers satisfied with `demand(e)` slots per frame become sustained
    /// packet streams, so a frame of length `F` built by GreedyPhysical/FDD
    /// serves link `e` for exactly `aggregate_demand(e) / F` of the time —
    /// offered load scales against that share.
    pub fn along_forest_with(
        forest: &RoutingForest,
        demands: &DemandVector,
        packets_per_slot_per_demand_unit: f64,
        mut make: impl FnMut(NodeId, f64) -> ArrivalProcess,
    ) -> Self {
        let flows = forest
            .flow_routes()
            .filter(|(node, _)| demands.demand(*node) > 0)
            .map(|(node, route)| {
                let rate = demands.demand(node) as f64 * packets_per_slot_per_demand_unit;
                Flow::new(node, route, make(node, rate))
            })
            .collect();
        Self { flows }
    }

    /// [`along_forest_with`](Self::along_forest_with) with deterministic
    /// (constant-rate) arrivals — the baseline load pattern the stability
    /// tests pin.
    pub fn along_forest(
        forest: &RoutingForest,
        demands: &DemandVector,
        packets_per_slot_per_demand_unit: f64,
    ) -> Self {
        Self::along_forest_with(forest, demands, packets_per_slot_per_demand_unit, |_, r| {
            ArrivalProcess::deterministic(r)
        })
    }

    /// One single-hop flow per link — the pattern for arbitrary link sets
    /// like the heavy-demand bench instance, where every link is its own
    /// traffic sink.
    pub fn single_hop(link_arrivals: impl IntoIterator<Item = (Link, ArrivalProcess)>) -> Self {
        let flows = link_arrivals
            .into_iter()
            .map(|(link, arrival)| Flow::new(link.head, vec![link], arrival))
            .collect();
        Self { flows }
    }

    /// The flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the set carries no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Long-run mean packets per slot offered to `link`: the sum of mean
    /// rates of every flow whose route traverses it.
    pub fn offered_on(&self, link: Link) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.route.contains(&link))
            .map(|f| f.arrival.mean_rate())
            .sum()
    }

    /// Aggregate injection rate over all flows, in packets per slot.
    pub(crate) fn total_offered(&self) -> f64 {
        self.flows.iter().map(|f| f.arrival.mean_rate()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    #[test]
    fn mean_rates_cover_all_processes() {
        assert_eq!(ArrivalProcess::deterministic(0.25).mean_rate(), 0.25);
        assert_eq!(ArrivalProcess::poisson(0.5).mean_rate(), 0.5);
        // 40% duty cycle at rate 1.0.
        let on_off = ArrivalProcess::on_off(1.0, 40.0, 60.0);
        assert!((on_off.mean_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rates_are_rejected() {
        let _ = ArrivalProcess::deterministic(0.0);
    }

    #[test]
    fn deterministic_sampler_is_an_exact_lattice() {
        let mut s = ArrivalSampler::new(ArrivalProcess::deterministic(0.5), 1);
        assert_eq!(s.next_arrival_slots(), 2.0);
        assert_eq!(s.next_arrival_slots(), 4.0);
        assert_eq!(s.next_arrival_slots(), 6.0);
    }

    #[test]
    fn random_samplers_are_increasing_and_seed_deterministic() {
        for process in [
            ArrivalProcess::poisson(0.3),
            ArrivalProcess::on_off(1.0, 5.0, 5.0),
        ] {
            let mut a = ArrivalSampler::new(process, 9);
            let mut b = ArrivalSampler::new(process, 9);
            let mut c = ArrivalSampler::new(process, 10);
            let mut last = 0.0;
            let mut any_differs = false;
            for _ in 0..200 {
                let t = a.next_arrival_slots();
                assert!(t > last, "arrival times must strictly increase");
                last = t;
                assert_eq!(t, b.next_arrival_slots(), "same seed, same stream");
                if t != c.next_arrival_slots() {
                    any_differs = true;
                }
            }
            assert!(any_differs, "different seeds should diverge");
        }
    }

    #[test]
    fn poisson_mean_rate_is_statistically_plausible() {
        let mut s = ArrivalSampler::new(ArrivalProcess::poisson(0.5), 42);
        let mut t = 0.0;
        for _ in 0..4000 {
            t = s.next_arrival_slots();
        }
        let rate = 4000.0 / t;
        assert!((0.45..0.55).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn on_off_long_run_rate_matches_duty_cycle() {
        let process = ArrivalProcess::on_off(2.0, 30.0, 70.0);
        let mut s = ArrivalSampler::new(process, 7);
        let mut t = 0.0;
        let n = 6000;
        for _ in 0..n {
            t = s.next_arrival_slots();
        }
        let rate = n as f64 / t;
        let expected = process.mean_rate();
        assert!(
            (rate - expected).abs() < 0.15 * expected,
            "measured {rate}, expected {expected}"
        );
    }

    #[test]
    fn flow_validates_route_contiguity() {
        let f = Flow::new(
            NodeId::new(3),
            vec![link(3, 2), link(2, 0)],
            ArrivalProcess::deterministic(0.1),
        );
        assert_eq!(f.hop_count(), 2);
        // A literal can skip `new`'s validation; its queries stay total.
        let empty = Flow { route: vec![], ..f };
        assert_eq!(empty.hop_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn broken_routes_are_rejected() {
        let _ = Flow::new(
            NodeId::new(3),
            vec![link(3, 2), link(1, 0)],
            ArrivalProcess::deterministic(0.1),
        );
    }

    #[test]
    fn offered_load_sums_flows_through_a_link() {
        let set = FlowSet::new(vec![
            Flow::new(
                NodeId::new(3),
                vec![link(3, 2), link(2, 0)],
                ArrivalProcess::deterministic(0.1),
            ),
            Flow::new(
                NodeId::new(2),
                vec![link(2, 0)],
                ArrivalProcess::deterministic(0.25),
            ),
        ]);
        assert_eq!(set.len(), 2);
        assert!((set.offered_on(link(2, 0)) - 0.35).abs() < 1e-12);
        assert!((set.offered_on(link(3, 2)) - 0.1).abs() < 1e-12);
        assert_eq!(set.offered_on(link(5, 4)), 0.0);
        assert!((set.total_offered() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn single_hop_builds_one_flow_per_link() {
        let set = FlowSet::single_hop(vec![
            (link(1, 0), ArrivalProcess::deterministic(0.2)),
            (link(3, 2), ArrivalProcess::poisson(0.1)),
        ]);
        assert_eq!(set.len(), 2);
        assert!(set.flows().iter().all(|f| f.hop_count() == 1));
        assert_eq!(set.flows()[0].route[0].head, NodeId::new(1));
    }
}
