//! The refusal screen: which candidates a slot refuses without being probed.
//!
//! First-fit asks every open run, in order, whether a link fits, and a
//! saturated run answers "no" to nearly everyone for one reason: its binding
//! victim (see the [ledger docs](crate::ledger)) has almost no slack left,
//! and that slack is less than what the candidate's transmitter takes from
//! it at the victim's receiver. That reason does not need the candidate's
//! gain — a *lower bound* on it is enough:
//!
//! * **closed** — the bound that holds for every node of the deployment
//!   ([`RadioEnvironment::weakest_interferer_mw`]) already breaks the victim:
//!   the slot refuses everyone;
//! * **disc** (streamed gains, where gain is a function of distance) — the
//!   bound that holds within a squared radius of the victim's receiver breaks
//!   it: the slot refuses every transmitter inside that disc.
//!
//! Soundness is the binding-victim screen's argument one level up. The
//! verdict contains the conjunct `slack − fx(term) ≥ 0` for each binding
//! victim, `term` being the candidate's received power there. The screen
//! evaluates that very conjunct with `floor ≤ term` in its place, and the
//! fixed-point conversion `fx` is monotone, so `fx(floor) ≤ fx(term)` and a
//! conjunct that is `false` at the floor is `false` at the term: no epsilon
//! is involved. The radius is obtained by inverting the gain profile, which
//! does round, so it is shrunk and then *checked* with the forward
//! expression; an unchecked radius is never used. The two cases where the
//! ledger skips the term (the candidate shares an endpoint with the victim)
//! or has no conjunct to evaluate (a self-link) are refused by the endpoint
//! screen whatever this one says.

use scream_topology::{Link, NodeId, Point2};

use crate::environment::RadioEnvironment;
use crate::ledger::{fx, mw_of, DIRS};

/// Squared radius of a victim that refuses nobody unasked.
const NOBODY_SQ_M2: f64 = f64::NEG_INFINITY;

/// Relative shrink applied to an inverted radius before it is checked.
const RADIUS_SHRINK: f64 = 1e-9;

/// One binding victim as [`SlotLedger`](crate::SlotLedger) caches it: its
/// slack and the node receiving, so that its conjunct is
/// `slack − fx(term) ≥ 0` with `term` received at that node.
pub(crate) type VictimState = (i128, NodeId);

/// The squared radius around the victim's receiver inside which every
/// transmitter (other than the victim's own endpoints) breaks the victim:
/// `+∞` when the victim is closed to the whole deployment, [`NOBODY_SQ_M2`]
/// when no radius could be certified (always, short of closed, on dense
/// gains).
pub(crate) fn refused_radius_sq_m2(env: &RadioEnvironment, (slack, rx): VictimState) -> f64 {
    // The ledger's `victim_ok` with one tentative term.
    let survives = |term_mw: f64| slack.saturating_sub(fx(term_mw)) >= 0;
    if !survives(env.weakest_interferer_mw(rx).get()) {
        return f64::INFINITY;
    }
    if !env.is_streamed() {
        return NOBODY_SQ_M2;
    }
    let (profile, min_tx_power_mw) = (env.gain_profile(), env.min_tx_power_mw());
    let radius_sq_m2 =
        profile.distance_squared_for_gain(mw_of(slack) / min_tx_power_mw) * (1.0 - RADIUS_SHRINK);
    [radius_sq_m2, radius_sq_m2 * 0.999]
        .into_iter()
        .find(|&r_sq_m2| {
            r_sq_m2 >= 0.0 && !survives(min_tx_power_mw * profile.gain_floor_within(r_sq_m2))
        })
        .unwrap_or(NOBODY_SQ_M2)
}

/// What one channel's slot refuses unasked, derived from its two binding
/// victims: per handshake direction, that direction's transmitters near the
/// direction's victim's receiver — heads near the data victim's tail, tails
/// near the ACK victim's head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RefusalScreen {
    /// Either radius is `+∞`: nobody needs to be located.
    closed: bool,
    /// Per direction (data, ACK), the victim's receiver and the squared
    /// radius around it.
    discs: [(Point2, f64); 2],
}

impl RefusalScreen {
    /// The screen of a slot whose binding victims are `victims`, data first
    /// (`None` in an empty slot, which refuses nobody). Only a finite disc
    /// needs its receiver's position, which a closed victim's node (one the
    /// environment may lack) is never asked for.
    pub(crate) fn derive(env: &RadioEnvironment, victims: [Option<VictimState>; 2]) -> Self {
        let discs = victims.map(|victim| {
            let radius_sq_m2 = victim.map_or(NOBODY_SQ_M2, |v| refused_radius_sq_m2(env, v));
            match victim {
                Some((_, rx)) if radius_sq_m2.is_finite() => (env.position(rx), radius_sq_m2),
                _ => (Point2::new(0.0, 0.0), radius_sq_m2),
            }
        });
        Self {
            closed: discs[0].1.max(discs[1].1) == f64::INFINITY,
            discs,
        }
    }

    /// Whether the slot surely refuses `candidate`. `false` for a node id
    /// the environment lacks, like the ledger's occupancy test.
    #[inline]
    pub(crate) fn refuses(&self, env: &RadioEnvironment, candidate: Link) -> bool {
        let n = env.node_count();
        if candidate.head.index() >= n || candidate.tail.index() >= n {
            return false;
        }
        // The squared distances `RadioEnvironment::gain` streams from.
        self.closed
            || DIRS.iter().any(|&dir| {
                let (rx, radius_sq_m2) = self.discs[dir as usize];
                env.position(dir.tx(candidate)).distance_squared(rx) <= radius_sq_m2
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::cap;
    use crate::propagation::PropagationModel;
    use crate::units::Dbm;
    use crate::SlotLedger;
    use scream_topology::{Deployment, NodeInfo, Rect};

    fn link(head: u32, tail: u32) -> Link {
        Link::new(NodeId::new(head), NodeId::new(tail))
    }

    fn streamed(positions: &[Point2], powers_dbm: &[f64], exponent: f64) -> RadioEnvironment {
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let power = Dbm::new(powers_dbm[i % powers_dbm.len()]);
                NodeInfo::new(NodeId::new(i as u32), p, power)
            })
            .collect();
        let d = Deployment::from_nodes(nodes, Rect::square(1.0)).unwrap();
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(exponent))
            .streamed_gains()
            .build(&d)
    }

    /// The screen's radius for the victim (0 → 1) alone in its slot, in the
    /// direction whose receiver is `rx`.
    fn lone_victim_radius_sq_m2(env: &RadioEnvironment, rx: u32) -> f64 {
        let signal_mw = env
            .received_power_mw(NodeId::new(1 - rx), NodeId::new(rx))
            .get();
        let config = env.config();
        let noise_fx = fx(config.noise_floor_mw().get());
        let slack = cap(signal_mw, config.sinr_threshold_linear(), noise_fx);
        refused_radius_sq_m2(env, (slack, NodeId::new(rx)))
    }

    /// ROADMAP 1(b) for this bound: candidates whose transmitter sits at
    /// `d² = r² · (1 ± 2⁻ᵏ)` from the victim's receiver, down to the last
    /// bit of `r²`, for every `GainKind` and both handshake directions. None
    /// the screen refuses may pass `can_add`; at `2⁻²⁰` the inner ones must be
    /// refused and the outer ones must be neither refused nor rejected, so
    /// the disc is tight as well as sound.
    #[test]
    fn ring_candidates_on_either_side_of_the_radius() {
        let hop_m = 10.0;
        for exponent in [2.0, 3.0, 4.0, 2.7] {
            // The victim is (0 → 1): data received at node 1 (the origin),
            // ACKs at node 0. Two far nodes keep the deployment wider than
            // any ring, so neither direction is closed.
            let base = [
                Point2::new(-hop_m, 0.0),
                Point2::new(0.0, 0.0),
                Point2::new(-1e6, -1e6),
                Point2::new(1e6, 1e6),
            ];
            for data in [true, false] {
                let rx = u32::from(data);
                let center = base[rx as usize];
                // Candidates point away from the victim, so only the ringed
                // transmitter is anywhere near it.
                let away = if data { 1.0 } else { -1.0 };
                let radius_sq_m2 = lone_victim_radius_sq_m2(&streamed(&base, &[0.0], exponent), rx);
                assert!(
                    radius_sq_m2.is_finite() && radius_sq_m2 > hop_m * hop_m,
                    "α = {exponent}: no disc ({radius_sq_m2})"
                );

                let mut positions = base.to_vec();
                let mut rings = Vec::new();
                for k in 20..=50 {
                    for sign in [-1.0, 1.0] {
                        for angle in [-1.0f64, -0.5, 0.0, 0.5, 1.0] {
                            let d_m = (radius_sq_m2 * (1.0 + sign * 0.5f64.powi(k))).sqrt();
                            let (sin, cos) = angle.sin_cos();
                            let on_ring =
                                Point2::new(center.x + away * d_m * cos, center.y + d_m * sin);
                            let partner = Point2::new(on_ring.x + away * 2.0, on_ring.y);
                            rings.push((k, sign, positions.len() as u32));
                            positions.extend([on_ring, partner]);
                        }
                    }
                }
                let env = streamed(&positions, &[0.0], exponent);
                assert_eq!(lone_victim_radius_sq_m2(&env, rx), radius_sq_m2);
                let mut ledger = SlotLedger::new(&env);
                ledger.assign(link(0, 1));
                for (k, sign, node) in rings {
                    // The ringed node transmits in the victim's direction:
                    // as the head of a data victim's candidate, the tail of
                    // an ACK victim's.
                    let candidate = if data {
                        link(node, node + 1)
                    } else {
                        link(node + 1, node)
                    };
                    let what = format!("α = {exponent}, data = {data}, k = {k}, sign = {sign}");
                    let refused = ledger.surely_refuses(candidate);
                    let admitted = ledger.can_add(candidate);
                    assert!(!(refused && admitted), "{what}: refused a link that fits");
                    if k == 20 {
                        assert_eq!(refused, sign < 0.0, "{what}");
                        assert_eq!(admitted, sign > 0.0, "{what}");
                    }
                }
            }
        }
    }

    /// The closed test's own boundary, which no drawn instance lands on: a
    /// victim whose slack is exactly the floor's term still admits the node
    /// whose term is the floor (on dense gains the floor is some node's exact
    /// term), so it must not be closed; one unit less slack and it must.
    #[test]
    fn a_victim_exactly_at_beta_under_the_floor_is_not_closed() {
        let positions = [
            Point2::new(0.0, 0.0),
            Point2::new(30.0, 0.0),
            Point2::new(90.0, 0.0),
        ];
        let d = Deployment::from_positions(&positions, 0.0, Rect::square(100.0)).unwrap();
        let env = RadioEnvironment::builder().build(&d);
        let rx = NodeId::new(1);
        let floor_mw = env.weakest_interferer_mw(rx).get();
        assert_eq!(floor_mw, env.received_power_mw(NodeId::new(2), rx).get());
        let radius_at = |slack| refused_radius_sq_m2(&env, (slack, rx));
        assert_eq!(radius_at(fx(floor_mw)), NOBODY_SQ_M2);
        assert_eq!(radius_at(fx(floor_mw) - 1), f64::INFINITY);
    }

    /// Every ordered pair of the environment's nodes plus two ids it lacks:
    /// a `true` must be a known pair that `can_add` rejects.
    fn assert_sound_for_every_pair(ledger: &SlotLedger<'_>, env: &RadioEnvironment) -> usize {
        let n = env.node_count() as u32;
        let mut refused = 0;
        for head in 0..n + 2 {
            for tail in 0..n + 2 {
                let candidate = link(head, tail);
                if ledger.surely_refuses(candidate) {
                    refused += 1;
                    assert!(head < n && tail < n, "refused unknown {candidate}");
                    assert!(
                        !ledger.can_add(candidate),
                        "refused {candidate}, which fits"
                    );
                }
            }
        }
        refused
    }

    #[test]
    fn hostile_environments_get_an_answer_not_a_panic() {
        // No environment has zero nodes: the deployment is the typed refusal.
        assert!(Deployment::from_positions(&[], 0.0, Rect::square(1.0)).is_err());

        let at = |x: f64, y: f64| Point2::new(x, y);
        let dense = |positions: &[Point2]| {
            let d = Deployment::from_positions(positions, 0.0, Rect::square(1.0)).unwrap();
            RadioEnvironment::builder().build(&d)
        };
        // One node (only a force-assigned self-link can occupy the slot), two
        // nodes (every candidate shares an endpoint), both gain modes.
        for positions in [vec![at(0.0, 0.0)], vec![at(0.0, 0.0), at(30.0, 0.0)]] {
            for env in [streamed(&positions, &[0.0], 3.0), dense(&positions)] {
                let last = positions.len() as u32 - 1;
                assert_eq!(env.weakest_interferer_mw(NodeId::new(9)).get(), 0.0);
                let mut ledger = SlotLedger::new(&env);
                assert_eq!(assert_sound_for_every_pair(&ledger, &env), 0, "empty slot");
                ledger.assign(link(0, last));
                assert_sound_for_every_pair(&ledger, &env);
                ledger.clear();
                assert_eq!(
                    assert_sound_for_every_pair(&ledger, &env),
                    0,
                    "cleared slot"
                );
            }
        }

        // Two co-located nodes (d² = 0, inside the reference distance) next
        // to the victim, a mute node (0 mW makes every floor 0), and both at
        // once; all inside one cutoff disc, so `new` opens an exact ledger.
        let crowd = [
            at(0.0, 0.0),
            at(30.0, 0.0),
            at(30.0, 0.0),
            at(30.0, 40.0),
            at(400.0, 0.0),
            at(430.0, 0.0),
            at(800.0, 300.0),
            at(830.0, 300.0),
        ];
        let mute = f64::NEG_INFINITY;
        for powers_dbm in [&[0.0][..], &[0.0, 0.0, 0.0, mute], &[0.0, 3.0, -3.0]] {
            for exponent in [3.0, 2.7] {
                let env = streamed(&crowd, powers_dbm, exponent);
                let mut ledger = SlotLedger::new(&env);
                assert!(!ledger.is_pruned());
                let mut refused = 0;
                for l in [link(0, 1), link(4, 5), link(6, 7)] {
                    ledger.assign(l);
                    refused += assert_sound_for_every_pair(&ledger, &env);
                }
                if !powers_dbm.contains(&mute) {
                    assert!(
                        refused > 0,
                        "{powers_dbm:?}: the co-located pair was let through"
                    );
                }
            }
        }
    }
}
