//! The radio environment: per-pair channel gains, received powers and the
//! two graphs the paper defines pair by pair — the communication graph
//! (Section II) and the sensitivity graph `G_S` (Definition 1), each built
//! by one scan over the node pairs.
//!
//! [`RadioEnvironment`] is the single source of physical-layer truth shared
//! by the centralized scheduler, the distributed protocols and the analysis
//! code. The physical interference model of Section II, with the data/ACK
//! sub-slot variation, is evaluated over its received powers by the
//! [interference ledger](crate::ledger) — the one SINR verdict in the
//! workspace: a packet on link `(u, v)` scheduled concurrently with links
//! `(x_i, y_i)` is received correctly iff
//!
//! ```text
//!  P_v(u) / (N + Σ_i P_v(x_i))  ≥ β        (data sub-slot)
//!  P_u(v) / (N + Σ_i P_u(y_i))  ≥ β        (ACK sub-slot)
//! ```

use serde::{Deserialize, Serialize};

use scream_topology::{Deployment, Graph, GraphKind, NodeId, Point2};

use crate::ledger::fx;
use crate::propagation::{GainProfile, PropagationModel, ShadowingField};
use crate::radio::RadioConfig;
use crate::spatial::bounding_box_m;
use crate::units::{Db, Meters, Mw};

/// Immutable physical-layer state of a deployed mesh: per-pair channel
/// gains (dense or streamed), per-node transmit powers and the radio
/// configuration.
///
/// Two gain representations are supported:
///
/// * **dense** (the default): an n×n gain matrix precomputed at build time,
///   O(1) lookup, supports log-normal shadowing;
/// * **streamed** ([`RadioEnvironmentBuilder::streamed_gains`]): no matrix —
///   gains are recomputed on demand from the struct-of-arrays node positions
///   through a precomputed squared-distance gain evaluator, O(n) memory
///   instead of O(n²).
///   This is what makes 10⁵–10⁶-link instances buildable; it requires
///   shadowing to be disabled (a shadowing field is itself O(n²) state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioEnvironment {
    node_count: usize,
    /// Linear channel gain `g[i][j]` from transmitter `i` to receiver `j`
    /// (row-major `i * n + j`). Symmetric because path loss and shadowing are
    /// symmetric, but stored densely for O(1) lookup. Empty in streamed mode.
    gains: Vec<f64>,
    /// Per-node transmit power in milliwatts.
    tx_power_mw: Vec<f64>,
    /// Node x coordinates in meters (struct-of-arrays with `ys`).
    xs: Vec<f64>,
    /// Node y coordinates in meters.
    ys: Vec<f64>,
    /// Maximum per-node transmit power, in milliwatts (0 with no nodes).
    max_tx_power_mw: f64,
    /// Minimum per-node transmit power, in milliwatts (+∞ with no nodes).
    min_tx_power_mw: f64,
    /// Dense gains only: per receiver, the least `received_power_mw(tx, rx)`
    /// over every other node `tx` (+∞ for a lone node) — what
    /// [`weakest_interferer_mw`](Self::weakest_interferer_mw) answers with.
    /// Empty in streamed mode.
    weakest_rx_mw: Vec<f64>,
    /// Bounding box `[min_x, max_x, min_y, max_y]` of the node positions, in
    /// meters (`min` = +∞ and `max` = −∞ with no nodes), computed once so
    /// that opening a pruned slot ledger does not re-scan every position.
    pub(crate) bounding_box_m: [f64; 4],
    /// Maximum shadowing *gain boost* baked into `gains`, in dB: the
    /// magnitude of the most negative shadowing sample (0 when shadowing is
    /// disabled or streamed). Folded into the conservative far-field bound
    /// so spatial pruning stays sound under shadowing.
    max_shadow_db: f64,
    /// Precomputed squared-distance gain evaluator for the propagation model.
    gain_profile: GainProfile,
    config: RadioConfig,
    propagation: PropagationModel,
}

/// Far-field pruning parameters derived from an environment: beyond
/// `cutoff_m`, any single transmitter's received power is provably at most
/// `unit_mw` — a fixed fraction of the noise floor — so interference sums may
/// replace far transmitters with `count × unit_mw` without ever flipping a
/// feasibility verdict the exact sum would give (see the ledger module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FarField {
    /// The noise-floor cutoff radius.
    pub(crate) cutoff_m: Meters,
    /// `cutoff_m²`, in m², for squared-distance comparisons on hot paths.
    pub(crate) cutoff_sq_m2: f64,
    /// Conservative per-transmitter received-power bound at or beyond the
    /// cutoff (includes the maximum transmit power, the maximum shadowing
    /// gain boost and a floating-point slop factor).
    pub(crate) unit_mw: Mw,
}

/// Per-interferer far-field bound as a fraction of the noise floor. At this
/// level even thousands of aggregated far transmitters perturb an
/// interference sum by well under the margins real verdicts are decided by,
/// and the conservative screens in the ledger fall back to the exact sum
/// whenever a verdict could conceivably be that close.
const FAR_FIELD_NOISE_FRACTION: f64 = 1e-4;

impl RadioEnvironment {
    /// Starts building an environment.
    pub fn builder() -> RadioEnvironmentBuilder {
        RadioEnvironmentBuilder::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The radio configuration in force.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Number of orthogonal channels the configuration provides, at least
    /// one: `RadioConfig::channel_count` is a public field, so a literal can
    /// carry the zero `with_channel_count` refuses, and every consumer reads
    /// the count here. Interference (and hence every SINR feasibility
    /// question) only accrues among links that share a channel; the gain
    /// matrix itself is channel-independent.
    pub fn channel_count(&self) -> usize {
        self.config.channel_count.max(1)
    }

    /// A copy of this environment with the shadowing field redrawn at
    /// `sigma` from `seed` — the fault-injection hook for time-varying
    /// fades. Positions, transmit powers, the propagation model and the
    /// radio configuration are unchanged; only the per-pair gains (and the
    /// conservative `max_shadow_db` pruning bound derived from them) are
    /// regenerated, exactly as [`RadioEnvironmentBuilder::build`] would have
    /// with this shadowing draw. Deterministic: the same `(sigma, seed)`
    /// always produces the same environment.
    ///
    /// `None` for a streamed-gain environment: streaming recomputes gains on
    /// demand from positions alone and cannot carry an O(n²) shadowing field.
    pub fn refaded(&self, sigma: Db, seed: u64) -> Option<RadioEnvironment> {
        if self.is_streamed() {
            return None;
        }
        let dense = dense_gains(
            &self.xs,
            &self.ys,
            &self.tx_power_mw,
            &self.propagation,
            sigma,
            seed,
        );
        // Field by field: `..self.clone()` would copy the n² matrix this
        // call exists to replace.
        Some(RadioEnvironment {
            node_count: self.node_count,
            gains: dense.gains,
            tx_power_mw: self.tx_power_mw.clone(),
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            max_tx_power_mw: self.max_tx_power_mw,
            min_tx_power_mw: self.min_tx_power_mw,
            weakest_rx_mw: dense.weakest_rx_mw,
            bounding_box_m: self.bounding_box_m,
            max_shadow_db: dense.max_shadow_db,
            gain_profile: self.gain_profile,
            config: self.config,
            propagation: self.propagation,
        })
    }

    /// Maximum per-node transmit power (0 mW with no nodes).
    pub(crate) fn max_tx_power_mw(&self) -> Mw {
        Mw::new(self.max_tx_power_mw)
    }

    /// Maximum shadowing gain boost baked into the gain matrix (0 dB when
    /// shadowing is disabled or gains are streamed).
    pub(crate) fn max_shadow_db(&self) -> Db {
        Db::new(self.max_shadow_db)
    }

    /// Minimum per-node transmit power in milliwatts (+∞ with no nodes).
    pub(crate) fn min_tx_power_mw(&self) -> f64 {
        self.min_tx_power_mw
    }

    /// A lower bound on
    /// [`received_power_mw(tx, rx)`](Self::received_power_mw) over every node
    /// `tx ≠ rx`: the least interference any transmitter of the deployment
    /// adds at `rx`. Dense environments return the exact minimum (recorded
    /// while the gain matrix is filled, so shadowing is in it); streamed ones
    /// the weakest transmitter's power at the corner of the bounding box
    /// farthest from `rx`, which no node lies beyond. 0 — a bound on anything
    /// — for an id the environment lacks.
    pub(crate) fn weakest_interferer_mw(&self, rx: NodeId) -> Mw {
        if !self.gains.is_empty() {
            return Mw::new(self.weakest_rx_mw.get(rx.index()).copied().unwrap_or(0.0));
        }
        let (Some(&x), Some(&y)) = (self.xs.get(rx.index()), self.ys.get(rx.index())) else {
            return Mw::new(0.0);
        };
        let [min_x, max_x, min_y, max_y] = self.bounding_box_m;
        let (dx, dy) = ((x - min_x).max(max_x - x), (y - min_y).max(max_y - y));
        Mw::new(self.min_tx_power_mw * self.gain_profile.gain_floor_within(dx * dx + dy * dy))
    }

    /// Position of `node` in meters.
    pub(crate) fn position(&self, node: NodeId) -> Point2 {
        Point2::new(self.xs[node.index()], self.ys[node.index()])
    }

    /// The squared-distance evaluator of the deterministic part of the
    /// propagation model.
    pub(crate) fn gain_profile(&self) -> &GainProfile {
        &self.gain_profile
    }

    /// Whether gains are streamed from node positions on demand instead of
    /// read from a dense matrix.
    pub fn is_streamed(&self) -> bool {
        self.gains.is_empty() && self.node_count > 0
    }

    /// Derives the far-field pruning parameters for this environment: the
    /// cutoff radius beyond which any single transmitter delivers at most
    /// [`FarField::unit_mw`] — a 10⁻⁴ fraction of the noise floor — no matter
    /// its power or shadowing draw.
    pub(crate) fn far_field(&self) -> FarField {
        if self.max_tx_power_mw <= 0.0 {
            // Nothing transmits, so every interferer contributes exactly 0.
            return FarField {
                cutoff_m: Meters::new(0.0),
                cutoff_sq_m2: 0.0,
                unit_mw: Mw::new(0.0),
            };
        }
        let target = self.config.noise_floor_mw() * FAR_FIELD_NOISE_FRACTION;
        let budget = self.max_tx_power_mw().to_dbm() + self.max_shadow_db() - target.to_dbm();
        let cutoff_m = self.propagation.distance_for_loss_db(budget);
        let cutoff_sq_m2 = cutoff_m.get() * cutoff_m.get();
        // Gain is non-increasing in distance, so evaluating the profile *at*
        // the cutoff bounds every transmitter at or beyond it; the slop
        // factor absorbs the floating-point rounding between the profile and
        // the dense matrix's `powf` chain.
        let unit_mw = self.max_tx_power_mw()
            * self.gain_profile.gain_from_distance_squared(cutoff_sq_m2)
            * self.max_shadow_db().to_linear()
            * (1.0 + 1e-6);
        FarField {
            cutoff_m,
            cutoff_sq_m2,
            unit_mw,
        }
    }

    /// Linear channel gain from `tx` to `rx` (1.0 on the diagonal). Dense
    /// environments read the precomputed matrix; streamed environments
    /// evaluate the propagation model on the squared node distance.
    pub(crate) fn gain(&self, tx: NodeId, rx: NodeId) -> f64 {
        if !self.gains.is_empty() {
            return self.gains[tx.index() * self.node_count + rx.index()];
        }
        if tx == rx {
            return 1.0;
        }
        let dx = self.xs[tx.index()] - self.xs[rx.index()];
        let dy = self.ys[tx.index()] - self.ys[rx.index()];
        self.gain_profile
            .gain_from_distance_squared(dx * dx + dy * dy)
    }

    /// Received power at `rx` of a transmission from `tx` (`P_rx(tx)` in
    /// the paper's notation).
    pub(crate) fn received_power_mw(&self, tx: NodeId, rx: NodeId) -> Mw {
        Mw::new(self.received_mw(tx, rx))
    }

    /// [`received_power_mw`](Self::received_power_mw) as the raw milliwatts
    /// the interference kernels sum: NaN when either node is one the
    /// environment lacks, which the ledger reads as a link that cannot
    /// decode and a term that breaks every victim.
    pub(crate) fn received_mw(&self, tx: NodeId, rx: NodeId) -> f64 {
        if tx.index().max(rx.index()) >= self.node_count {
            return f64::NAN;
        }
        self.tx_power_mw[tx.index()] * self.gain(tx, rx)
    }

    /// `[received_mw(a, b), received_mw(b, a)]` in the ledger's fixed point
    /// (`ledger::fx`). A streamed gain is a function of the squared distance,
    /// the same bits both ways (`x − y = −(y − x)` in IEEE arithmetic), so it
    /// is evaluated once.
    #[inline]
    pub(crate) fn received_pair_fx(&self, a: NodeId, b: NodeId) -> [i128; 2] {
        if !self.gains.is_empty() || a.index().max(b.index()) >= self.node_count {
            return [(a, b), (b, a)].map(|(tx, rx)| fx(self.received_mw(tx, rx)));
        }
        let gain = self.gain(a, b);
        [a, b].map(|tx| fx(self.tx_power_mw[tx.index()] * gain))
    }

    /// Whether `u` and `v` complete a two-way handshake with nothing else on
    /// the air: each reaches the other at β over the noise floor alone. The
    /// edge test of [`communication_graph`](Self::communication_graph).
    fn decodes_alone(&self, u: NodeId, v: NodeId) -> bool {
        let (noise, beta) = (
            self.config.noise_floor_mw(),
            self.config.sinr_threshold_linear(),
        );
        self.received_power_mw(u, v) / noise >= beta && self.received_power_mw(v, u) / noise >= beta
    }

    /// Builds the communication graph `G = (V, E)`: an undirected edge per
    /// node pair whose two-way handshake succeeds without interference, one
    /// pair at a time. Unidirectional links are excluded by construction, as
    /// required by the link-layer-reliability assumption of Section II.
    pub fn communication_graph(&self) -> Graph {
        let mut g = Graph::new(self.node_count, GraphKind::Undirected);
        for i in 0..self.node_count {
            for j in (i + 1)..self.node_count {
                let (u, v) = (NodeId::new(i as u32), NodeId::new(j as u32));
                if self.decodes_alone(u, v) {
                    g.add_edge_unchecked(u, v);
                }
            }
        }
        g
    }

    /// Builds the sensitivity graph `G_S = (V, E_S)` of Definition 1: a
    /// directed edge `(u, v)` whenever `v` detects channel activity when only
    /// `u` transmits — `u`'s power at `v` reaches the carrier-sense threshold.
    pub fn sensitivity_graph(&self) -> Graph {
        let threshold = RadioConfig::CARRIER_SENSE_THRESHOLD_DBM.to_mw();
        let mut g = Graph::new(self.node_count, GraphKind::Directed);
        for i in 0..self.node_count {
            for j in 0..self.node_count {
                let (u, v) = (NodeId::new(i as u32), NodeId::new(j as u32));
                if i != j && self.received_power_mw(u, v) >= threshold {
                    g.add_edge_unchecked(u, v);
                }
            }
        }
        g
    }

    /// The interference diameter `ID(G_S)` of the sensitivity graph
    /// (Definition 2), with `usize::MAX` standing in for infinity when the
    /// sensitivity graph is not strongly connected.
    pub fn interference_diameter(&self) -> usize {
        self.sensitivity_graph().interference_diameter()
    }
}

/// Builder for [`RadioEnvironment`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioEnvironmentBuilder {
    config: RadioConfig,
    propagation: PropagationModel,
    shadowing_sigma_db: f64,
    shadowing_seed: u64,
    stream_gains: bool,
}

impl Default for RadioEnvironmentBuilder {
    fn default() -> Self {
        Self {
            config: RadioConfig::mesh_default(),
            propagation: PropagationModel::paper_default(),
            shadowing_sigma_db: 0.0,
            shadowing_seed: 0,
            stream_gains: false,
        }
    }
}

impl RadioEnvironmentBuilder {
    /// Sets the radio configuration (noise floor, β, carrier-sense threshold,
    /// rates and frame sizes).
    pub fn config(mut self, config: RadioConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the deterministic propagation model.
    pub fn propagation(mut self, model: PropagationModel) -> Self {
        self.propagation = model;
        self
    }

    /// Enables log-normal shadowing with the given standard deviation (dB)
    /// and seed. The paper's simulations use a log-normal model; a σ of
    /// 4–8 dB is typical for outdoor mesh deployments.
    pub fn shadowing(mut self, sigma_db: f64, seed: u64) -> Self {
        self.shadowing_sigma_db = sigma_db;
        self.shadowing_seed = seed;
        self
    }

    /// Switches the build to *streamed* gains: no n×n matrix is materialized
    /// and `RadioEnvironment::gain` evaluates the propagation model's
    /// gain on demand from node squared distances. Memory drops from O(n²)
    /// to O(n), which is what makes 10⁵–10⁶-link instances representable.
    ///
    /// Requires shadowing to stay disabled (σ = 0): a shadowing field is
    /// itself O(n²) state, so [`build`](Self::build) panics otherwise.
    pub fn streamed_gains(mut self) -> Self {
        self.stream_gains = true;
        self
    }

    /// Builds the environment for the given deployment, precomputing the full
    /// gain matrix (or none of it with [`streamed_gains`](Self::streamed_gains)).
    pub fn build(self, deployment: &Deployment) -> RadioEnvironment {
        let n = deployment.len();
        let (xs, ys) = deployment.position_buffers();
        let tx_power_mw: Vec<f64> = deployment
            .nodes()
            .iter()
            .map(|node| node.tx_power_mw().get())
            .collect();
        let dense = if self.stream_gains {
            assert!(
                self.shadowing_sigma_db == 0.0,
                "streamed gains require shadowing to be disabled (σ = 0), got σ = {} dB",
                self.shadowing_sigma_db
            );
            DenseGains::default()
        } else {
            dense_gains(
                &xs,
                &ys,
                &tx_power_mw,
                &self.propagation,
                Db::new(self.shadowing_sigma_db),
                self.shadowing_seed,
            )
        };
        let max_tx_power_mw = tx_power_mw.iter().fold(0.0f64, |m, &p| m.max(p));
        let min_tx_power_mw = tx_power_mw.iter().fold(f64::INFINITY, |m, &p| m.min(p));
        let bounding_box_m = bounding_box_m(&xs, &ys);
        RadioEnvironment {
            node_count: n,
            gains: dense.gains,
            tx_power_mw,
            xs,
            ys,
            max_tx_power_mw,
            min_tx_power_mw,
            weakest_rx_mw: dense.weakest_rx_mw,
            bounding_box_m,
            max_shadow_db: dense.max_shadow_db,
            gain_profile: self.propagation.gain_profile(),
            config: self.config,
            propagation: self.propagation,
        }
    }
}

/// What one pass over the node pairs derives for a dense environment (all
/// empty / zero for a streamed one).
#[derive(Default)]
struct DenseGains {
    /// The `n × n` gain matrix, row-major by transmitter.
    gains: Vec<f64>,
    /// The largest gain boost (in dB) the shadowing draw contains.
    max_shadow_db: f64,
    /// Per receiver, the least received power over every other transmitter.
    weakest_rx_mw: Vec<f64>,
}

/// The dense gains of the nodes at `xs`/`ys` transmitting at `tx_power_mw` —
/// path loss plus one shadowing draw per pair.
fn dense_gains(
    xs: &[f64],
    ys: &[f64],
    tx_power_mw: &[f64],
    propagation: &PropagationModel,
    sigma: Db,
    seed: u64,
) -> DenseGains {
    let n = xs.len();
    let shadowing = ShadowingField::generate(n, sigma, seed);
    let mut gains = vec![1.0; n * n];
    let mut max_shadow_db = 0.0f64;
    let mut weakest_rx_mw = vec![f64::INFINITY; n];
    for i in 0..n {
        let pi = Point2::new(xs[i], ys[i]);
        for j in 0..n {
            if i == j {
                continue;
            }
            let pj = Point2::new(xs[j], ys[j]);
            let dist = pi.distance(pj);
            let shadow_db = shadowing.shadow_db(i, j).get();
            // A negative sample *boosts* the gain; track the largest
            // boost for the conservative far-field bound.
            max_shadow_db = max_shadow_db.max(-shadow_db);
            let loss_db = propagation.path_loss_db(Meters::new(dist)).get() + shadow_db;
            let gain = Db::new(-loss_db).to_linear();
            gains[i * n + j] = gain;
            // The product `received_power_mw(i, j)` evaluates.
            weakest_rx_mw[j] = weakest_rx_mw[j].min(tx_power_mw[i] * gain);
        }
    }
    DenseGains {
        gains,
        max_shadow_db,
        weakest_rx_mw,
    }
}

#[cfg(test)]
impl RadioEnvironment {
    /// This dense environment as if every pair had drawn a `boost` of
    /// shadowing gain — the largest boost the environment carries, on every
    /// pair at once: the far-field bound's worst case, which no random draw
    /// reaches.
    pub(crate) fn boosted_everywhere(mut self, boost: Db) -> Self {
        assert!(!self.is_streamed(), "only a dense matrix carries shadowing");
        let (n, factor) = (self.node_count, boost.to_linear());
        for (at, gain) in self.gains.iter_mut().enumerate() {
            if at / n != at % n {
                *gain *= factor;
            }
        }
        self.weakest_rx_mw = (0..n)
            .map(|rx| {
                (0..n)
                    .filter(|&tx| tx != rx)
                    .map(|tx| self.tx_power_mw[tx] * self.gains[tx * n + rx])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        self.max_shadow_db = boost.get();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{LinkSinrMargin, SlotLedger};
    use crate::units::Dbm;
    use scream_topology::{GridDeployment, Link, Point2, Rect};

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    /// The SINR margins of `links[0]` in a slot filled with `links`.
    fn margins_of_first(e: &RadioEnvironment, links: &[Link]) -> LinkSinrMargin {
        SlotLedger::with_links(e, links).margins()[0]
    }

    fn line_deployment(spacing: f64, count: usize) -> Deployment {
        let positions: Vec<Point2> = (0..count)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        Deployment::from_positions(&positions, 20.0, Rect::square(spacing * count as f64)).unwrap()
    }

    fn env(deployment: &Deployment) -> RadioEnvironment {
        RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .build(deployment)
    }

    #[test]
    fn refading_is_deterministic_and_perturbs_only_the_gains() {
        let d = line_deployment(150.0, 6);
        let base = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(4.0, 7)
            .build(&d);
        let faded = base.refaded(Db::new(4.0), 8).unwrap();
        let faded_again = base.refaded(Db::new(4.0), 8).unwrap();
        assert_eq!(faded, faded_again, "same (sigma, seed) must reproduce");
        assert_ne!(faded, base, "a fresh seed redraws the field");
        assert_eq!((&faded.xs, &faded.ys), (&base.xs, &base.ys));
        assert_eq!(faded.config(), base.config());
        // Redrawing with the builder's own draw reproduces build() exactly.
        let rebuilt = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .shadowing(4.0, 7)
            .build(&d);
        assert_eq!(base.refaded(Db::new(4.0), 7), Some(rebuilt));
        // The per-receiver floor is refilled with the matrix: it is the
        // exact minimum over the faded gains, not the base's.
        assert_ne!(faded.weakest_rx_mw, base.weakest_rx_mw);
        for e in [&base, &faded] {
            for rx in (0..6).map(NodeId::new) {
                let least_mw = (0..6)
                    .map(NodeId::new)
                    .filter(|&tx| tx != rx)
                    .map(|tx| e.received_power_mw(tx, rx).get())
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(e.weakest_interferer_mw(rx).get(), least_mw);
            }
        }
    }

    #[test]
    fn refading_a_streamed_environment_is_none() {
        let d = line_deployment(150.0, 4);
        let streamed = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .streamed_gains()
            .build(&d);
        assert_eq!(streamed.refaded(Db::new(2.0), 1), None);
    }

    #[test]
    fn received_power_decreases_with_distance() {
        let d = line_deployment(100.0, 4);
        let e = env(&d);
        let p1 = e.received_power_mw(NodeId::new(0), NodeId::new(1));
        let p2 = e.received_power_mw(NodeId::new(0), NodeId::new(2));
        let p3 = e.received_power_mw(NodeId::new(0), NodeId::new(3));
        assert!(p1 > p2 && p2 > p3);
    }

    #[test]
    fn gain_matrix_is_symmetric_without_heterogeneous_power() {
        let d = line_deployment(137.0, 5);
        let e = env(&d);
        for i in 0..5 {
            for j in 0..5 {
                let a = e.gain(NodeId::new(i), NodeId::new(j));
                let b = e.gain(NodeId::new(j), NodeId::new(i));
                assert!((a - b).abs() < 1e-18);
            }
        }
    }

    #[test]
    fn sinr_without_interference_is_snr() {
        // A lone link's margins are its two SNRs over β.
        let d = line_deployment(200.0, 2);
        let e = env(&d);
        let margin = margins_of_first(&e, &[link(0, 1)]);
        let snr = |tx: u32, rx: u32| {
            e.received_power_mw(NodeId::new(tx), NodeId::new(rx))
                .to_dbm()
                - e.config().noise_floor_dbm
        };
        let beta = e.config().sinr_threshold_db;
        assert!((margin.data_margin_db - (snr(0, 1) - beta)).get().abs() < 1e-9);
        assert!((margin.ack_margin_db - (snr(1, 0) - beta)).get().abs() < 1e-9);
    }

    #[test]
    fn interference_lowers_sinr() {
        let d = line_deployment(150.0, 4);
        let e = env(&d);
        let clean = margins_of_first(&e, &[link(0, 1)]);
        let jammed = margins_of_first(&e, &[link(0, 1), link(2, 3)]);
        assert!(jammed.data_margin_db < clean.data_margin_db);
        assert!(jammed.ack_margin_db < clean.ack_margin_db);
    }

    #[test]
    fn sender_and_receiver_are_not_their_own_interferers() {
        // (1, 0) transmits from (0, 1)'s own two radios: neither counts as
        // interference to it, in either sub-slot.
        let d = line_deployment(150.0, 3);
        let e = env(&d);
        let with_self = margins_of_first(&e, &[link(0, 1), link(1, 0)]);
        let clean = margins_of_first(&e, &[link(0, 1)]);
        assert_eq!(with_self, clean);
    }

    #[test]
    fn decodable_matches_threshold() {
        let d = line_deployment(100.0, 2);
        let e = env(&d);
        assert!(SlotLedger::new(&e).can_add(link(0, 1)));
        // A node 100 km away is certainly not decodable.
        let far = Deployment::from_positions(
            &[Point2::new(0.0, 0.0), Point2::new(100_000.0, 0.0)],
            20.0,
            Rect::square(100_000.0),
        )
        .unwrap();
        let e_far = env(&far);
        assert!(!SlotLedger::new(&e_far).can_add(link(0, 1)));
    }

    #[test]
    fn handshake_checks_both_directions() {
        let d = line_deployment(150.0, 4);
        let e = env(&d);
        assert!(SlotLedger::new(&e).can_add(link(0, 1)));
        // With a strong interferer right next to the receiver, the data
        // sub-slot fails even though the ACK direction is fine — and one
        // failing direction fails the handshake.
        let slot = SlotLedger::with_links(&e, &[link(0, 1), link(2, 3)]);
        let margin = slot.margins()[0];
        assert!(margin.data_margin_db < Db::new(0.0) && margin.ack_margin_db >= Db::new(0.0));
        assert!(!margin.ok());
        assert!(!slot.all_links_ok());
    }

    #[test]
    fn slot_with_shared_endpoint_is_infeasible() {
        let d = line_deployment(100.0, 3);
        let e = env(&d);
        assert!(!SlotLedger::with_links(&e, &[link(0, 1), link(1, 2)]).slot_feasible());
        assert!(SlotLedger::with_links(&e, &[link(0, 1)]).slot_feasible());
    }

    #[test]
    fn self_links_are_rejected() {
        let d = line_deployment(100.0, 2);
        let e = env(&d);
        assert!(!SlotLedger::with_links(&e, &[link(0, 0)]).slot_feasible());
    }

    #[test]
    fn distant_parallel_links_can_share_a_slot_but_adjacent_ones_may_not() {
        // 8 nodes in a line, 200 m apart. Links (0->1) and (6->7) are 1 km
        // apart and should coexist; links (0->1) and (2->3) are adjacent and
        // the interferer at node 2 is only 200 m from receiver 1.
        let d = line_deployment(200.0, 8);
        let e = env(&d);
        assert!(SlotLedger::with_links(&e, &[link(0, 1), link(6, 7)]).slot_feasible());
        assert!(!SlotLedger::with_links(&e, &[link(0, 1), link(2, 3)]).slot_feasible());
    }

    #[test]
    fn communication_graph_links_are_bidirectional_and_range_limited() {
        let d = GridDeployment::new(4, 4, 200.0).build();
        let e = env(&d);
        let g = e.communication_graph();
        assert_eq!(g.kind(), GraphKind::Undirected);
        assert!(g.is_connected());
        // Nominal range at 20 dBm, alpha 3, beta 10 dB, N -100 dBm:
        // max loss = 110 dB => range = 10^((110-40)/30) ~ 215 m. So lattice
        // neighbors (200 m) are connected but diagonal ones (~283 m) are not.
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(5)));
        // An edge is exactly a link the ledger admits into an empty slot.
        for u in 0..16 {
            for v in (u + 1)..16 {
                assert_eq!(
                    g.has_edge(NodeId::new(u), NodeId::new(v)),
                    SlotLedger::new(&e).can_add(link(u, v)),
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn sensitivity_graph_is_supergraph_of_communication_graph() {
        let d = GridDeployment::new(4, 4, 200.0).build();
        let e = env(&d);
        let comm = e.communication_graph();
        let sens = e.sensitivity_graph();
        for (u, v) in comm.edges() {
            assert!(sens.has_edge(u, v) && sens.has_edge(v, u));
        }
        assert!(sens.edge_count() >= 2 * comm.edge_count());
    }

    #[test]
    fn interference_diameter_shrinks_with_denser_networks() {
        let sparse = GridDeployment::new(6, 6, 200.0).build();
        let dense = GridDeployment::new(6, 6, 60.0).build();
        let id_sparse = env(&sparse).interference_diameter();
        let id_dense = env(&dense).interference_diameter();
        assert!(id_dense <= id_sparse);
        assert!(id_sparse < usize::MAX);
    }

    #[test]
    fn shadowing_changes_gains_reproducibly() {
        let d = GridDeployment::new(3, 3, 150.0).build();
        let base = RadioEnvironment::builder().build(&d);
        let shadowed_a = RadioEnvironment::builder().shadowing(6.0, 1).build(&d);
        let shadowed_b = RadioEnvironment::builder().shadowing(6.0, 1).build(&d);
        let shadowed_c = RadioEnvironment::builder().shadowing(6.0, 2).build(&d);
        assert_eq!(shadowed_a, shadowed_b);
        assert_ne!(shadowed_a, shadowed_c);
        assert_ne!(
            base.gain(NodeId::new(0), NodeId::new(1)),
            shadowed_a.gain(NodeId::new(0), NodeId::new(1))
        );
    }

    #[test]
    fn streamed_gains_match_dense_gains() {
        let d = GridDeployment::new(5, 4, 180.0).build();
        let dense = env(&d);
        let streamed = RadioEnvironment::builder()
            .propagation(PropagationModel::log_distance(3.0))
            .streamed_gains()
            .build(&d);
        assert!(streamed.is_streamed());
        assert!(!dense.is_streamed());
        for i in 0..d.len() as u32 {
            for j in 0..d.len() as u32 {
                let a = dense.gain(NodeId::new(i), NodeId::new(j));
                let b = streamed.gain(NodeId::new(i), NodeId::new(j));
                assert!(
                    (a - b).abs() <= 1e-12 * a.max(b),
                    "gain mismatch at ({i}, {j}): {a} vs {b}"
                );
            }
        }
        assert_eq!(dense.communication_graph(), streamed.communication_graph());
        assert_eq!(dense.sensitivity_graph(), streamed.sensitivity_graph());
    }

    #[test]
    #[should_panic(expected = "streamed gains")]
    fn streamed_gains_reject_shadowing() {
        let d = GridDeployment::new(2, 2, 100.0).build();
        let _ = RadioEnvironment::builder()
            .shadowing(6.0, 1)
            .streamed_gains()
            .build(&d);
    }

    #[test]
    fn far_field_bounds_received_power_beyond_cutoff() {
        // 4x4 grid at 5 km spacing: many pairs sit beyond the ~10 km cutoff
        // the default mesh parameters produce.
        let d = GridDeployment::new(4, 4, 5000.0).build();
        let shadowed = RadioEnvironment::builder().shadowing(8.0, 3).build(&d);
        for (e, expect_beyond) in [(env(&d), true), (shadowed, false)] {
            let ff = e.far_field();
            assert!(ff.cutoff_m.get() > 0.0 && ff.unit_mw.get() > 0.0);
            let cutoff_m = ff.cutoff_m.get();
            assert!((ff.cutoff_sq_m2 - cutoff_m * cutoff_m).abs() <= f64::EPSILON);
            let mut beyond = 0;
            for i in 0..16u32 {
                for j in 0..16u32 {
                    if i == j {
                        continue;
                    }
                    let (u, v) = (NodeId::new(i), NodeId::new(j));
                    if e.position(u).distance_squared(e.position(v)) > ff.cutoff_sq_m2 {
                        beyond += 1;
                        assert!(e.received_power_mw(u, v) <= ff.unit_mw);
                    }
                }
            }
            // The shadowing boost widens the cutoff, possibly past the test
            // grid's diameter, so only the unshadowed run pins coverage.
            assert!(
                beyond > 0 || !expect_beyond,
                "test grid too small to exercise the cutoff"
            );
        }
        // Without shadowing the unit bound is the documented noise fraction
        // (up to the slop factor).
        let e = env(&d);
        let ff = e.far_field();
        assert!(ff.unit_mw <= e.config().noise_floor_mw() * 1.1e-4);
    }

    #[test]
    fn positions_roundtrip_through_environment() {
        let d = GridDeployment::new(3, 2, 75.0).build();
        let e = env(&d);
        let (xs, ys) = (&e.xs, &e.ys);
        assert_eq!(xs.len(), 6);
        for i in 0..6u32 {
            let p = d.position(NodeId::new(i));
            assert_eq!(e.position(NodeId::new(i)), p);
            assert_eq!(xs[i as usize], p.x);
            assert_eq!(ys[i as usize], p.y);
        }
        assert_eq!(e.max_tx_power_mw(), Dbm::new(20.0).to_mw());
    }

    #[test]
    fn heterogeneous_power_breaks_link_symmetry_but_not_gain_symmetry() {
        let positions = [Point2::new(0.0, 0.0), Point2::new(210.0, 0.0)];
        let mut nodes = Vec::new();
        for (i, &p) in positions.iter().enumerate() {
            nodes.push(scream_topology::NodeInfo::new(
                NodeId::new(i as u32),
                p,
                Dbm::new(if i == 0 { 20.0 } else { 0.0 }),
            ));
        }
        let d = Deployment::from_nodes(nodes, Rect::square(250.0)).unwrap();
        let e = env(&d);
        // Node 0 is loud, node 1 is quiet: 0->1 decodable, 1->0 not.
        let margin = margins_of_first(&e, &[link(0, 1)]);
        assert!(margin.data_margin_db >= Db::new(0.0) && margin.ack_margin_db < Db::new(0.0));
        // Hence no bidirectional link, and the communication graph drops it.
        assert!(!SlotLedger::new(&e).can_add(link(0, 1)));
        assert_eq!(e.communication_graph().edge_count(), 0);
    }
}
