//! Radio propagation models.
//!
//! The paper's simulations use a log-normal propagation model with path-loss
//! exponent 3 (Section VI-A); its analysis assumes a deterministic
//! log-distance model (Section IV-B, footnote 2). Both are provided here:
//! [`PropagationModel`] captures the deterministic distance-dependent loss,
//! and [`ShadowingField`] adds a reproducible, symmetric per-link log-normal
//! shadowing term on top of it.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::units::{Db, Meters};

/// Deterministic (distance-dependent) part of the path loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PropagationModel {
    /// Path-loss exponent `α` (2 = free space, 3 = the paper's setting,
    /// 3.5–4 = dense urban).
    exponent: f64,
}

impl PropagationModel {
    /// Reference loss at 1 m for a 2.4 GHz ISM-band radio, in dB
    /// (free-space loss at 1 m is ≈ 40 dB).
    const REFERENCE_LOSS_DB: f64 = 40.0;

    /// Distance at or below which the reference loss applies unchanged, in
    /// meters.
    const REFERENCE_DISTANCE_M: f64 = 1.0;

    /// Log-distance path loss with the given exponent and the 2.4 GHz
    /// reference loss.
    ///
    /// # Panics
    ///
    /// Panics if the exponent is not in `(1, 10]` — the physical model
    /// analysis (and the approximation bound of Theorem 4) requires `α > 2`,
    /// but exponents slightly below 2 are allowed for experimentation.
    pub fn log_distance(exponent: f64) -> Self {
        assert!(
            exponent > 1.0 && exponent <= 10.0,
            "path-loss exponent must be in (1, 10], got {exponent}"
        );
        Self { exponent }
    }

    /// The paper's simulation setting: log-distance with exponent 3 (the
    /// log-normal shadowing component is added separately through
    /// [`ShadowingField`]).
    pub(crate) fn paper_default() -> Self {
        Self::log_distance(3.0)
    }

    /// Path loss over `distance`. Distances at or below the reference
    /// distance return the reference loss.
    pub fn path_loss_db(&self, distance: Meters) -> Db {
        let distance_m = distance.get();
        if distance_m <= Self::REFERENCE_DISTANCE_M {
            return Db::new(Self::REFERENCE_LOSS_DB);
        }
        Db::new(Self::REFERENCE_LOSS_DB + 10.0 * self.exponent * distance_m.log10())
    }

    /// Linear power gain (received power / transmitted power) over the given
    /// distance. Always in `(0, 1]`. The reference the tests hold
    /// [`GainProfile`] to.
    #[cfg(test)]
    pub(crate) fn gain(&self, distance: Meters) -> f64 {
        Db::new(-self.path_loss_db(distance).get()).to_linear()
    }

    /// The distance at which the path loss reaches `loss` — the inverse of
    /// [`path_loss_db`](Self::path_loss_db). Used to derive communication and
    /// carrier-sense ranges from power budgets.
    pub(crate) fn distance_for_loss_db(&self, loss: Db) -> Meters {
        let loss_db = loss.get();
        if loss_db <= Self::REFERENCE_LOSS_DB {
            return Meters::new(Self::REFERENCE_DISTANCE_M);
        }
        Meters::new(10f64.powf((loss_db - Self::REFERENCE_LOSS_DB) / (10.0 * self.exponent)))
    }

    /// Precomputes a [`GainProfile`] evaluating this model's linear gain
    /// directly from *squared* distances — the form hot paths have at hand
    /// after a [`Point2::distance_squared`](scream_topology::Point2) — with a
    /// closed form for the paper's α = 3 that avoids the `log10`/`powf`
    /// round-trip of the path loss in dB.
    pub(crate) fn gain_profile(&self) -> GainProfile {
        GainProfile::from_model(self)
    }
}

/// A precomputed evaluator of a [`PropagationModel`]'s linear gain as a
/// function of squared distance.
///
/// For a log-distance model, `gain(d) = g₀ · d^{-α} = g₀ · (d²)^{-α/2}`
/// beyond the 1 m reference distance, which for the paper's `α = 3` needs
/// one multiplication, one division and one `sqrt` per evaluation; any
/// other exponent takes one `powf`.
/// This is what lets a streamed (matrix-free)
/// [`RadioEnvironment`](crate::RadioEnvironment) recompute gains on the fly
/// at millions of pairs per second.
///
/// Values agree with the linear form of
/// [`path_loss_db`](PropagationModel::path_loss_db) up to floating-point
/// rearrangement (≲ 1 ulp relative); a streamed environment uses *only* this
/// evaluator, so its feasibility verdicts are internally consistent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct GainProfile {
    /// `g₀`, the gain at or below the reference distance: gain is
    /// `g₀ · d^{-α}` beyond it.
    ref_gain: f64,
    /// Exponent dispatch: the closed form for `α = 3`, `powf` otherwise.
    kind: GainKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum GainKind {
    /// `α = 3`: `g₀ / (d² · √d²)`.
    Cubic,
    /// Any other exponent: `g₀ · (d²)^{-α/2}`.
    General {
        /// Half the path-loss exponent.
        half_exponent: f64,
    },
}

/// The squared reference distance, in m².
const REFERENCE_DISTANCE_SQ_M2: f64 =
    PropagationModel::REFERENCE_DISTANCE_M * PropagationModel::REFERENCE_DISTANCE_M;

impl GainProfile {
    /// Builds the evaluator for `model`.
    pub(crate) fn from_model(model: &PropagationModel) -> Self {
        let kind = if model.exponent == 3.0 {
            GainKind::Cubic
        } else {
            GainKind::General {
                half_exponent: model.exponent / 2.0,
            }
        };
        Self {
            ref_gain: 10f64.powf(-PropagationModel::REFERENCE_LOSS_DB / 10.0),
            kind,
        }
    }

    /// Linear gain at squared distance `d2` (m²). Always in `(0, 1]`.
    #[inline]
    pub(crate) fn gain_from_distance_squared(&self, d2: f64) -> f64 {
        if d2 <= REFERENCE_DISTANCE_SQ_M2 {
            return self.ref_gain;
        }
        match self.kind {
            GainKind::Cubic => self.ref_gain / (d2 * d2.sqrt()),
            GainKind::General { half_exponent } => self.ref_gain * d2.powf(-half_exponent),
        }
    }

    /// The squared distance (m²) at which the gain falls to `gain` — the
    /// inverse of [`gain_from_distance_squared`](Self::gain_from_distance_squared)
    /// up to floating-point rounding, clamped to the squared reference
    /// distance for gains the profile never exceeds. Callers that need a
    /// guarantee evaluate the forward function at the result.
    pub(crate) fn distance_squared_for_gain(&self, gain: f64) -> f64 {
        if gain >= self.ref_gain {
            return REFERENCE_DISTANCE_SQ_M2;
        }
        let half_exponent = match self.kind {
            GainKind::Cubic => 1.5,
            GainKind::General { half_exponent } => half_exponent,
        };
        (self.ref_gain / gain).powf(1.0 / half_exponent)
    }

    /// A lower bound on [`gain_from_distance_squared`](Self::gain_from_distance_squared)
    /// over every squared distance up to `d2`. The closed form is built from
    /// IEEE `×`, `/` and `sqrt`, which are monotone, so its own value at `d2`
    /// (capped by the plateau inside the reference distance) is that bound;
    /// `powf` promises < 1 ulp of error but not monotonicity, so the general
    /// kind gives four ulps away.
    pub(crate) fn gain_floor_within(&self, d2: f64) -> f64 {
        let at_d2 = self.gain_from_distance_squared(d2).min(self.ref_gain);
        match self.kind {
            GainKind::Cubic => at_d2,
            GainKind::General { .. } => at_d2 * (1.0 - 4.0 * f64::EPSILON),
        }
    }
}

/// A reproducible, symmetric per-node-pair log-normal shadowing field.
///
/// Shadowing in the log-normal model is a zero-mean Gaussian random variable
/// (in dB) added to the deterministic path loss. Real shadowing is caused by
/// obstacles between a *pair* of positions, so the field is symmetric
/// (`shadow(u, v) == shadow(v, u)`) and fixed for the lifetime of the
/// environment: it models terrain, not fast fading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowingField {
    node_count: usize,
    /// Upper-triangular matrix of shadowing values in dB, row-major over
    /// pairs `(i, j)` with `i < j`.
    values_db: Vec<f64>,
}

impl ShadowingField {
    /// A field with zero variance (no shadowing) over `node_count` nodes.
    pub fn disabled(node_count: usize) -> Self {
        Self {
            node_count,
            values_db: Vec::new(),
        }
    }

    /// Generates a field with standard deviation `sigma` over `node_count`
    /// nodes, reproducibly from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn generate(node_count: usize, sigma: Db, seed: u64) -> Self {
        let sigma_db = sigma.get();
        assert!(
            sigma_db.is_finite() && sigma_db >= 0.0,
            "shadowing sigma must be non-negative, got {sigma_db}"
        );
        if sigma_db == 0.0 || node_count < 2 {
            return Self::disabled(node_count);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pairs = node_count * (node_count - 1) / 2;
        let values_db = (0..pairs)
            .map(|_| sigma_db * standard_normal(&mut rng))
            .collect();
        Self {
            node_count,
            values_db,
        }
    }

    /// Shadowing offset between nodes `i` and `j` (symmetric; zero on the
    /// diagonal and when shadowing is disabled).
    pub fn shadow_db(&self, i: usize, j: usize) -> Db {
        if self.values_db.is_empty() || i == j {
            return Db::new(0.0);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        debug_assert!(b < self.node_count);
        // Index of (a, b), a < b, in the upper-triangular packing.
        let idx = a * self.node_count - a * (a + 1) / 2 + (b - a - 1);
        Db::new(self.values_db[idx])
    }
}

/// Draws a standard normal sample via the Box–Muller transform. Implemented
/// locally to stay within the approved dependency set (`rand` provides
/// uniform sampling but the normal distribution lives in `rand_distr`).
/// `u1 ≥ f64::MIN_POSITIVE` keeps `ln u1` finite, so every draw is finite.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_grows_with_distance_and_exponent() {
        let m2 = PropagationModel::log_distance(2.0);
        let m3 = PropagationModel::log_distance(3.0);
        let (near, far) = (Meters::new(100.0), Meters::new(200.0));
        assert!(m2.path_loss_db(near) < m2.path_loss_db(far));
        assert!(m3.path_loss_db(near) > m2.path_loss_db(near));
    }

    #[test]
    fn path_loss_at_reference_distance_is_reference_loss() {
        let m = PropagationModel::paper_default();
        for d in [1.0, 0.1] {
            assert_eq!(
                m.path_loss_db(Meters::new(d)).get(),
                PropagationModel::REFERENCE_LOSS_DB
            );
        }
    }

    #[test]
    fn log_distance_slope_is_10_alpha_per_decade() {
        let m = PropagationModel::log_distance(3.0);
        let slope = m.path_loss_db(Meters::new(1000.0)) - m.path_loss_db(Meters::new(100.0));
        assert!((slope.get() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn gain_is_inverse_of_path_loss() {
        let m = PropagationModel::paper_default();
        let d = Meters::new(123.0);
        let gain = m.gain(d);
        assert!((10.0 * gain.log10() + m.path_loss_db(d).get()).abs() < 1e-9);
        assert!(gain > 0.0 && gain <= 1.0);
    }

    #[test]
    fn distance_for_loss_inverts_path_loss() {
        let m = PropagationModel::log_distance(3.0);
        for d in [5.0, 50.0, 500.0] {
            let loss = m.path_loss_db(Meters::new(d));
            assert!((m.distance_for_loss_db(loss).get() - d).abs() / d < 1e-9);
        }
        assert_eq!(m.distance_for_loss_db(Db::new(0.0)).get(), 1.0);
    }

    #[test]
    fn the_default_model_is_the_papers_exponent_three() {
        assert_eq!(PropagationModel::paper_default().exponent, 3.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_unphysical_exponent() {
        let _ = PropagationModel::log_distance(0.5);
    }

    #[test]
    fn gain_profile_matches_gain_for_all_exponent_paths() {
        // Covers both GainKind arms: 3 (the paper's closed form), and 2, 4
        // and a non-integer exponent through `powf`.
        for exponent in [2.0, 3.0, 4.0, 2.7] {
            let m = PropagationModel::log_distance(exponent);
            let p = m.gain_profile();
            for d in [0.5, 1.0, 1.5, 10.0, 123.0, 5000.0, 250_000.0] {
                let exact = m.gain(Meters::new(d));
                let fast = p.gain_from_distance_squared(d * d);
                assert!(
                    (fast - exact).abs() <= exact * 1e-12,
                    "α={exponent}, d={d}: profile {fast} vs gain {exact}"
                );
            }
        }
    }

    #[test]
    fn distance_for_gain_inverts_the_profile_and_the_floor_stays_below_it() {
        for exponent in [2.0, 3.0, 4.0, 2.7] {
            let p = PropagationModel::log_distance(exponent).gain_profile();
            for d in [1.5, 10.0, 123.0, 5000.0, 250_000.0] {
                let d2 = d * d;
                let gain = p.gain_from_distance_squared(d2);
                let back = p.distance_squared_for_gain(gain);
                assert!(
                    (back - d2).abs() <= d2 * 1e-12,
                    "α={exponent}, d={d}: {back}"
                );
                let floor = p.gain_floor_within(d2);
                assert!(floor <= gain && floor >= gain * (1.0 - 1e-15));
                for nearer in [0.0, 0.5, d2 / 2.0, d2 * (1.0 - f64::EPSILON)] {
                    assert!(floor <= p.gain_from_distance_squared(nearer));
                }
            }
            // No distance yields more than the plateau inside the reference.
            assert_eq!(p.distance_squared_for_gain(1.0), 1.0);
            assert_eq!(p.distance_squared_for_gain(f64::INFINITY), 1.0);
        }
    }

    #[test]
    fn gain_profile_is_monotone_nonincreasing_in_distance() {
        let p = PropagationModel::paper_default().gain_profile();
        let mut previous = f64::INFINITY;
        for d in [0.1, 1.0, 2.0, 10.0, 100.0, 1e4, 1e6] {
            let g = p.gain_from_distance_squared(d * d);
            assert!(g <= previous && g > 0.0);
            previous = g;
        }
    }

    #[test]
    fn shadowing_is_symmetric_and_reproducible() {
        let f1 = ShadowingField::generate(20, Db::new(6.0), 77);
        let f2 = ShadowingField::generate(20, Db::new(6.0), 77);
        let f3 = ShadowingField::generate(20, Db::new(6.0), 78);
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(f1.shadow_db(i, j), f1.shadow_db(j, i));
            }
            assert_eq!(f1.shadow_db(i, i).get(), 0.0);
        }
    }

    #[test]
    fn disabled_shadowing_is_identically_zero() {
        let f = ShadowingField::disabled(10);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(f.shadow_db(i, j).get(), 0.0);
            }
        }
        let f0 = ShadowingField::generate(10, Db::new(0.0), 3);
        assert_eq!(f0, ShadowingField::disabled(10));
    }

    #[test]
    fn shadowing_samples_have_roughly_the_requested_spread() {
        let sigma = 8.0;
        let f = ShadowingField::generate(80, Db::new(sigma), 5);
        let mut values = Vec::new();
        for i in 0..80 {
            for j in (i + 1)..80 {
                values.push(f.shadow_db(i, j).get());
            }
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 1.0, "mean {mean} should be near zero");
        assert!(
            (var.sqrt() - sigma).abs() < 1.0,
            "std {} should be near {sigma}",
            var.sqrt()
        );
    }

    #[test]
    fn shadow_indexing_covers_all_pairs_distinctly() {
        // Every pair must map to a distinct entry: perturbing one pair's value
        // must not affect any other pair.
        let n = 12;
        let f = ShadowingField::generate(n, Db::new(4.0), 9);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let bits = f.shadow_db(i, j).get().to_bits();
                seen.insert(bits);
            }
        }
        // With continuous samples, collisions are (essentially) impossible, so
        // the number of distinct values must equal the number of pairs.
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn standard_normal_is_standardish() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
