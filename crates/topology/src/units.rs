//! Physical units as types: the link-budget algebra, checked by the compiler.
//!
//! The physical model of Section II changes domain at every link budget: β
//! and shadowing are relative decibels ([`Db`]), noise and transmit power are
//! absolute powers in decibel-milliwatts ([`Dbm`]), and the SINR test sums
//! linear powers in milliwatts ([`Mw`]); ranges and cutoffs are lengths
//! ([`Meters`]). Each type carries only the operations that mean something
//! physically, so mixing domains is a type error rather than a silent bug:
//!
//! | expression | result |
//! |------------|--------|
//! | `Dbm ± Db` | `Dbm` (a link budget: power minus loss) |
//! | `Dbm − Dbm` | `Db` (a margin between two absolute powers) |
//! | `Db ± Db`, `−Db`, `Db × f64` | `Db` |
//! | `Mw + Mw`, `Mw += Mw`, `Mw × f64` (a linear gain) | `Mw` |
//! | `Mw / Mw` | `f64` (a ratio: SINR, SNR) |
//!
//! plus comparisons within one type and the conversions [`Dbm::to_mw`],
//! [`Mw::to_dbm`], [`Db::to_linear`] and [`Db::from_linear`]. A value enters
//! through `new` and leaves through `get` at the boundary of code that works
//! on raw `f64` (the interference kernels, squared distances, report
//! statistics).
//!
//! A newtype wraps; it never re-associates arithmetic. Every operator is the
//! one `f64` operation it stands for, with the same operand order, and every
//! method is `#[inline]`, so typed code produces the bit patterns the raw
//! expression would.
//!
//! ```
//! use scream_topology::units::{Db, Dbm};
//!
//! let tx = Dbm::new(20.0);
//! let loss = Db::new(110.0);
//! let rx: Dbm = tx - loss; // absolute − relative → absolute
//! assert_eq!(rx.get(), -90.0);
//! assert!((rx.to_mw().get() - 1e-9).abs() < 1e-21);
//! let snr: Db = rx - Dbm::new(-100.0); // absolute − absolute → relative
//! assert_eq!(snr.get(), 10.0);
//! ```

use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Defines a `#[repr(transparent)]` unit over `f64` with `new` / `get` and
/// comparisons against the same unit only.
macro_rules! unit {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in this unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw value in this unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.0.partial_cmp(&other.0)
            }
            #[inline]
            fn lt(&self, other: &Self) -> bool {
                self.0 < other.0
            }
            #[inline]
            fn le(&self, other: &Self) -> bool {
                self.0 <= other.0
            }
            #[inline]
            fn gt(&self, other: &Self) -> bool {
                self.0 > other.0
            }
            #[inline]
            fn ge(&self, other: &Self) -> bool {
                self.0 >= other.0
            }
        }
    };
}

/// Implements `$lhs $op $rhs → $out` as the one `f64` operation.
macro_rules! binary {
    ($trait:ident, $method:ident, $lhs:ident, $rhs:ident, $out:ident) => {
        impl $trait<$rhs> for $lhs {
            type Output = $out;
            #[inline]
            fn $method(self, rhs: $rhs) -> $out {
                $out(self.0.$method(rhs.0))
            }
        }
    };
}

unit! {
    /// An absolute power in decibel-milliwatts: a transmit power, a noise
    /// floor, a received power, a detection threshold.
    ///
    /// Two absolute powers do not add in the log domain; sum them as [`Mw`]:
    ///
    /// ```compile_fail,E0308
    /// use scream_topology::units::{Dbm, Mw};
    /// let _ = Dbm::new(20.0) + Mw::new(1.0);
    /// ```
    Dbm
}

unit! {
    /// A relative power ratio in decibels: a path loss, a shadowing draw, the
    /// SINR threshold β, a margin.
    ///
    /// The difference of two [`Dbm`] is a `Db`; their sum is nothing:
    ///
    /// ```compile_fail,E0308
    /// use scream_topology::units::Dbm;
    /// let _ = Dbm::new(20.0) + Dbm::new(-100.0);
    /// ```
    Db
}

unit! {
    /// A linear power in milliwatts — the domain the SINR test sums
    /// interference in.
    ///
    /// A log-domain ratio scales a power only once made linear
    /// ([`Db::to_linear`]):
    ///
    /// ```compile_fail,E0308
    /// use scream_topology::units::{Db, Mw};
    /// let _ = Mw::new(1.0) + Db::new(3.0);
    /// ```
    Mw
}

unit! {
    /// A length in meters: a communication range, a far-field cutoff, a grid
    /// cell. Point coordinates and squared distances stay raw `f64`.
    ///
    /// A range compares with ranges, not with bare numbers:
    ///
    /// ```compile_fail,E0308
    /// use scream_topology::units::Meters;
    /// let _ = Meters::new(250.0) < 300.0;
    /// ```
    Meters
}

binary!(Add, add, Dbm, Db, Dbm);
binary!(Sub, sub, Dbm, Db, Dbm);
binary!(Sub, sub, Dbm, Dbm, Db);
binary!(Add, add, Db, Db, Db);
binary!(Sub, sub, Db, Db, Db);
binary!(Add, add, Mw, Mw, Mw);

impl Mul<f64> for Db {
    type Output = Db;
    #[inline]
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

/// The ratio of two powers (an SINR, an SNR).
impl Div for Mw {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Mw) -> f64 {
        self.0 / rhs.0
    }
}

/// A power times a linear gain.
impl Mul<f64> for Mw {
    type Output = Mw;
    #[inline]
    fn mul(self, rhs: f64) -> Mw {
        Mw(self.0 * rhs)
    }
}

impl AddAssign for Mw {
    #[inline]
    fn add_assign(&mut self, rhs: Mw) {
        self.0 += rhs.0;
    }
}

impl Dbm {
    /// The power in milliwatts, `10^(dBm / 10)`.
    ///
    /// A relative loss is not an absolute power; converting one is
    /// [`Db::to_linear`]'s job:
    ///
    /// ```compile_fail,E0308
    /// use scream_topology::units::{Db, Dbm};
    /// let loss = Db::new(110.0);
    /// let _ = Dbm::to_mw(loss);
    /// ```
    #[inline]
    pub fn to_mw(self) -> Mw {
        Mw(10f64.powf(self.0 / 10.0))
    }
}

impl Mw {
    /// The power in dBm, `10 · log₁₀(mW)`; negative infinity for a
    /// non-positive power.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm(log_scale(self.0))
    }
}

impl Db {
    /// The linear ratio `10^(dB / 10)`.
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// The ratio in dB, `10 · log₁₀(ratio)`; negative infinity for a
    /// non-positive ratio.
    #[inline]
    pub fn from_linear(ratio: f64) -> Db {
        Db(log_scale(ratio))
    }
}

/// `10 · log₁₀(x)`, with negative infinity for `x ≤ 0`.
#[inline]
fn log_scale(x: f64) -> f64 {
    if x <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * x.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite, signed-zero, subnormal, infinite and NaN operands.
    const VALUES: [f64; 12] = [
        -120.5,
        -3.0,
        -0.0,
        0.0,
        1e-310,
        0.1,
        2.5,
        20.0,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    fn same(typed: f64, raw: f64) -> bool {
        typed.to_bits() == raw.to_bits()
    }

    #[test]
    fn every_operator_is_the_f64_operation_it_replaces() {
        for a in VALUES {
            for b in VALUES {
                assert!(same((Dbm(a) + Db(b)).0, a + b), "Dbm + Db: {a}, {b}");
                assert!(same((Dbm(a) - Db(b)).0, a - b), "Dbm - Db: {a}, {b}");
                assert!(same((Dbm(a) - Dbm(b)).0, a - b), "Dbm - Dbm: {a}, {b}");
                assert!(same((Db(a) + Db(b)).0, a + b), "Db + Db: {a}, {b}");
                assert!(same((Db(a) - Db(b)).0, a - b), "Db - Db: {a}, {b}");
                assert!(same((Db(a) * b).0, a * b), "Db * f64: {a}, {b}");
                assert!(same((Mw(a) + Mw(b)).0, a + b), "Mw + Mw: {a}, {b}");
                assert!(same((Mw(a) * b).0, a * b), "Mw * f64: {a}, {b}");
                assert!(same(Mw(a) / Mw(b), a / b), "Mw / Mw: {a}, {b}");
                let mut sum = Mw(a);
                sum += Mw(b);
                assert!(same(sum.0, a + b), "Mw += Mw: {a}, {b}");
                assert_eq!(Dbm(a) < Dbm(b), a < b);
                assert_eq!(Db(a) <= Db(b), a <= b);
                assert_eq!(Mw(a) > Mw(b), a > b);
                assert_eq!(Meters(a) >= Meters(b), a >= b);
                assert_eq!(Meters(a).partial_cmp(&Meters(b)), a.partial_cmp(&b));
            }
        }
    }

    #[test]
    fn conversions_are_the_f64_formulas() {
        for x in VALUES {
            let exp = 10f64.powf(x / 10.0);
            let log = if x <= 0.0 {
                f64::NEG_INFINITY
            } else {
                10.0 * x.log10()
            };
            assert!(same(Dbm(x).to_mw().0, exp), "Dbm::to_mw({x})");
            assert!(same(Db(x).to_linear(), exp), "Db::to_linear({x})");
            assert!(same(Mw(x).to_dbm().0, log), "Mw::to_dbm({x})");
            assert!(same(Db::from_linear(x).0, log), "Db::from_linear({x})");
        }
    }
}
