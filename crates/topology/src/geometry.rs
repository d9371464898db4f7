//! Planar geometry primitives used by deployments and propagation models.
//!
//! All distances are in meters. The paper's analysis (Section IV-B) reasons
//! about closed planar regions, their Euclidean diameter and square-grid
//! convexity; this module provides the concrete types those arguments are
//! checked against in `scream-analysis`.

use serde::{Deserialize, Serialize};

/// A point in the two-dimensional Euclidean plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to `other`, in meters.
    ///
    /// ```
    /// use scream_topology::Point2;
    /// let d = Point2::new(0.0, 0.0).distance(Point2::new(3.0, 4.0));
    /// assert!((d - 5.0).abs() < 1e-12);
    /// ```
    pub fn distance(&self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in square meters.
    pub fn distance_squared(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, used as the deployment region.
///
/// The paper's evaluation varies node density by changing the deployment
/// area while holding the node count at 64 (Section VI-A); [`Rect`] is the
/// region type those deployments are drawn in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum corner (lower-left).
    pub(crate) min: Point2,
    /// Maximum corner (upper-right).
    pub(crate) max: Point2,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics if `max.x < min.x` or `max.y < min.y`.
    pub fn new(min: Point2, max: Point2) -> Self {
        assert!(
            max.x >= min.x && max.y >= min.y,
            "rectangle corners are inverted: min={min}, max={max}"
        );
        Self { min, max }
    }

    /// A square with its lower-left corner at the origin and the given side
    /// length in meters.
    pub fn square(side: f64) -> Self {
        Rect::new(Point2::ORIGIN, Point2::new(side, side))
    }

    /// Width of the rectangle in meters.
    pub(crate) fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle in meters.
    pub(crate) fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Euclidean diameter of the region (Definition 11 in the paper): the
    /// maximum distance between any two contained points, i.e. the diagonal.
    pub fn diameter(&self) -> f64 {
        self.min.distance(self.max)
    }

    /// The four corners in counter-clockwise order starting from `min`.
    pub(crate) fn corners(&self) -> [Point2; 4] {
        [
            self.min,
            Point2::new(self.max.x, self.min.y),
            self.max,
            Point2::new(self.min.x, self.max.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new(1.5, -2.0);
        let b = Point2::new(-4.0, 7.25);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point2::ORIGIN;
        let b = Point2::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_squared(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn rect_dimensions_and_area() {
        let r = Rect::new(Point2::new(1.0, 2.0), Point2::new(4.0, 6.0));
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert!((r.diameter() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rect_center_and_corners() {
        let r = Rect::square(2.0);
        let corners = r.corners();
        assert_eq!(corners[0], Point2::new(0.0, 0.0));
        assert_eq!(corners[2], Point2::new(2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point2::new(1.0, 1.0), Point2::new(0.0, 0.0));
    }

    #[test]
    fn unit_square_has_unit_area_and_sqrt2_diameter() {
        let r = Rect::square(1.0);
        assert_eq!(r.area(), 1.0);
        assert!((r.diameter() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
