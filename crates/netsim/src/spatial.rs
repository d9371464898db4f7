//! Uniform-grid spatial indexing for interference pruning.
//!
//! The physical interference model has geometric structure the flat SINR sums
//! ignore: received power decays polynomially with distance, so a transmitter
//! beyond the *noise-floor cutoff radius* — the distance at which even the
//! strongest transmitter's power falls orders of magnitude below the noise
//! floor — contributes provably negligible interference (Halldórsson–Mitra
//! style spatial partitioning, arXiv:1104.5200). This module provides the
//! index that exploits it:
//!
//! * [`GridGeometry`] — a uniform grid of square cells covering a bounding
//!   box, with clamped point→cell mapping, conservative cell/disc range
//!   queries and Chebyshev-ring traversal (nearest cells first, so partial
//!   interference sums hit rejection thresholds early);
//! * [`EndpointBuckets`] — a dynamic per-slot index of assigned link
//!   endpoints, maintained by [`SlotLedger`](crate::ledger) so feasibility
//!   probes sum only nearby interferers plus one aggregated far-field bound.
//!
//! All range comparisons are done on **squared** distances (no `sqrt` per
//! pair). The communication and sensitivity graphs use no index: each is one
//! scan over the node pairs (see [`RadioEnvironment`](crate::environment)).

use serde::{Deserialize, Serialize};

use scream_topology::Point2;

use crate::units::Meters;

/// Geometry of a uniform grid of square cells covering a bounding box.
///
/// Cells are indexed `(cx, cy)` with `cx ∈ 0..cols`, `cy ∈ 0..rows`,
/// row-major linearization `cy * cols + cx`. Points outside the bounding box
/// clamp to the nearest boundary cell, so the mapping is total.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct GridGeometry {
    min_x: f64,
    min_y: f64,
    cell_size_m: f64,
    cols: u32,
    rows: u32,
}

/// An inclusive rectangle of cell indices, as returned by
/// [`GridGeometry::cells_intersecting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellRect {
    /// First column (inclusive).
    pub(crate) x0: u32,
    /// Last column (inclusive).
    pub(crate) x1: u32,
    /// First row (inclusive).
    pub(crate) y0: u32,
    /// Last row (inclusive).
    pub(crate) y1: u32,
}

impl CellRect {
    /// Visits every cell of the rectangle in Chebyshev rings of increasing
    /// radius around `center` (clamped into the rectangle): ring 0 is the
    /// center cell, ring `r` the cells at Chebyshev distance exactly `r`.
    /// After each completed ring, `ring_done()` may return `true` to stop the
    /// traversal early — the early-exit hook interference scans use once a
    /// partial sum already exceeds a rejection threshold.
    pub(crate) fn visit_rings(
        &self,
        center: (u32, u32),
        mut visit: impl FnMut(u32, u32),
        mut ring_done: impl FnMut() -> bool,
    ) {
        let cx = center.0.clamp(self.x0, self.x1);
        let cy = center.1.clamp(self.y0, self.y1);
        let max_ring = (cx - self.x0)
            .max(self.x1 - cx)
            .max(cy - self.y0)
            .max(self.y1 - cy);
        visit(cx, cy);
        if ring_done() {
            return;
        }
        for r in 1..=max_ring {
            let lo_x = cx.saturating_sub(r).max(self.x0);
            let hi_x = (cx + r).min(self.x1);
            // Top and bottom rows of the ring (full width).
            if cy >= self.y0 + r {
                let y = cy - r;
                for x in lo_x..=hi_x {
                    visit(x, y);
                }
            }
            if cy + r <= self.y1 {
                let y = cy + r;
                for x in lo_x..=hi_x {
                    visit(x, y);
                }
            }
            // Left and right columns, excluding the corners already visited.
            let lo_y = (cy + 1).saturating_sub(r).max(self.y0);
            let hi_y = (cy + r - 1).min(self.y1);
            if lo_y <= hi_y {
                if cx >= self.x0 + r {
                    let x = cx - r;
                    for y in lo_y..=hi_y {
                        visit(x, y);
                    }
                }
                if cx + r <= self.x1 {
                    let x = cx + r;
                    for y in lo_y..=hi_y {
                        visit(x, y);
                    }
                }
            }
            if ring_done() {
                return;
            }
        }
    }
}

/// Bounding box `[min_x, max_x, min_y, max_y]` of the points `(xs, ys)`, in
/// meters; `min` = +∞ and `max` = −∞ when there are none.
pub(crate) fn bounding_box_m(xs: &[f64], ys: &[f64]) -> [f64; 4] {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for (&x, &y) in xs.iter().zip(ys) {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    [min_x, max_x, min_y, max_y]
}

impl GridGeometry {
    /// Hard cap on the number of cells: if the target cell size would exceed
    /// it (vast region, small cutoff), the cell size is grown to fit. Pruning
    /// gets coarser but stays correct.
    pub(crate) const MAX_CELLS: usize = 1 << 20;

    /// Builds a grid covering the bounding box `[min_x, max_x, min_y, max_y]`
    /// (see [`bounding_box_m`]) with cells of roughly `target_cell_m` meters,
    /// grown if needed to respect [`MAX_CELLS`](Self::MAX_CELLS). Degenerate
    /// inputs (no points, zero extent, non-finite or non-positive target)
    /// collapse to a single cell.
    pub(crate) fn covering_box([min_x, max_x, min_y, max_y]: [f64; 4], target_cell_m: f64) -> Self {
        if !min_x.is_finite() || !min_y.is_finite() {
            // No points: a 1×1 grid anchored at the origin.
            return Self {
                min_x: 0.0,
                min_y: 0.0,
                cell_size_m: 1.0,
                cols: 1,
                rows: 1,
            };
        }
        let width = (max_x - min_x).max(0.0);
        let height = (max_y - min_y).max(0.0);
        let mut cell = if target_cell_m.is_finite() && target_cell_m > 0.0 {
            target_cell_m
        } else {
            // A degenerate target collapses to a single cell spanning the box.
            width.max(height).max(1.0) * 2.0
        };
        // Grow the cell size until the grid fits the cap.
        loop {
            let cols = (width / cell).floor() as usize + 1;
            let rows = (height / cell).floor() as usize + 1;
            if cols.saturating_mul(rows) <= Self::MAX_CELLS {
                return Self {
                    min_x,
                    min_y,
                    cell_size_m: cell,
                    cols: cols as u32,
                    rows: rows as u32,
                };
            }
            cell *= 2.0;
        }
    }

    /// Total number of cells.
    pub(crate) fn cell_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// The cell containing `p`, clamped into the grid.
    pub(crate) fn cell_of(&self, p: Point2) -> (u32, u32) {
        let cx = ((p.x - self.min_x) / self.cell_size_m).floor();
        let cy = ((p.y - self.min_y) / self.cell_size_m).floor();
        (
            (cx.max(0.0) as u32).min(self.cols - 1),
            (cy.max(0.0) as u32).min(self.rows - 1),
        )
    }

    /// Row-major linear index of cell `(cx, cy)`.
    pub(crate) fn cell_index(&self, cx: u32, cy: u32) -> usize {
        cy as usize * self.cols as usize + cx as usize
    }

    /// Linear index of the cell containing `p` (clamped).
    pub(crate) fn cell_index_of(&self, p: Point2) -> usize {
        let (cx, cy) = self.cell_of(p);
        self.cell_index(cx, cy)
    }

    /// The inclusive rectangle of cells intersecting the disc of the given
    /// radius around `center` (conservative: may include cells that only
    /// touch the disc's bounding square).
    pub(crate) fn cells_intersecting(&self, center: Point2, radius: Meters) -> CellRect {
        let radius_m = radius.get();
        let lo = Point2::new(center.x - radius_m, center.y - radius_m);
        let hi = Point2::new(center.x + radius_m, center.y + radius_m);
        let (x0, y0) = self.cell_of(lo);
        let (x1, y1) = self.cell_of(hi);
        CellRect { x0, x1, y0, y1 }
    }
}

/// Packs a link index and an endpoint role into one bucket entry.
#[inline]
fn pack_entry(link_idx: u32, is_head: bool) -> u32 {
    (link_idx << 1) | is_head as u32
}

/// The link index of a packed bucket entry.
#[inline]
pub(crate) fn entry_link(entry: u32) -> usize {
    (entry >> 1) as usize
}

/// Whether a packed bucket entry indexes the link's head (transmitter of the
/// data sub-slot) rather than its tail.
#[inline]
pub(crate) fn entry_is_head(entry: u32) -> bool {
    entry & 1 == 1
}

/// A dynamic uniform-grid bucket index over the endpoints of links assigned
/// to one slot.
///
/// Each assigned link contributes two packed entries — its head and its tail,
/// each in the cell of the corresponding node — so a feasibility probe can
/// enumerate nearby *data transmitters* (heads) and *ACK transmitters*
/// (tails) separately, each endpoint appearing exactly once. Cleared in
/// O(touched cells), matching [`SlotLedger::clear`](crate::ledger)'s
/// O(assigned) lifecycle.
#[derive(Debug, Clone)]
pub(crate) struct EndpointBuckets {
    geometry: GridGeometry,
    cells: Vec<Vec<u32>>,
    touched: Vec<u32>,
}

impl EndpointBuckets {
    /// Empty buckets over the given geometry.
    pub(crate) fn new(geometry: GridGeometry) -> Self {
        let cells = vec![Vec::new(); geometry.cell_count()];
        Self {
            geometry,
            cells,
            touched: Vec::new(),
        }
    }

    /// The grid geometry.
    pub(crate) fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Indexes the endpoints of the link with ledger index `link_idx`.
    pub(crate) fn insert(&mut self, link_idx: u32, head: Point2, tail: Point2) {
        let hc = self.geometry.cell_index_of(head);
        let tc = self.geometry.cell_index_of(tail);
        for (cell, entry) in [
            (hc, pack_entry(link_idx, true)),
            (tc, pack_entry(link_idx, false)),
        ] {
            if self.cells[cell].is_empty() {
                self.touched.push(cell as u32);
            }
            self.cells[cell].push(entry);
        }
    }

    /// The packed entries of the cell with linear index `c` (see
    /// [`entry_link`], [`entry_is_head`]).
    pub(crate) fn entries(&self, c: usize) -> &[u32] {
        &self.cells[c]
    }

    /// Removes all entries in O(touched cells), keeping allocations.
    pub(crate) fn clear(&mut self) {
        for &c in &self.touched {
            self.cells[c as usize].clear();
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_spans_the_bounding_box() {
        let xs = [0.0, 950.0, 120.0];
        let ys = [0.0, 40.0, 460.0];
        let g = GridGeometry::covering_box(bounding_box_m(&xs, &ys), 100.0);
        assert_eq!(g.cell_size_m, 100.0);
        assert_eq!(g.cols, 10);
        assert_eq!(g.rows, 5);
        assert_eq!(g.cell_count(), 50);
        // Corners map inside the grid.
        assert_eq!(g.cell_of(Point2::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_of(Point2::new(950.0, 460.0)), (9, 4));
        // Out-of-bounds points clamp.
        assert_eq!(g.cell_of(Point2::new(-50.0, 9999.0)), (0, 4));
    }

    #[test]
    fn degenerate_inputs_collapse_to_one_cell() {
        let g = GridGeometry::covering_box(bounding_box_m(&[], &[]), 10.0);
        assert_eq!(g.cell_count(), 1);
        let g = GridGeometry::covering_box(bounding_box_m(&[5.0], &[5.0]), 10.0);
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.cell_index_of(Point2::new(5.0, 5.0)), 0);
        let g = GridGeometry::covering_box(bounding_box_m(&[0.0, 100.0], &[0.0, 100.0]), f64::NAN);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn cell_count_respects_the_cap() {
        // A 1e9 m region at 1 m cells would want 1e18 cells; the builder must
        // grow the cell size until the count fits.
        let g = GridGeometry::covering_box(bounding_box_m(&[0.0, 1e9], &[0.0, 1e9]), 1.0);
        assert!(g.cell_count() <= GridGeometry::MAX_CELLS);
        assert!(g.cell_size_m > 1.0);
    }

    #[test]
    fn ring_traversal_covers_every_cell_exactly_once() {
        let g = GridGeometry::covering_box(bounding_box_m(&[0.0, 900.0], &[0.0, 600.0]), 100.0);
        let rect = CellRect {
            x0: 0,
            x1: g.cols - 1,
            y0: 0,
            y1: g.rows - 1,
        };
        for center in [(0u32, 0u32), (5, 3), (9, 6), (20, 20)] {
            let mut seen = std::collections::HashSet::new();
            rect.visit_rings(
                center,
                |x, y| {
                    assert!(seen.insert((x, y)), "cell ({x},{y}) visited twice");
                },
                || false,
            );
            assert_eq!(seen.len(), g.cell_count(), "center {center:?}");
        }
    }

    #[test]
    fn ring_traversal_orders_cells_by_chebyshev_distance() {
        let g = GridGeometry::covering_box(bounding_box_m(&[0.0, 500.0], &[0.0, 500.0]), 100.0);
        let rect = CellRect {
            x0: 0,
            x1: g.cols - 1,
            y0: 0,
            y1: g.rows - 1,
        };
        let (cx, cy) = (2u32, 3u32);
        let mut last_ring = 0u32;
        rect.visit_rings(
            (cx, cy),
            |x, y| {
                let ring = x.abs_diff(cx).max(y.abs_diff(cy));
                assert!(ring >= last_ring, "ring order violated at ({x},{y})");
                last_ring = ring;
            },
            || false,
        );
    }

    #[test]
    fn ring_traversal_early_exit_stops_after_a_ring() {
        let rect = CellRect {
            x0: 0,
            x1: 9,
            y0: 0,
            y1: 9,
        };
        let mut visited = 0usize;
        let mut rings = 0usize;
        rect.visit_rings(
            (4, 4),
            |_, _| visited += 1,
            || {
                rings += 1;
                rings == 2
            },
        );
        // Ring 0 (1 cell) + ring 1 (8 cells), then stop.
        assert_eq!(visited, 9);
    }

    #[test]
    fn endpoint_buckets_insert_query_clear_roundtrip() {
        let g = GridGeometry::covering_box(bounding_box_m(&[0.0, 1000.0], &[0.0, 1000.0]), 100.0);
        let mut buckets = EndpointBuckets::new(g);
        let head = Point2::new(50.0, 50.0);
        let tail = Point2::new(850.0, 850.0);
        buckets.insert(7, head, tail);
        let head_cell = g.cell_index_of(head);
        let tail_cell = g.cell_index_of(tail);
        assert_eq!(buckets.entries(head_cell).len(), 1);
        let e = buckets.entries(head_cell)[0];
        assert_eq!(entry_link(e), 7);
        assert!(entry_is_head(e));
        let e = buckets.entries(tail_cell)[0];
        assert_eq!(entry_link(e), 7);
        assert!(!entry_is_head(e));
        // Same-cell endpoints produce two entries in one cell.
        buckets.insert(8, head, Point2::new(60.0, 60.0));
        assert_eq!(buckets.entries(head_cell).len(), 3);
        buckets.clear();
        assert_eq!(buckets.entries(head_cell).len(), 0);
        assert_eq!(buckets.entries(tail_cell).len(), 0);
    }
}
