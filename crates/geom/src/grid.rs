//! Uniform-grid spatial index for disk (range) queries.
//!
//! Coverage checks ("which sensors can see target t?") and communication
//! graph construction both need "all points within radius r of q" queries.
//! A uniform grid with cell size ≥ the typical query radius answers these in
//! O(points in the 3×3 neighbourhood) instead of O(N).

use crate::Point2;

/// What one point's own query covers, for
/// [`GridIndex::for_each_pair_within`]: its cell, the cells its rounded
/// span scans (`None` when the span misses the grid), and whether that
/// span is exactly the cell's clipped neighbourhood.
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    cell: (usize, usize),
    span: Option<[usize; 4]>,
    exact: bool,
}

/// Spatial index over a fixed set of points.
///
/// The index is immutable after construction; the simulator rebuilds it only
/// when the point set changes (sensor positions never do).
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cols: usize,
    rows: usize,
    min: Point2,
    /// CSR-style layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Point2>,
}

impl GridIndex {
    /// Builds an index over `points` with the given cell size (meters).
    ///
    /// `cell` should be on the order of the most common query radius; any
    /// positive finite value is correct, only performance varies.
    ///
    /// # Panics
    /// Panics if `cell` is not strictly positive/finite or any point is not
    /// finite.
    pub fn build(points: &[Point2], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be positive, got {cell}"
        );
        assert!(
            points.iter().all(|p| p.is_finite()),
            "points must be finite"
        );

        if points.is_empty() {
            return Self {
                cell,
                cols: 1,
                rows: 1,
                min: Point2::ORIGIN,
                starts: vec![0, 0],
                entries: Vec::new(),
                points: Vec::new(),
            };
        }

        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        // Offsets from `min` are never negative, so truncating casts floor.
        let cols = (((max.x - min.x) / cell) as usize + 1).max(1);
        let rows = (((max.y - min.y) / cell) as usize + 1).max(1);
        let ncells = cols * rows;

        let cell_of = |p: Point2| -> usize {
            let cx = (((p.x - min.x) / cell) as usize).min(cols - 1);
            let cy = (((p.y - min.y) / cell) as usize).min(rows - 1);
            cy * cols + cx
        };

        // Counting sort of point indices into cells.
        let mut counts = vec![0u32; ncells + 1];
        for p in points {
            counts[cell_of(*p) + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(*p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        Self {
            cell,
            cols,
            rows,
            min,
            starts,
            entries,
            points: points.to_vec(),
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points with `distance(q) <= radius`, in ascending
    /// index order.
    pub fn within(&self, q: Point2, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(q, radius, &mut out);
        out
    }

    /// [`GridIndex::within`] into a caller-owned buffer: `out` is cleared,
    /// then holds the hits in ascending index order, converted to `T`
    /// (an id newtype, say). Reusing `out` across queries keeps a hot
    /// query loop allocation-free.
    pub fn within_into<T: From<usize> + Ord>(&self, q: Point2, radius: f64, out: &mut Vec<T>) {
        out.clear();
        self.for_each_within(q, radius, |i| out.push(T::from(i)));
        out.sort_unstable();
    }

    /// Calls `f(index)` for every point with `distance(q) <= radius`, in
    /// unspecified order. Avoids allocating when the caller only counts.
    pub fn for_each_within<F: FnMut(usize)>(&self, q: Point2, radius: f64, mut f: F) {
        let Some([x_lo, x_hi, y_lo, y_hi]) = self.span(q, radius) else {
            return;
        };
        let r2 = radius * radius;
        for cy in y_lo..=y_hi {
            for &i in self.entries_in(cy, x_lo, x_hi) {
                if self.points[i as usize].distance_squared(q) <= r2 {
                    f(i as usize);
                }
            }
        }
    }

    /// The cells `[x_lo, x_hi] × [y_lo, y_hi]` within one of cell
    /// `(cx, cy)`, clipped to the grid.
    #[inline]
    fn near(&self, cx: usize, cy: usize) -> [usize; 4] {
        [
            cx.saturating_sub(1),
            (cx + 1).min(self.cols - 1),
            cy.saturating_sub(1),
            (cy + 1).min(self.rows - 1),
        ]
    }

    /// The entries of cells `x_lo..=x_hi` of row `cy`: adjacent cells are
    /// adjacent in `starts`, so a row span is one contiguous run, in the
    /// same cell-by-cell order.
    #[inline]
    fn entries_in(&self, cy: usize, x_lo: usize, x_hi: usize) -> &[u32] {
        let row = cy * self.cols;
        &self.entries[self.starts[row + x_lo] as usize..self.starts[row + x_hi + 1] as usize]
    }

    /// The cells `[x_lo, x_hi] × [y_lo, y_hi]` a query disk scans, `None`
    /// when it misses the grid. The `as usize` casts saturate, so an
    /// offset below the grid (or NaN) lands in cell 0 exactly as
    /// `floor(v).max(0.0)` would, without the libm call.
    #[inline]
    fn span(&self, q: Point2, radius: f64) -> Option<[usize; 4]> {
        if self.points.is_empty() {
            return None;
        }
        let x_lo = ((q.x - radius - self.min.x) / self.cell) as usize;
        let y_lo = ((q.y - radius - self.min.y) / self.cell) as usize;
        let x_hi = (((q.x + radius - self.min.x) / self.cell) as usize).min(self.cols - 1);
        let y_hi = (((q.y + radius - self.min.y) / self.cell) as usize).min(self.rows - 1);
        (x_lo <= x_hi && y_lo <= y_hi).then_some([x_lo, x_hi, y_lo, y_hi])
    }

    /// Every ordered pair `for_each_within` reports over the indexed
    /// points themselves, found by one pass over neighbouring cells.
    ///
    /// Calls `f(i, j, d2, mutual)` so that, over all calls, the pairs
    /// `i → j` (plus `j → i` on calls with `mutual`) are exactly the pairs
    /// `i ≠ j` for which `for_each_within(point i, radius)` reports `j`,
    /// each once; `d2` is their squared distance. A pair within one cell
    /// of each other is examined once, so a symmetric query such as a
    /// unit-disk graph computes one distance per pair instead of two.
    ///
    /// The result is the per-point query's to the bit, including its
    /// rounding: a query scans the cells its rounded span covers, which
    /// at a cell boundary can miss a point at distance exactly `radius`
    /// (or reach two cells away), so the two directions of a pair are
    /// decided separately.
    pub fn for_each_pair_within<F: FnMut(usize, usize, f64, bool)>(&self, radius: f64, mut f: F) {
        let n = self.points.len();
        let r2 = radius * radius;
        // Per point: its cell, the cells its own query scans, and whether
        // those are exactly its cell's neighbourhood (the common case, in
        // which it sees every point the pass below pairs it with).
        let mut reach = vec![Reach::default(); n];
        for cy in 0..self.rows {
            for cx in 0..self.cols {
                let near = self.near(cx, cy);
                for &i in self.entries_in(cy, cx, cx) {
                    let span = self.span(self.points[i as usize], radius);
                    reach[i as usize] = Reach {
                        cell: (cx, cy),
                        span,
                        exact: span == Some(near),
                    };
                }
            }
        }
        let sees = |i: usize, j: usize| {
            let (cx, cy) = reach[j].cell;
            reach[i].exact
                || reach[i].span.is_some_and(|[x_lo, x_hi, y_lo, y_hi]| {
                    (x_lo..=x_hi).contains(&cx) && (y_lo..=y_hi).contains(&cy)
                })
        };
        // Pairs in the same or neighbouring cells: each cell against the
        // rest of itself, its right neighbour and the three cells below.
        for cy in 0..self.rows {
            for cx in 0..self.cols {
                let [left, right, _, below_row] = self.near(cx, cy);
                let row = cy * self.cols;
                let (s, e) = (
                    self.starts[row + cx] as usize,
                    self.starts[row + cx + 1] as usize,
                );
                let right_end = self.starts[row + right + 1] as usize;
                let below: &[u32] = if below_row > cy {
                    self.entries_in(below_row, left, right)
                } else {
                    &[]
                };
                for pos in s..e {
                    let i = self.entries[pos] as usize;
                    let p = self.points[i];
                    for &j in self.entries[pos + 1..right_end].iter().chain(below) {
                        let j = j as usize;
                        let d2 = self.points[j].distance_squared(p);
                        if d2 <= r2 {
                            match (sees(i, j), sees(j, i)) {
                                (true, back) => f(i, j, d2, back),
                                (false, true) => f(j, i, d2, false),
                                (false, false) => {}
                            }
                        }
                    }
                }
            }
        }

        // A query whose rounded span reaches past the neighbouring cells
        // scans those extra cells itself, one direction at a time.
        for (i, &p) in self.points.iter().enumerate() {
            let Reach {
                cell: (cx, cy),
                span: Some([x_lo, x_hi, y_lo, y_hi]),
                ..
            } = reach[i]
            else {
                continue;
            };
            let [near_x_lo, near_x_hi, near_y_lo, near_y_hi] = self.near(cx, cy);
            if x_lo >= near_x_lo && x_hi <= near_x_hi && y_lo >= near_y_lo && y_hi <= near_y_hi {
                continue;
            }
            let mut scan = |row: usize, lo: usize, hi: usize| {
                for &j in self.entries_in(row, lo, hi) {
                    let d2 = self.points[j as usize].distance_squared(p);
                    if d2 <= r2 {
                        f(i, j as usize, d2, false);
                    }
                }
            };
            for row in y_lo..=y_hi {
                if row < near_y_lo || row > near_y_hi {
                    scan(row, x_lo, x_hi);
                    continue;
                }
                if x_lo < near_x_lo {
                    scan(row, x_lo, x_hi.min(near_x_lo - 1));
                }
                if x_hi > near_x_hi {
                    scan(row, x_lo.max(near_x_hi + 1), x_hi);
                }
            }
        }
    }

    /// Index of the nearest point to `q`, or `None` when empty.
    pub fn nearest(&self, q: Point2) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        // Expanding ring search: try growing radii until a hit is found, then
        // verify with one extra ring (a closer point can sit in a farther
        // cell ring than the first hit's).
        let mut radius = self.cell;
        loop {
            let mut best: Option<(usize, f64)> = None;
            self.for_each_within(q, radius, |i| {
                let d2 = self.points[i].distance_squared(q);
                if best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((i, d2));
                }
            });
            if let Some((i, d2)) = best {
                if d2.sqrt() <= radius {
                    return Some(i);
                }
            }
            radius *= 2.0;
            // Bail out to brute force once the ring covers everything.
            if radius > 1e9 {
                return (0..self.points.len()).min_by(|&a, &b| {
                    self.points[a]
                        .distance_squared(q)
                        .total_cmp(&self.points[b].distance_squared(q))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn brute_within(points: &[Point2], q: Point2, r: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].distance(q) <= r)
            .collect()
    }

    impl GridIndex {
        /// The per-cell, `floor`-based query `for_each_within` replaced,
        /// kept as the reference for its visit order.
        fn for_each_within_reference<F: FnMut(usize)>(&self, q: Point2, radius: f64, mut f: F) {
            if self.points.is_empty() {
                return;
            }
            let r2 = radius * radius;
            let cx_lo = (((q.x - radius - self.min.x) / self.cell).floor()).max(0.0) as usize;
            let cy_lo = (((q.y - radius - self.min.y) / self.cell).floor()).max(0.0) as usize;
            let cx_hi = ((((q.x + radius - self.min.x) / self.cell).floor()).max(0.0) as usize)
                .min(self.cols - 1);
            let cy_hi = ((((q.y + radius - self.min.y) / self.cell).floor()).max(0.0) as usize)
                .min(self.rows - 1);
            if cx_lo > cx_hi || cy_lo > cy_hi {
                return;
            }
            for cy in cy_lo..=cy_hi {
                for cx in cx_lo..=cx_hi {
                    let c = cy * self.cols + cx;
                    let (s, e) = (self.starts[c] as usize, self.starts[c + 1] as usize);
                    for &i in &self.entries[s..e] {
                        if self.points[i as usize].distance_squared(q) <= r2 {
                            f(i as usize);
                        }
                    }
                }
            }
        }
    }

    fn visits(g: &GridIndex, q: Point2, r: f64) -> (Vec<usize>, Vec<usize>) {
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        g.for_each_within(q, r, |i| fast.push(i));
        g.for_each_within_reference(q, r, |i| reference.push(i));
        (fast, reference)
    }

    /// Every ordered pair `for_each_pair_within` yields, sorted, each
    /// checked against the distance the per-point query would compute.
    fn pairs(g: &GridIndex, r: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        g.for_each_pair_within(r, |i, j, d2, mutual| {
            assert_eq!(
                d2.to_bits(),
                g.points[j].distance_squared(g.points[i]).to_bits()
            );
            out.push((i, j));
            if mutual {
                out.push((j, i));
            }
        });
        out.sort_unstable();
        out
    }

    fn pairs_reference(g: &GridIndex, r: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..g.len() {
            g.for_each_within_reference(g.points[i], r, |j| {
                if j != i {
                    out.push((i, j));
                }
            });
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn queries_visit_in_the_reference_order_on_every_side() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pts: Vec<Point2> = (0..300)
            .map(|_| Point2::new(rng.gen_range(10.0..90.0), rng.gen_range(20.0..70.0)))
            .collect();
        for cell in [3.0, 8.0, 12.0, 25.0] {
            let g = GridIndex::build(&pts, cell);
            // Centres inside, beside, above, below and diagonally off the
            // grid, with radii from a point query to one swallowing it all.
            for _ in 0..400 {
                let q = Point2::new(rng.gen_range(-60.0..160.0), rng.gen_range(-60.0..140.0));
                let r = rng.gen_range(0.0..80.0);
                let (fast, reference) = visits(&g, q, r);
                assert_eq!(fast, reference, "cell {cell}, q {q:?}, r {r}");
            }
            for q in [
                Point2::new(-1e9, 50.0),
                Point2::new(1e9, 50.0),
                Point2::new(50.0, -1e9),
                Point2::new(50.0, 1e9),
                Point2::new(f64::NAN, 50.0),
            ] {
                for r in [0.0, 5.0, 1e12] {
                    let (fast, reference) = visits(&g, q, r);
                    assert_eq!(fast, reference, "cell {cell}, q {q:?}, r {r}");
                }
            }
        }
    }

    #[test]
    fn pairs_match_per_point_queries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)))
            .collect();
        for (cell, r) in [(12.0, 12.0), (8.0, 12.0), (12.0, 5.0), (30.0, 12.0)] {
            let g = GridIndex::build(&pts, cell);
            assert_eq!(pairs(&g, r), pairs_reference(&g, r), "cell {cell}, r {r}");
        }
        // Spacing equal to the cell: boundary pairs at exactly the radius.
        for s in [0.1, 0.3, 0.7, 1.0 / 3.0, 12.0] {
            let lattice: Vec<Point2> = (0..144)
                .map(|k| Point2::new(0.05 + (k % 12) as f64 * s, 0.3 + (k / 12) as f64 * s))
                .collect();
            let g = GridIndex::build(&lattice, s);
            assert_eq!(pairs(&g, s), pairs_reference(&g, s), "spacing {s}");
        }
    }

    #[test]
    fn empty_index() {
        let g = GridIndex::build(&[], 1.0);
        assert!(g.is_empty());
        assert!(g.within(Point2::ORIGIN, 10.0).is_empty());
        assert!(g.nearest(Point2::ORIGIN).is_none());
    }

    #[test]
    fn single_point() {
        let g = GridIndex::build(&[Point2::new(5.0, 5.0)], 2.0);
        assert_eq!(g.within(Point2::new(5.0, 6.0), 1.0), vec![0]);
        assert!(g.within(Point2::new(5.0, 7.0), 1.0).is_empty());
        assert_eq!(g.nearest(Point2::new(100.0, 100.0)), Some(0));
    }

    #[test]
    fn boundary_is_inclusive() {
        let g = GridIndex::build(&[Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)], 1.0);
        assert_eq!(g.within(Point2::ORIGIN, 5.0), vec![0, 1]);
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)))
            .collect();
        let g = GridIndex::build(&pts, 8.0);
        // One buffer across every query: each fill starts from a clear.
        let mut reused: Vec<usize> = vec![usize::MAX; 7];
        for _ in 0..50 {
            let q = Point2::new(rng.gen_range(-10.0..210.0), rng.gen_range(-10.0..210.0));
            let r = rng.gen_range(0.0..30.0);
            assert_eq!(g.within(q, r), brute_within(&pts, q, r));
            g.within_into(q, r, &mut reused);
            assert_eq!(reused, brute_within(&pts, q, r));
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pts: Vec<Point2> = (0..200)
            .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let g = GridIndex::build(&pts, 5.0);
        for _ in 0..50 {
            let q = Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let bi = (0..pts.len())
                .min_by(|&a, &b| {
                    pts[a]
                        .distance_squared(q)
                        .total_cmp(&pts[b].distance_squared(q))
                })
                .unwrap();
            let gi = g.nearest(q).unwrap();
            // Equal distance ties may resolve differently; compare distances.
            assert!((pts[gi].distance(q) - pts[bi].distance(q)).abs() < 1e-9);
        }
    }

    proptest! {
        #[test]
        fn prop_within_equals_brute_force(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..120),
            q in (-20.0f64..120.0, -20.0f64..120.0),
            r in 0.0f64..40.0,
            cell in 0.5f64..20.0,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let g = GridIndex::build(&pts, cell);
            let q = Point2::new(q.0, q.1);
            prop_assert_eq!(g.within(q, r), brute_within(&pts, q, r));
            let (fast, reference) = visits(&g, q, r);
            prop_assert_eq!(fast, reference);
            prop_assert_eq!(pairs(&g, r), pairs_reference(&g, r));
        }
    }
}
