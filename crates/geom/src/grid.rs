//! Uniform-grid spatial index for disk (range) queries.
//!
//! Coverage checks ("which sensors can see target t?") and communication
//! graph construction both need "all points within radius r of q" queries.
//! A uniform grid with cell size ≥ the typical query radius answers these in
//! O(points in the 3×3 neighbourhood) instead of O(N).

use crate::Point2;

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
        let cols = (((max.x - min.x) / cell).floor() as usize + 1).max(1);
        let rows = (((max.y - min.y) / cell).floor() as usize + 1).max(1);
        let ncells = cols * rows;

        let cell_of = |p: Point2| -> usize {
            let cx = (((p.x - min.x) / cell).floor() as usize).min(cols - 1);
            let cy = (((p.y - min.y) / cell).floor() as usize).min(rows - 1);
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
        }
    }
}
