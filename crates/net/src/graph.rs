//! Unit-disk communication graph in CSR form.

use wrsn_geom::{GridIndex, Point2};

/// Undirected communication graph: nodes are radio positions, an edge links
/// every pair within the communication range `d_c`, weighted by Euclidean
/// distance.
///
/// Stored as CSR (offsets + packed neighbor/weight arrays) — compact, cache
/// friendly, and immutable after construction, which matches how the
/// simulator uses it (sensor positions never move; the graph is built once).
#[derive(Debug, Clone)]
pub struct CommGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    weights: Vec<f64>,
    positions: Vec<Point2>,
    comm_range: f64,
}

impl CommGraph {
    /// Builds the graph over `positions` with communication range
    /// `comm_range` (meters). Uses a uniform grid so construction is
    /// O(N · neighbors) instead of O(N²).
    ///
    /// # Panics
    /// Panics if `comm_range` is not strictly positive and finite.
    pub fn build(positions: &[Point2], comm_range: f64) -> Self {
        assert!(
            comm_range.is_finite() && comm_range > 0.0,
            "comm range must be positive, got {comm_range}"
        );
        let n = positions.len();
        let grid = GridIndex::build(positions, comm_range.max(1e-6));

        // One distance per neighbouring pair, straight into CSR: count the
        // degrees, then place each edge and sort every (short) row.
        let mut edges: Vec<(u32, u32, f64, bool)> = Vec::new();
        let mut offsets = vec![0u32; n + 1];
        grid.for_each_pair_within(comm_range, |i, j, d2, mutual| {
            offsets[i + 1] += 1;
            if mutual {
                offsets[j + 1] += 1;
            }
            edges.push((i as u32, j as u32, d2.sqrt(), mutual));
        });
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[n] as usize;
        let mut neighbors = vec![0u32; total];
        let mut weights = vec![0.0f64; total];
        let mut cursor = offsets.clone();
        let mut place = |from: u32, to: u32, w: f64| {
            let k = &mut cursor[from as usize];
            neighbors[*k as usize] = to;
            weights[*k as usize] = w;
            *k += 1;
        };
        for &(i, j, w, mutual) in &edges {
            place(i, j, w);
            if mutual {
                place(j, i, w);
            }
        }
        for row in offsets.windows(2) {
            let (s, e) = (row[0] as usize, row[1] as usize);
            sort_row(&mut neighbors[s..e], &mut weights[s..e]);
        }

        Self {
            offsets,
            neighbors,
            weights,
            positions: positions.to_vec(),
            comm_range,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Position of node `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// All node positions.
    #[inline]
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// The communication range the graph was built with.
    #[inline]
    pub fn comm_range(&self) -> f64 {
        self.comm_range
    }

    /// Neighbors of node `i` with edge weights, sorted by neighbor index.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.neighbors[s..e]
            .iter()
            .zip(&self.weights[s..e])
            .map(|(&j, &w)| (j as usize, w))
    }

    /// Node degree.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Connected component id for every node (ids are arbitrary but equal
    /// within a component). Useful for diagnosing disconnected deployments.
    pub fn components(&self) -> Vec<usize> {
        let n = self.len();
        let mut comp = vec![usize::MAX; n];
        let mut stack = Vec::new();
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for (v, _) in self.neighbors(u) {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }
}

/// Insertion sort of one adjacency row by neighbour index, carrying the
/// weights along (rows hold a handful of entries).
fn sort_row(neighbors: &mut [u32], weights: &mut [f64]) {
    for k in 1..neighbors.len() {
        let (j, w) = (neighbors[k], weights[k]);
        let mut m = k;
        while m > 0 && neighbors[m - 1] > j {
            neighbors[m] = neighbors[m - 1];
            weights[m] = weights[m - 1];
            m -= 1;
        }
        neighbors[m] = j;
        weights[m] = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn chain(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    /// The per-point build `CommGraph::build` replaced: one grid query
    /// and one adjacency `Vec` per node. The reference for its bits.
    fn build_per_point(positions: &[Point2], comm_range: f64) -> CommGraph {
        let n = positions.len();
        let grid = GridIndex::build(positions, comm_range.max(1e-6));
        let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (i, &p) in positions.iter().enumerate() {
            grid.for_each_within(p, comm_range, |j| {
                if j != i {
                    adjacency[i].push((j as u32, p.distance(positions[j])));
                }
            });
        }
        let mut offsets = vec![0u32];
        let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
        for mut adj in adjacency {
            adj.sort_unstable_by_key(|&(j, _)| j);
            for (j, w) in adj {
                neighbors.push(j);
                weights.push(w);
            }
            offsets.push(neighbors.len() as u32);
        }
        CommGraph {
            offsets,
            neighbors,
            weights,
            positions: positions.to_vec(),
            comm_range,
        }
    }

    /// `build` equals the per-point reference bit for bit.
    fn same_as_per_point(pts: &[Point2], range: f64) -> Result<(), TestCaseError> {
        let (fast, reference) = (CommGraph::build(pts, range), build_per_point(pts, range));
        prop_assert_eq!(&fast.offsets, &reference.offsets);
        prop_assert_eq!(&fast.neighbors, &reference.neighbors);
        let bits = |g: &CommGraph| g.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fast), bits(&reference));
        Ok(())
    }

    /// A `cols × rows` lattice spaced `s`, from `origin`: every axis
    /// neighbour sits at exactly the spacing, on a cell boundary when the
    /// spacing is the range.
    fn lattice(origin: (f64, f64), s: f64, cols: usize, rows: usize) -> Vec<Point2> {
        (0..cols * rows)
            .map(|k| {
                Point2::new(
                    origin.0 + (k % cols) as f64 * s,
                    origin.1 + (k / cols) as f64 * s,
                )
            })
            .collect()
    }

    #[test]
    fn build_matches_per_point_on_edge_cases() {
        let single = [Point2::new(3.0, 4.0)];
        same_as_per_point(&single, 12.0).unwrap();
        same_as_per_point(&[], 12.0).unwrap();
        // Duplicates: distance 0 links every copy to every other.
        let dup = vec![Point2::new(5.0, 5.0); 7];
        same_as_per_point(&dup, 12.0).unwrap();
        assert_eq!(CommGraph::build(&dup, 12.0).degree(0), 6);
        // A range below the 1e-6 cell clamp.
        let tiny = lattice((1.0, 1.0), 3e-7, 6, 6);
        same_as_per_point(&tiny, 3e-7).unwrap();
        same_as_per_point(&tiny, 5e-7).unwrap();
        // The paper's deployment: 500 sensors plus the base on 200 m.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut paper = vec![Point2::new(100.0, 100.0)];
        paper.extend(
            (0..500).map(|_| Point2::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0))),
        );
        same_as_per_point(&paper, 12.0).unwrap();
    }

    #[test]
    fn chain_adjacency() {
        let g = CommGraph::build(&chain(4, 10.0), 12.0);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        let n1: Vec<usize> = g.neighbors(1).map(|(j, _)| j).collect();
        assert_eq!(n1, vec![0, 2]);
        let w: Vec<f64> = g.neighbors(1).map(|(_, w)| w).collect();
        assert!(w.iter().all(|&d| (d - 10.0).abs() < 1e-12));
    }

    #[test]
    fn range_boundary_is_inclusive() {
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(12.0, 0.0),
            Point2::new(24.1, 0.0),
        ];
        let g = CommGraph::build(&pos, 12.0);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1); // 12.1 m to node 2 exceeds range
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn components_split_correctly() {
        let mut pos = chain(3, 10.0);
        pos.extend(
            chain(2, 10.0)
                .into_iter()
                .map(|p| Point2::new(p.x + 100.0, p.y)),
        );
        let g = CommGraph::build(&pos, 12.0);
        let c = g.components();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
    }

    #[test]
    fn empty_graph() {
        let g = CommGraph::build(&[], 12.0);
        assert!(g.is_empty());
        assert_eq!(g.components(), Vec::<usize>::new());
    }

    proptest! {
        #[test]
        fn prop_build_matches_per_point(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..120),
            dups in proptest::collection::vec(0usize..120, 0..6),
            range in 0.5f64..40.0,
        ) {
            let mut pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            for d in dups {
                pts.push(pts[d % pts.len()]);
            }
            same_as_per_point(&pts, range)?;
        }

        #[test]
        fn prop_lattice_at_exactly_the_range_matches_per_point(
            origin in (-50.0f64..50.0, -50.0f64..50.0),
            spacing in 0.01f64..20.0,
            cols in 1usize..12,
            rows in 1usize..12,
        ) {
            let pts = lattice(origin, spacing, cols, rows);
            same_as_per_point(&pts, spacing)?;
        }

        #[test]
        fn prop_graph_is_symmetric(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..80),
            range in 1.0f64..40.0,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let g = CommGraph::build(&pts, range);
            for i in 0..g.len() {
                for (j, w) in g.neighbors(i) {
                    let back = g.neighbors(j).find(|&(k, _)| k == i);
                    prop_assert!(back.is_some(), "edge {i}->{j} missing reverse");
                    prop_assert!((back.unwrap().1 - w).abs() < 1e-9);
                    prop_assert!(w <= range + 1e-9);
                }
            }
        }
    }
}
