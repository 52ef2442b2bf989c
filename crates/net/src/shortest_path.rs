//! Single-source shortest paths: Dijkstra (production) and Bellman-Ford
//! (reference oracle for property tests).

use crate::CommGraph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// `dist[v]` = shortest distance from the source to `v`
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` = predecessor of `v` on a shortest path from the source
    /// (`None` for the source itself and for unreachable nodes).
    pub parent: Vec<Option<usize>>,
    /// The source node.
    pub source: usize,
    /// Every reachable node once, each after its parent (the source
    /// first): Dijkstra's settle order. Folding in this order resolves
    /// parents before children; folding it reversed, children first.
    pub settled: Vec<usize>,
}

impl ShortestPaths {
    /// Whether `v` is reachable from the source.
    #[inline]
    pub fn reachable(&self, v: usize) -> bool {
        self.dist[v].is_finite()
    }

    /// Reconstructs the path source → … → `v`, or `None` if unreachable.
    pub fn path_to(&self, v: usize) -> Option<Vec<usize>> {
        if !self.reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }
}

/// Binary-heap entry ordered by smallest `(dist, node)` first.
///
/// The node index is a deterministic tie-break: equal-distance nodes
/// settle in index order, which makes the produced *parents* (not just
/// the distances) a pure function of the graph and the enabled set — the
/// **canonical tree** property the incremental repair in
/// [`crate::DynamicRoutingTree`] relies on. With this ordering and
/// strict-`<` relaxation, `parent[v]` is always the neighbor `u`
/// minimizing `(dist[u], u != source, u)` among the achievers
/// `{u : dist[u] + w(u,v) == dist[v]}` — the source outranks
/// equal-distance nodes because it pops before their entries are even
/// pushed (relevant only for zero-weight edges, i.e. nodes coincident
/// with the source). See DESIGN.md §4f for the argument.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; weights are finite non-negative
        // distances. Ties broken by node index (see the struct docs).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra's algorithm from `source` over the communication graph.
///
/// O((V + E) log V) with a binary heap; edge weights (distances) are always
/// non-negative so Dijkstra is applicable.
///
/// # Panics
/// Panics if `source` is out of bounds.
pub fn shortest_paths(graph: &CommGraph, source: usize) -> ShortestPaths {
    shortest_paths_enabled(graph, source, |_| true)
}

/// Dijkstra restricted to nodes for which `enabled` returns `true`
/// (disabled nodes — e.g. sensors with depleted batteries — can neither
/// relay nor terminate paths; they report as unreachable). The source
/// itself is always enabled.
///
/// # Panics
/// Panics if `source` is out of bounds.
pub fn shortest_paths_enabled<F: Fn(usize) -> bool>(
    graph: &CommGraph,
    source: usize,
    enabled: F,
) -> ShortestPaths {
    let n = graph.len();
    assert!(source < n, "source {source} out of bounds for {n} nodes");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut heap = BinaryHeap::new();
    let mut settled = Vec::with_capacity(n);
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source as u32,
    });

    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        let u = node as usize;
        if d > dist[u] {
            continue; // stale entry
        }
        // Pushes strictly lower a node's distance, so only its last
        // entry is live: each node settles once, and after its parent,
        // which settled when it relaxed the node.
        settled.push(u);
        for (v, w) in graph.neighbors(u) {
            if !enabled(v) {
                continue;
            }
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = Some(u);
                heap.push(HeapEntry {
                    dist: nd,
                    node: v as u32,
                });
            }
        }
    }
    ShortestPaths {
        dist,
        parent,
        source,
        settled,
    }
}

/// Bellman-Ford from `source`. O(V·E); kept as the independently-coded
/// oracle the property tests compare Dijkstra against.
///
/// # Panics
/// Panics if `source` is out of bounds.
pub fn bellman_ford(graph: &CommGraph, source: usize) -> ShortestPaths {
    let n = graph.len();
    assert!(source < n, "source {source} out of bounds for {n} nodes");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    dist[source] = 0.0;
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for u in 0..n {
            if !dist[u].is_finite() {
                continue;
            }
            for (v, w) in graph.neighbors(u) {
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    parent[v] = Some(u);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Breadth-first down the parent tree: each node after its parent.
    let mut settled = vec![source];
    let mut next = 0;
    while let Some(&u) = settled.get(next) {
        settled.extend((0..n).filter(|&v| parent[v] == Some(u)));
        next += 1;
    }
    ShortestPaths {
        dist,
        parent,
        source,
        settled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wrsn_geom::Point2;

    fn grid_graph() -> CommGraph {
        // 3×3 grid with 10 m spacing, 12 m comm range: only axis-aligned
        // neighbors connect (diagonal = 14.1 m).
        let pos: Vec<Point2> = (0..9)
            .map(|i| Point2::new((i % 3) as f64 * 10.0, (i / 3) as f64 * 10.0))
            .collect();
        CommGraph::build(&pos, 12.0)
    }

    #[test]
    fn dijkstra_on_grid() {
        let g = grid_graph();
        let sp = shortest_paths(&g, 0);
        assert_eq!(sp.dist[0], 0.0);
        assert!((sp.dist[8] - 40.0).abs() < 1e-9); // manhattan path
        let path = sp.path_to(8).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&8));
        assert_eq!(path.len(), 5); // 4 hops
    }

    #[test]
    fn unreachable_nodes_report_infinity() {
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(500.0, 0.0),
        ];
        let g = CommGraph::build(&pos, 12.0);
        let sp = shortest_paths(&g, 0);
        assert!(sp.reachable(1));
        assert!(!sp.reachable(2));
        assert!(sp.path_to(2).is_none());
    }

    #[test]
    fn path_to_source_is_trivial() {
        let g = grid_graph();
        let sp = shortest_paths(&g, 4);
        assert_eq!(sp.path_to(4).unwrap(), vec![4]);
    }

    /// `settled` lists every reachable node exactly once, each after its
    /// parent.
    fn assert_parent_first(sp: &ShortestPaths) -> Result<(), TestCaseError> {
        let mut pos = vec![None; sp.dist.len()];
        for (i, &v) in sp.settled.iter().enumerate() {
            prop_assert!(pos[v].is_none(), "node {} settled twice", v);
            pos[v] = Some(i);
        }
        for v in 0..sp.dist.len() {
            prop_assert_eq!(pos[v].is_some(), sp.reachable(v), "node {}", v);
            if let (Some(p), Some(i)) = (sp.parent[v], pos[v]) {
                prop_assert!(
                    pos[p] < Some(i),
                    "node {} settled before its parent {}",
                    v,
                    p
                );
            }
        }
        prop_assert_eq!(sp.settled[0], sp.source);
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_settle_order_is_parent_first(
            pts in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..50),
            range in 5.0f64..30.0,
            src_sel in 0usize..50,
            disabled in proptest::collection::vec(proptest::bool::weighted(0.2), 50),
        ) {
            // Duplicate points give zero-weight edges: ties in distance
            // that a sort by distance would not order parent-first.
            let mut pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            pts.extend(pts.clone().into_iter().step_by(3));
            let g = CommGraph::build(&pts, range);
            let src = src_sel % g.len();
            assert_parent_first(&shortest_paths_enabled(&g, src, |v| !disabled[v % 50]))?;
            assert_parent_first(&bellman_ford(&g, src))?;
        }

        #[test]
        fn prop_dijkstra_matches_bellman_ford(
            pts in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..50),
            range in 5.0f64..30.0,
            src_sel in 0usize..50,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let g = CommGraph::build(&pts, range);
            let src = src_sel % g.len();
            let a = shortest_paths(&g, src);
            let b = bellman_ford(&g, src);
            for v in 0..g.len() {
                match (a.dist[v].is_finite(), b.dist[v].is_finite()) {
                    (true, true) => prop_assert!((a.dist[v] - b.dist[v]).abs() < 1e-6),
                    (fa, fb) => prop_assert_eq!(fa, fb, "reachability mismatch at {}", v),
                }
            }
        }

        #[test]
        fn prop_parents_form_shortest_path_tree(
            pts in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 2..50),
            range in 5.0f64..30.0,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let g = CommGraph::build(&pts, range);
            let sp = shortest_paths(&g, 0);
            for v in 0..g.len() {
                if let Some(p) = sp.parent[v] {
                    // Parent edge exists and distances are consistent.
                    let w = g.neighbors(p).find(|&(k, _)| k == v).map(|(_, w)| w);
                    prop_assert!(w.is_some());
                    prop_assert!((sp.dist[p] + w.unwrap() - sp.dist[v]).abs() < 1e-6);
                }
            }
        }
    }
}
