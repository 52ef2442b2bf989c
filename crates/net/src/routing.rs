//! Routing trees toward the base station: the one-shot [`RoutingTree`]
//! (full Dijkstra, the differential oracle) and the event-incremental
//! [`DynamicRoutingTree`] (subtree repair on liveness changes, relay-load
//! deltas on generator changes and handovers, loads settled once per
//! batch).

use crate::shortest_path::HeapEntry;
use crate::{shortest_paths_enabled, CommGraph, TrafficLoad};
use std::collections::BinaryHeap;

/// Per-node next hops toward a sink node, derived from a shortest-path tree
/// (the paper routes data to the base station along Dijkstra paths, §V).
#[derive(Debug, Clone)]
pub struct RoutingTree {
    sink: usize,
    next_hop: Vec<Option<usize>>,
    hops: Vec<Option<usize>>,
    dist: Vec<f64>,
}

impl RoutingTree {
    /// Builds the routing tree of shortest paths toward `sink`.
    pub fn toward(graph: &CommGraph, sink: usize) -> Self {
        Self::toward_enabled(graph, sink, |_| true)
    }

    /// Like [`RoutingTree::toward`] but routing only through nodes for
    /// which `enabled` is true (depleted sensors cannot relay).
    pub fn toward_enabled<F: Fn(usize) -> bool>(
        graph: &CommGraph,
        sink: usize,
        enabled: F,
    ) -> Self {
        // Shortest paths *from* the sink equal shortest paths *to* it
        // (the graph is undirected); each node's parent in that tree is its
        // next hop toward the sink.
        let sp = shortest_paths_enabled(graph, sink, enabled);
        let n = graph.len();
        let mut hops = vec![None; n];
        hops[sink] = Some(0);
        // Settle order: parents resolve before children.
        for &v in &sp.settled {
            if let Some(p) = sp.parent[v] {
                hops[v] = hops[p].map(|h| h + 1);
            }
        }
        Self {
            sink,
            next_hop: sp.parent.clone(),
            hops,
            dist: sp.dist.clone(),
        }
    }

    /// The sink (base station) node.
    #[inline]
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.next_hop.len()
    }

    /// True when the tree has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.next_hop.is_empty()
    }

    /// Next hop of `v` toward the sink. `None` for the sink itself and for
    /// disconnected nodes.
    #[inline]
    pub fn next_hop(&self, v: usize) -> Option<usize> {
        self.next_hop[v]
    }

    /// Hop count from `v` to the sink (0 for the sink), `None` when
    /// disconnected.
    #[inline]
    pub fn hops(&self, v: usize) -> Option<usize> {
        self.hops[v]
    }

    /// Whether `v` can deliver data to the sink.
    #[inline]
    pub fn connected(&self, v: usize) -> bool {
        v == self.sink || self.next_hop[v].is_some()
    }

    /// Shortest-path distance (meters) from `v` to the sink.
    #[inline]
    pub fn distance(&self, v: usize) -> f64 {
        self.dist[v]
    }

    /// The full route `v → … → sink`, or `None` when disconnected.
    pub fn route(&self, v: usize) -> Option<Vec<usize>> {
        if !self.connected(v) {
            return None;
        }
        let mut route = vec![v];
        let mut cur = v;
        while let Some(h) = self.next_hop[cur] {
            route.push(h);
            cur = h;
        }
        Some(route)
    }
}

const NONE: u32 = u32::MAX;

/// Event-incremental shortest-path routing tree with maintained relay
/// loads.
///
/// Semantically identical to `RoutingTree::toward_enabled` + `relay_loads`
/// recomputed from scratch, but maintained under three kinds of events:
///
/// * [`set_enabled`](Self::set_enabled) — a node dies/revives/suspends/
///   resumes. Repairs only the detached subtree (disable) or the improved
///   region (enable) instead of re-running Dijkstra over the whole graph.
/// * [`set_generator`](Self::set_generator) — a node starts or stops
///   generating. Walks the ancestor chain applying a ±1 subtree-count
///   delta instead of re-folding the whole tree's loads.
/// * [`move_generator`](Self::move_generator) — a rota handover moves the
///   sensing duty from one node to another. Walks the two ancestor
///   chains only up to where they meet: above that point the −1 and +1
///   cancel.
/// * [`rebuild`](Self::rebuild) — the graph itself changed (mobility):
///   full Dijkstra fallback.
///
/// **Canonical tree.** Dijkstra with heap entries ordered by
/// `(dist, node)` and strict-`<` relaxation produces a *canonical* tree:
/// `parent[v]` is the neighbor `u` minimizing `(dist[u], u != sink, u)`
/// among the *achievers* `{u : dist[u] + w(u,v) == dist[v]}`. That makes
/// the tree a pure function of (graph, enabled set) — no dependence on
/// repair history — which is what lets incremental repair promise
/// bitwise equality with a from-scratch rebuild. Repairs recompute
/// distances first, then derive parents by the achiever rule in a
/// post-pass (see DESIGN.md §4f for the proof and the fallback
/// conditions).
///
/// **Loads.** Relay loads are maintained as integer subtree generator
/// counts and materialized as `count × rate`. For dyadic rates (the
/// production `data_rate_pps = 0.25`) this is bitwise identical to the
/// historical `relay_loads` float fold; see `traffic::relay_load_counts`.
///
/// **Settling.** Chain walks and repairs update counts only and mark the
/// nodes they touch; [`settle`](Self::settle) materializes each marked
/// node once. A load event keeps the node's load as of the last
/// [`take_load_events`](Self::take_load_events) drain, and a drain
/// reports only the loads that still differ, so the events name exactly
/// the loads that moved net since the last drain. Every mutator but
/// `move_generator` settles before it returns; [`loads`](Self::loads)
/// must not be read while a move is unsettled.
#[derive(Debug, Clone)]
pub struct DynamicRoutingTree {
    sink: usize,
    rate_pps: f64,
    enabled: Vec<bool>,
    gen: Vec<bool>,
    dist: Vec<f64>,
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    /// Subtree generator count (own generator included); 0 when
    /// disconnected.
    sc: Vec<u32>,
    loads: Vec<TrafficLoad>,
    // Deduplicated queue of nodes whose materialized load changed since
    // the last `take_load_events` drain, each with its load as of that
    // drain, so a drain reports only net changes; `load_events_all`
    // collapses the queue after a wholesale rebuild / load restore. The
    // consumer (the simulator's drain-rate refresh) recomputes drain
    // rates for only the nodes that actually changed.
    load_events: Vec<(u32, TrafficLoad)>,
    load_event_flag: Vec<bool>,
    load_events_all: bool,
    // Deduplicated nodes whose subtree count, generator bit or
    // connectivity changed since the last `settle`; their `loads` entry
    // is stale until then.
    unsettled: Vec<u32>,
    unsettled_flag: Vec<bool>,
    // Scratch buffers reused across repairs (no per-event allocation in
    // the steady state).
    heap: BinaryHeap<HeapEntry>,
    affected: Vec<u32>,
    in_affected: Vec<bool>,
    improved: Vec<bool>,
}

impl DynamicRoutingTree {
    /// An empty (all-disconnected, all-disabled) tree over `n` nodes; call
    /// [`rebuild`](Self::rebuild) to populate it.
    pub fn new(n: usize, sink: usize, rate_pps: f64) -> Self {
        assert!(sink < n, "sink {sink} out of bounds for {n} nodes");
        Self {
            sink,
            rate_pps,
            enabled: vec![false; n],
            gen: vec![false; n],
            dist: vec![f64::INFINITY; n],
            parent: vec![NONE; n],
            children: vec![Vec::new(); n],
            sc: vec![0; n],
            loads: vec![TrafficLoad::default(); n],
            load_events: Vec::new(),
            load_event_flag: vec![false; n],
            load_events_all: false,
            unsettled: Vec::new(),
            unsettled_flag: vec![false; n],
            heap: BinaryHeap::new(),
            affected: Vec::new(),
            in_affected: vec![false; n],
            improved: vec![false; n],
        }
    }

    /// Full rebuild from scratch (the mobility fallback): one Dijkstra,
    /// then subtree counts bottom-up. The sink is always enabled.
    pub fn rebuild<E, G>(&mut self, graph: &CommGraph, enabled: E, gen: G)
    where
        E: Fn(usize) -> bool,
        G: Fn(usize) -> bool,
    {
        let n = graph.len();
        assert_eq!(n, self.enabled.len(), "graph size changed");
        for v in 0..n {
            self.enabled[v] = v == self.sink || enabled(v);
            self.gen[v] = gen(v);
            self.children[v].clear();
            self.sc[v] = 0;
        }
        let en = &self.enabled;
        let sp = shortest_paths_enabled(graph, self.sink, |v| en[v]);
        self.dist.copy_from_slice(&sp.dist);
        for v in 0..n {
            self.parent[v] = sp.parent[v].map_or(NONE, |p| p as u32);
        }
        for v in 0..n {
            let p = self.parent[v];
            if p != NONE {
                self.children[p as usize].push(v as u32);
            }
        }
        // Subtree counts bottom-up: reversed settle order folds every
        // child before its parent.
        for &v in sp.settled.iter().rev() {
            self.sc[v] += self.gen[v] as u32;
            let p = self.parent[v];
            if p != NONE {
                self.sc[p as usize] += self.sc[v];
            }
        }
        self.clear_unsettled();
        for v in 0..n {
            self.materialize(v);
        }
        self.load_events_all = true;
    }

    /// Flips a node's sensing-duty (generator) flag, updating relay loads
    /// along its ancestor chain only. O(depth). Settles.
    pub fn set_generator(&mut self, v: usize, on: bool) {
        if self.gen[v] == on {
            return;
        }
        self.gen[v] = on;
        if self.dist[v].is_finite() {
            self.chain_add(v, if on { 1 } else { -1 });
        }
        self.settle();
    }

    /// Hands the sensing duty from generator `from` to non-generator `to`
    /// (a rota handover). Both chains are climbed together, always the
    /// one whose head has the larger canonical `(dist, node≠sink, node)`
    /// key, applying −1 on `from`'s side and +1 on `to`'s until the heads
    /// meet; the nodes above the meeting point keep their counts. The
    /// meeting node itself is marked too: when it *is* `from` or `to`,
    /// its rx load changes though its count does not. A disconnected
    /// endpoint contributes no chain. O(distance between the two nodes
    /// in the tree).
    ///
    /// Does **not** settle: call [`settle`](Self::settle) once after a
    /// batch of moves.
    pub fn move_generator(&mut self, from: usize, to: usize) {
        debug_assert!(from != to, "handover to the same node {from}");
        debug_assert!(self.gen[from], "handover from non-generator {from}");
        debug_assert!(!self.gen[to], "handover to generator {to}");
        self.gen[from] = false;
        self.gen[to] = true;
        match (self.dist[from].is_finite(), self.dist[to].is_finite()) {
            (true, true) => {}
            (true, false) => return self.chain_add(from, -1),
            (false, true) => return self.chain_add(to, 1),
            (false, false) => return,
        }
        let (mut a, mut b) = (from, to);
        // The sink's key is the smallest, and it is every connected node's
        // root, so the heads meet at the latest there.
        while a != b {
            if self.key_gt(a, b) {
                self.sc[a] -= 1;
                self.touch(a);
                a = self.parent[a] as usize;
            } else {
                self.sc[b] += 1;
                self.touch(b);
                b = self.parent[b] as usize;
            }
        }
        self.touch(a);
    }

    /// Flips a node's relay/liveness eligibility, repairing the routing
    /// tree incrementally. The sink cannot be disabled. Settles.
    pub fn set_enabled(&mut self, graph: &CommGraph, v: usize, on: bool) {
        assert!(v != self.sink, "cannot disable the sink");
        if self.enabled[v] == on {
            return;
        }
        if on {
            self.enable(graph, v);
        } else {
            self.disable(graph, v);
        }
        self.settle();
    }

    /// Materializes the load of every node touched since the last settle,
    /// once each, recording a load event where the value changed.
    pub fn settle(&mut self) {
        for i in 0..self.unsettled.len() {
            let v = self.unsettled[i] as usize;
            self.unsettled_flag[v] = false;
            self.materialize(v);
        }
        self.unsettled.clear();
    }

    /// Overwrites the materialized loads wholesale (snapshot resume: the
    /// stored loads are the last-refresh values, which a pending full
    /// rebuild will supersede — but an immediate re-save must reproduce
    /// them byte for byte).
    ///
    /// # Panics
    /// Panics when `loads.len()` differs from the tree size.
    pub fn restore_loads(&mut self, loads: &[TrafficLoad]) {
        assert_eq!(loads.len(), self.loads.len(), "loads length mismatch");
        self.clear_unsettled();
        self.loads.copy_from_slice(loads);
        self.load_events_all = true;
    }

    // ---- accessors -----------------------------------------------------

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// True when the tree has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }

    /// The sink (base station) node.
    #[inline]
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// The per-generator data rate the loads are materialized at.
    #[inline]
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }

    /// Whether `v` currently relays (enabled and routing goes through it).
    #[inline]
    pub fn enabled(&self, v: usize) -> bool {
        self.enabled[v]
    }

    /// Whether `v` currently generates traffic.
    #[inline]
    pub fn generator(&self, v: usize) -> bool {
        self.gen[v]
    }

    /// Whether `v` can deliver data to the sink.
    #[inline]
    pub fn connected(&self, v: usize) -> bool {
        self.dist[v].is_finite()
    }

    /// Shortest-path distance (meters) from `v` to the sink;
    /// `f64::INFINITY` when disconnected.
    #[inline]
    pub fn distance(&self, v: usize) -> f64 {
        self.dist[v]
    }

    /// Next hop of `v` toward the sink (`None` for the sink and for
    /// disconnected nodes).
    #[inline]
    pub fn next_hop(&self, v: usize) -> Option<usize> {
        let p = self.parent[v];
        (p != NONE).then_some(p as usize)
    }

    /// Maintained per-node relay loads (identical to `relay_loads` over
    /// the equivalent naive tree; bitwise so for dyadic rates). Valid
    /// only when settled.
    #[inline]
    pub fn loads(&self) -> &[TrafficLoad] {
        debug_assert!(self.unsettled.is_empty(), "loads read before settle");
        &self.loads
    }

    /// Subtree generator count of `v` (its own generator included).
    #[inline]
    pub fn subtree_generators(&self, v: usize) -> u32 {
        self.sc[v]
    }

    /// Drains the set of nodes whose materialized load differs from its
    /// value at the last drain, passing each to `f` once (unsorted): a
    /// load that moved and moved back is not reported. Returns `true`
    /// when *every* node must be treated as changed (a wholesale
    /// [`rebuild`](Self::rebuild) or
    /// [`restore_loads`](Self::restore_loads) happened since the last
    /// drain) — in that case `f` is not called.
    pub fn take_load_events(&mut self, mut f: impl FnMut(u32)) -> bool {
        let all = self.load_events_all;
        self.load_events_all = false;
        for &(v, base) in &self.load_events {
            self.load_event_flag[v as usize] = false;
            if !all && self.loads[v as usize] != base {
                f(v);
            }
        }
        self.load_events.clear();
        all
    }

    /// Whether `v`'s load moved since the last
    /// [`take_load_events`](Self::take_load_events) drain, possibly back
    /// to its drained value (always `true` while a pending wholesale
    /// rebuild collapses the queue to "all").
    #[inline]
    pub fn load_event_pending(&self, v: usize) -> bool {
        self.load_events_all || self.load_event_flag[v]
    }

    // ---- differential oracle -------------------------------------------

    /// Checks this tree bitwise against a from-scratch canonical rebuild
    /// over its *own* enabled/generator state: distances, parents, subtree
    /// counts, children-list consistency and materialized loads must all
    /// agree exactly. Returns a description of the first divergence.
    ///
    /// This is the retained differential oracle the simulator runs every
    /// debug tick; it is valid regardless of whether the caller's dirty
    /// queues have been flushed (it checks repair correctness, not
    /// staleness).
    pub fn verify(&self, graph: &CommGraph) -> Result<(), String> {
        let n = self.len();
        assert_eq!(graph.len(), n, "graph size mismatch");
        debug_assert!(self.unsettled.is_empty(), "verify before settle");
        let en = &self.enabled;
        let sp = shortest_paths_enabled(graph, self.sink, |v| en[v]);
        let mut sc_ref = vec![0u32; n];
        for &v in sp.settled.iter().rev() {
            sc_ref[v] += self.gen[v] as u32;
            if let Some(p) = sp.parent[v] {
                sc_ref[p] += sc_ref[v];
            }
        }
        #[allow(clippy::needless_range_loop)] // indexes five parallel columns
        for v in 0..n {
            if self.dist[v].to_bits() != sp.dist[v].to_bits() {
                return Err(format!(
                    "dist[{v}]: incremental {} vs oracle {}",
                    self.dist[v], sp.dist[v]
                ));
            }
            let p_ref = sp.parent[v].map_or(NONE, |p| p as u32);
            if self.parent[v] != p_ref {
                return Err(format!(
                    "parent[{v}]: incremental {:?} vs oracle {:?}",
                    self.next_hop(v),
                    sp.parent[v]
                ));
            }
            if self.sc[v] != sc_ref[v] {
                return Err(format!(
                    "subtree count[{v}]: incremental {} vs oracle {}",
                    self.sc[v], sc_ref[v]
                ));
            }
            let l_ref = self.load_for(v, sc_ref[v], sp.dist[v].is_finite());
            if self.loads[v] != l_ref {
                return Err(format!(
                    "loads[{v}]: incremental {:?} vs oracle {:?}",
                    self.loads[v], l_ref
                ));
            }
            for &c in &self.children[v] {
                if self.parent[c as usize] != v as u32 {
                    return Err(format!("children[{v}] lists {c} whose parent differs"));
                }
            }
        }
        let child_edges: usize = self.children.iter().map(|c| c.len()).sum();
        let parent_edges = (0..n).filter(|&v| self.parent[v] != NONE).count();
        if child_edges != parent_edges {
            return Err(format!(
                "children lists hold {child_edges} edges but {parent_edges} parents are set"
            ));
        }
        Ok(())
    }

    // ---- internals -----------------------------------------------------

    fn load_for(&self, v: usize, sc: u32, connected: bool) -> TrafficLoad {
        if !connected {
            return TrafficLoad::default();
        }
        let rx = (sc - self.gen[v] as u32) as f64 * self.rate_pps;
        TrafficLoad {
            tx_pps: if v == self.sink {
                0.0
            } else {
                sc as f64 * self.rate_pps
            },
            rx_pps: rx,
        }
    }

    /// Stores `v`'s load as derived from its current count, generator bit
    /// and connectivity, queueing it for the next drain (with its drained
    /// value) when the value actually changed. The comparison is
    /// bitwise-safe: every materialized load is a non-negative product
    /// (never `-0.0`), so value equality implies bit equality.
    fn materialize(&mut self, v: usize) {
        let new = self.load_for(v, self.sc[v], self.dist[v].is_finite());
        let old = self.loads[v];
        if old != new {
            self.loads[v] = new;
            if !self.load_events_all && !self.load_event_flag[v] {
                self.load_event_flag[v] = true;
                self.load_events.push((v as u32, old));
            }
        }
    }

    /// Marks `v`'s load for the next [`settle`](Self::settle).
    #[inline]
    fn touch(&mut self, v: usize) {
        if !self.unsettled_flag[v] {
            self.unsettled_flag[v] = true;
            self.unsettled.push(v as u32);
        }
    }

    /// Drops the pending marks: a wholesale rebuild or restore overwrites
    /// every load anyway.
    fn clear_unsettled(&mut self) {
        for &v in &self.unsettled {
            self.unsettled_flag[v as usize] = false;
        }
        self.unsettled.clear();
    }

    /// Whether `a`'s canonical `(dist, a≠sink, a)` key exceeds `b`'s: a
    /// parent's key is below its child's, so the larger key is the head
    /// to climb.
    #[inline]
    fn key_gt(&self, a: usize, b: usize) -> bool {
        let key = |v: usize| (v != self.sink, v);
        match self.dist[a].total_cmp(&self.dist[b]) {
            std::cmp::Ordering::Equal => key(a) > key(b),
            o => o == std::cmp::Ordering::Greater,
        }
    }

    /// Applies `delta` to the subtree counts of `from` and every ancestor
    /// up to the sink, marking each for the next settle.
    fn chain_add(&mut self, from: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        let mut v = from;
        loop {
            self.sc[v] = (self.sc[v] as i64 + delta) as u32;
            self.touch(v);
            let p = self.parent[v];
            if p == NONE {
                break;
            }
            v = p as usize;
        }
    }

    fn remove_child(&mut self, p: usize, c: usize) {
        let pos = self.children[p]
            .iter()
            .position(|&x| x == c as u32)
            .expect("child missing from parent's list");
        self.children[p].swap_remove(pos);
    }

    /// Cuts the tree edge above `u` (if any), propagating the subtree
    /// count removal up the old ancestor chain.
    fn detach(&mut self, u: usize) {
        let p = self.parent[u];
        if p == NONE {
            return;
        }
        self.parent[u] = NONE;
        self.remove_child(p as usize, u);
        self.chain_add(p as usize, -(self.sc[u] as i64));
    }

    /// Best current offer to `u` from enabled, connected neighbors.
    fn seed_offer(&self, graph: &CommGraph, u: usize) -> f64 {
        let mut best = f64::INFINITY;
        for (w, wt) in graph.neighbors(u) {
            if self.enabled[w] && self.dist[w].is_finite() {
                let nd = self.dist[w] + wt;
                if nd < best {
                    best = nd;
                }
            }
        }
        best
    }

    fn mark_affected(&mut self, u: usize) {
        if !self.in_affected[u] {
            self.in_affected[u] = true;
            self.affected.push(u as u32);
        }
    }

    fn enable(&mut self, graph: &CommGraph, v: usize) {
        self.enabled[v] = true;
        debug_assert!(
            !self.dist[v].is_finite() && self.parent[v] == NONE && self.children[v].is_empty(),
            "disabled node must be disconnected"
        );
        let offer = self.seed_offer(graph, v);
        if !offer.is_finite() {
            return; // still unreachable; cannot help anyone else either
        }
        self.affected.clear();
        self.heap.clear();
        self.heap.push(HeapEntry {
            dist: offer,
            node: v as u32,
        });
        self.run_repair(graph);
    }

    fn disable(&mut self, graph: &CommGraph, v: usize) {
        self.enabled[v] = false;
        if !self.dist[v].is_finite() {
            return; // was not part of the tree
        }
        // Collect the subtree S rooted at v (breadth-first into `affected`,
        // which doubles as the traversal queue).
        self.affected.clear();
        self.affected.push(v as u32);
        self.in_affected[v] = true;
        let mut i = 0;
        while i < self.affected.len() {
            let u = self.affected[i] as usize;
            i += 1;
            for ci in 0..self.children[u].len() {
                let c = self.children[u][ci];
                self.affected.push(c);
                self.in_affected[c as usize] = true;
            }
        }
        // Cut S off at its root, then reset every member to the
        // disconnected state. Nodes outside S keep exact distances and
        // canonical parents: removal only lengthens paths, and any
        // alternative shortest path for an outside node avoids S (its
        // canonical parent chain does — otherwise it would be *in* S).
        self.detach(v);
        for i in 0..self.affected.len() {
            let u = self.affected[i] as usize;
            self.dist[u] = f64::INFINITY;
            self.parent[u] = NONE;
            self.children[u].clear();
            self.sc[u] = 0;
            self.touch(u);
        }
        // Re-seed the enabled members of S from the (untouched) boundary
        // and re-run Dijkstra restricted to the improved region.
        self.heap.clear();
        for i in 0..self.affected.len() {
            let u = self.affected[i] as usize;
            if !self.enabled[u] {
                continue;
            }
            let offer = self.seed_offer(graph, u);
            if offer.is_finite() {
                self.heap.push(HeapEntry {
                    dist: offer,
                    node: u as u32,
                });
            }
        }
        self.run_repair(graph);
    }

    /// Shared repair engine. On entry `heap` holds seed offers and
    /// `affected`/`in_affected` the nodes already known to need attention
    /// (all of them reset to disconnected state by `disable`; empty for
    /// `enable`).
    ///
    /// Phase A settles distances: a standard lazy-deletion Dijkstra whose
    /// pops strictly improve `dist`. The first improvement of a
    /// still-connected node eagerly cuts its old tree edge (its subtree
    /// riding along, counts intact); a disconnected node starts a fresh
    /// subtree of its own generator count. Exact equal-distance offers to
    /// unimproved nodes are recorded too — their distance is final but
    /// their *canonical parent* may now be a smaller-key achiever.
    ///
    /// Phase B re-derives canonical parents for every affected node by
    /// scanning its neighbors for the minimum-key achiever, applying
    /// reparents in increasing `(dist, node)` order so that a parent is
    /// always attached (its ancestor chain complete) before any of its
    /// children, keeping the chain-walk count updates exact.
    fn run_repair(&mut self, graph: &CommGraph) {
        while let Some(HeapEntry { dist: d, node }) = self.heap.pop() {
            let u = node as usize;
            if self.dist[u].is_finite() && d >= self.dist[u] {
                continue; // settled
            }
            self.mark_affected(u);
            if !self.improved[u] {
                self.improved[u] = true;
                if self.dist[u].is_finite() {
                    // First improvement of a connected node: take its
                    // subtree out of the old ancestor chain. Descendants
                    // that improve later subtract from a chain that now
                    // stops here — their counts were already removed from
                    // the older ancestors as part of ours.
                    self.detach(u);
                } else {
                    // Reconnecting: no children yet, counts start at the
                    // node's own generator bit.
                    self.sc[u] = self.gen[u] as u32;
                }
            }
            self.dist[u] = d;
            for (x, wt) in graph.neighbors(u) {
                if !self.enabled[x] {
                    continue;
                }
                let nd = d + wt;
                if !self.dist[x].is_finite() || nd < self.dist[x] {
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: x as u32,
                    });
                } else if nd == self.dist[x] {
                    // Distance unchanged, but `u`'s key may beat x's
                    // current parent's: recheck canonically in phase B.
                    self.mark_affected(x);
                }
            }
        }

        // Phase B: canonical parents, smallest (dist, node) first.
        self.affected.sort_unstable_by(|&a, &b| {
            self.dist[a as usize]
                .total_cmp(&self.dist[b as usize])
                .then_with(|| a.cmp(&b))
        });
        for i in 0..self.affected.len() {
            let u = self.affected[i] as usize;
            if self.dist[u].is_finite() && u != self.sink {
                let du = self.dist[u];
                let mut best = NONE;
                let mut best_dist = f64::INFINITY;
                for (w, wt) in graph.neighbors(u) {
                    if !self.enabled[w] || !self.dist[w].is_finite() {
                        continue;
                    }
                    if self.dist[w] + wt != du {
                        continue; // not an achiever
                    }
                    // Achiever with the minimum (dist, node≠sink, node)
                    // key: the sink precedes equal-distance nodes (it pops
                    // first in the reference Dijkstra — the only place
                    // push timing, not the heap key, decides pop order);
                    // otherwise neighbors iterate in index order, so
                    // keeping the first strict improvement selects the
                    // lowest index among equal distances.
                    let replace = match self.dist[w].total_cmp(&best_dist) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => w == self.sink,
                        std::cmp::Ordering::Greater => false,
                    };
                    if replace {
                        best = w as u32;
                        best_dist = self.dist[w];
                    }
                }
                debug_assert!(best != NONE, "connected node must have an achiever");
                if best != self.parent[u] {
                    self.detach(u);
                    self.parent[u] = best;
                    self.children[best as usize].push(u as u32);
                    self.chain_add(best as usize, self.sc[u] as i64);
                }
            }
            self.touch(u);
        }
        for i in 0..self.affected.len() {
            let u = self.affected[i] as usize;
            self.in_affected[u] = false;
            self.improved[u] = false;
        }
        self.affected.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wrsn_geom::Point2;

    fn chain(n: usize, spacing: f64) -> CommGraph {
        let pos: Vec<Point2> = (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        CommGraph::build(&pos, spacing + 1.0)
    }

    #[test]
    fn chain_routes_downhill() {
        let g = chain(5, 10.0);
        let t = RoutingTree::toward(&g, 0);
        for v in 1..5 {
            assert_eq!(t.next_hop(v), Some(v - 1));
            assert_eq!(t.hops(v), Some(v));
        }
        assert_eq!(t.next_hop(0), None);
        assert_eq!(t.hops(0), Some(0));
        assert_eq!(t.route(4).unwrap(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn dead_relay_breaks_the_chain() {
        // 0 — 1 — 2: with node 1 disabled, node 2 loses its route.
        let g = chain(3, 10.0);
        let t = RoutingTree::toward_enabled(&g, 0, |v| v != 1);
        assert!(!t.connected(1));
        assert!(!t.connected(2));
        assert!(t.connected(0));
    }

    #[test]
    fn dead_relay_forces_detour() {
        // Square: 0 — 1 — 3 and 0 — 2 — 3. Disabling 1 reroutes 3 via 2.
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(10.0, 10.0),
        ];
        let g = CommGraph::build(&pos, 11.0);
        let t = RoutingTree::toward_enabled(&g, 0, |v| v != 1);
        assert_eq!(t.next_hop(3), Some(2));
        assert_eq!(t.hops(3), Some(2));
    }

    #[test]
    fn disconnected_node_has_no_route() {
        let pos = [Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        let g = CommGraph::build(&pos, 12.0);
        let t = RoutingTree::toward(&g, 0);
        assert!(!t.connected(1));
        assert!(t.route(1).is_none());
        assert!(t.hops(1).is_none());
    }

    /// Naive reference state: tree + count-loads recomputed from scratch.
    fn oracle(
        g: &CommGraph,
        sink: usize,
        enabled: &[bool],
        gen: &[bool],
        rate: f64,
    ) -> (RoutingTree, Vec<TrafficLoad>) {
        let t = RoutingTree::toward_enabled(g, sink, |v| v == sink || enabled[v]);
        let loads = crate::relay_load_counts(&t, gen, rate);
        (t, loads)
    }

    /// Full equivalence check: incremental state ≡ from-scratch naive
    /// rebuild, bitwise.
    fn assert_matches_oracle(dyn_t: &DynamicRoutingTree, g: &CommGraph, ctx: &str) {
        dyn_t.verify(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let enabled: Vec<bool> = (0..g.len()).map(|v| dyn_t.enabled(v)).collect();
        let gen: Vec<bool> = (0..g.len()).map(|v| dyn_t.generator(v)).collect();
        let (t, loads) = oracle(g, dyn_t.sink(), &enabled, &gen, dyn_t.rate_pps());
        #[allow(clippy::needless_range_loop)] // compares parallel columns
        for v in 0..g.len() {
            assert_eq!(
                dyn_t.connected(v),
                t.connected(v),
                "{ctx}: connectivity of {v}"
            );
            assert_eq!(
                dyn_t.distance(v).to_bits(),
                t.distance(v).to_bits(),
                "{ctx}: dist of {v}"
            );
            assert_eq!(dyn_t.next_hop(v), t.next_hop(v), "{ctx}: parent of {v}");
            assert_eq!(dyn_t.loads()[v], loads[v], "{ctx}: loads of {v}");
        }
    }

    #[test]
    fn incremental_chain_break_and_heal() {
        let g = chain(5, 10.0);
        let mut t = DynamicRoutingTree::new(5, 0, 0.25);
        t.rebuild(&g, |_| true, |v| v != 0);
        assert_matches_oracle(&t, &g, "fresh");
        assert_eq!(t.subtree_generators(0), 4);

        // Kill the middle relay: 3 and 4 lose their route.
        t.set_enabled(&g, 2, false);
        assert!(!t.connected(2) && !t.connected(3) && !t.connected(4));
        assert_matches_oracle(&t, &g, "after break");

        // Revive it: everyone reconnects with exact loads.
        t.set_enabled(&g, 2, true);
        assert!(t.connected(4));
        assert_matches_oracle(&t, &g, "after heal");
        assert_eq!(t.subtree_generators(0), 4);
    }

    #[test]
    fn incremental_detour_reroute() {
        // Square: disabling 1 must reroute 3 via 2, and re-enabling must
        // restore the canonical (lower-index) parent.
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(10.0, 10.0),
        ];
        let g = CommGraph::build(&pos, 11.0);
        let mut t = DynamicRoutingTree::new(4, 0, 0.25);
        t.rebuild(&g, |_| true, |v| v != 0);
        assert_eq!(t.next_hop(3), Some(1), "canonical tie-break: lower index");
        t.set_enabled(&g, 1, false);
        assert_eq!(t.next_hop(3), Some(2));
        assert_matches_oracle(&t, &g, "detour");
        t.set_enabled(&g, 1, true);
        assert_eq!(t.next_hop(3), Some(1), "equal-dist reparent on revival");
        assert_matches_oracle(&t, &g, "restored");
    }

    #[test]
    fn generator_handover_walks_the_chain() {
        let g = chain(4, 10.0);
        let mut t = DynamicRoutingTree::new(4, 0, 0.25);
        t.rebuild(&g, |_| true, |v| v == 3);
        assert_eq!(t.loads()[1].tx_pps, 0.25);
        // Rota handover: duty moves 3 → 2.
        t.set_generator(3, false);
        t.set_generator(2, true);
        assert_eq!(t.loads()[3].tx_pps, 0.0);
        assert_eq!(t.loads()[1].rx_pps, 0.25);
        assert_matches_oracle(&t, &g, "handover");
    }

    /// The nodes a drain reports, sorted; panics on a wholesale "all".
    fn drained_events(t: &mut DynamicRoutingTree) -> Vec<u32> {
        let mut v = Vec::new();
        assert!(
            !t.take_load_events(|x| v.push(x)),
            "unexpected wholesale event"
        );
        v.sort_unstable();
        v
    }

    /// A fresh tree over `g` with generators `gen`, its rebuild's
    /// wholesale event already drained.
    fn fresh(g: &CommGraph, gen: impl Fn(usize) -> bool) -> DynamicRoutingTree {
        let mut t = DynamicRoutingTree::new(g.len(), 0, 0.25);
        t.rebuild(g, |_| true, gen);
        assert!(t.take_load_events(|_| {}));
        t
    }

    #[test]
    fn handover_stops_where_the_chains_meet() {
        // 0 — 1, with 2 and 3 both children of 1 (out of each other's
        // range): the duty moves 2 → 3, the chains meet at 1, and 1 and
        // the sink keep their loads.
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(18.0, 6.0),
            Point2::new(18.0, -6.0),
        ];
        let g = CommGraph::build(&pos, 11.0);
        let mut t = fresh(&g, |v| v == 2);
        assert_eq!((t.next_hop(2), t.next_hop(3)), (Some(1), Some(1)));
        t.move_generator(2, 3);
        t.settle();
        assert_matches_oracle(&t, &g, "sibling handover");
        assert_eq!(drained_events(&mut t), vec![2, 3]);
    }

    #[test]
    fn handover_to_an_ancestor_moves_its_rx_load() {
        // 0 — 1 — 2 — 3: the duty moves 3 → 1. Node 1 is the meeting
        // node: its count stays 1 but its rx load drops to zero.
        let g = chain(4, 10.0);
        let mut t = fresh(&g, |v| v == 3);
        t.move_generator(3, 1);
        t.settle();
        assert_matches_oracle(&t, &g, "handover to an ancestor");
        assert_eq!(t.loads()[1].rx_pps, 0.0);
        assert_eq!(drained_events(&mut t), vec![1, 2, 3]);
    }

    #[test]
    fn handover_from_the_parent_moves_its_rx_load() {
        // 0 — 1 — 2 — 3: the duty moves 2 → 3. Node 2 now relays 3.
        let g = chain(4, 10.0);
        let mut t = fresh(&g, |v| v == 2);
        t.move_generator(2, 3);
        t.settle();
        assert_matches_oracle(&t, &g, "handover from the parent");
        assert_eq!(t.loads()[2].rx_pps, 0.25);
        assert_eq!(drained_events(&mut t), vec![2, 3]);
    }

    #[test]
    fn handover_with_a_disconnected_endpoint_walks_one_chain() {
        // 0 — 1 — 2, plus node 3 out of everyone's range.
        let pos = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
            Point2::new(100.0, 0.0),
        ];
        let g = CommGraph::build(&pos, 11.0);
        let mut t = fresh(&g, |v| v == 2);
        assert!(!t.connected(3));
        t.move_generator(2, 3);
        t.settle();
        assert_matches_oracle(&t, &g, "handover to a disconnected node");
        assert_eq!(drained_events(&mut t), vec![0, 1, 2]);
        t.move_generator(3, 1);
        t.settle();
        assert_matches_oracle(&t, &g, "handover from a disconnected node");
        assert_eq!(drained_events(&mut t), vec![0, 1]);
    }

    #[test]
    fn moved_and_restored_loads_report_nothing() {
        // Self-settling flips that cancel out before a drain leave no
        // event behind.
        let g = chain(4, 10.0);
        let mut t = fresh(&g, |v| v == 3);
        t.set_generator(2, true);
        t.set_generator(2, false);
        t.move_generator(3, 1);
        t.move_generator(1, 3);
        t.settle();
        assert_matches_oracle(&t, &g, "round trip");
        assert_eq!(drained_events(&mut t), Vec::<u32>::new());
    }

    #[test]
    fn coincident_with_sink_parents_to_sink() {
        // Two nodes exactly on top of the sink plus one off to the side:
        // the zero-distance clique must parent to the sink (it pops first),
        // not to each other, whatever the indices say.
        let pos = [
            Point2::new(5.0, 5.0),
            Point2::new(5.0, 5.0),
            Point2::new(5.0, 5.0),
            Point2::new(13.0, 5.0),
        ];
        let g = CommGraph::build(&pos, 10.0);
        for sink in 0..3 {
            let mut t = DynamicRoutingTree::new(4, sink, 0.25);
            t.rebuild(&g, |_| true, |v| v != sink);
            assert_matches_oracle(&t, &g, "coincident fresh");
            for v in 0..3 {
                if v != sink {
                    assert_eq!(t.next_hop(v), Some(sink), "clique member {v}");
                }
            }
            // Churn the outside node and a clique member through
            // disable/enable; repairs must preserve the sink-first rule.
            for &v in &[3usize, (sink + 1) % 3] {
                t.set_enabled(&g, v, false);
                assert_matches_oracle(&t, &g, "coincident after disable");
                t.set_enabled(&g, v, true);
                assert_matches_oracle(&t, &g, "coincident after enable");
            }
        }
    }

    #[test]
    fn noop_events_change_nothing() {
        let g = chain(3, 10.0);
        let mut t = DynamicRoutingTree::new(3, 0, 0.25);
        t.rebuild(&g, |_| true, |v| v != 0);
        t.set_enabled(&g, 1, true); // already enabled
        t.set_generator(1, true); // already a generator
        assert_matches_oracle(&t, &g, "noop");
    }

    proptest! {
        /// The crate-level incrementality contract: any sequence of
        /// enable/disable/generator/handover events on any geometry
        /// (coincident points included via snapped coordinates) leaves
        /// the dynamic tree bitwise-equal to a from-scratch rebuild, and
        /// after each batch of events plus one settle the load events
        /// name exactly the nodes whose load bits changed in the batch.
        #[test]
        fn prop_incremental_equals_naive_under_event_sequences(
            pts in proptest::collection::vec((0u8..16, 0u8..16), 2..40),
            events in proptest::collection::vec(
                (0u8..5, 0usize..40, 0usize..40, proptest::bool::weighted(0.3)),
                1..60,
            ),
            range_sel in 1u8..5,
        ) {
            // Snap positions to a coarse grid so coincident nodes and
            // exact distance ties actually occur.
            let pts: Vec<Point2> = pts
                .into_iter()
                .map(|(x, y)| Point2::new(x as f64 * 5.0, y as f64 * 5.0))
                .collect();
            let g = CommGraph::build(&pts, range_sel as f64 * 5.0 + 1.0);
            let n = g.len();
            let mut t = fresh(&g, |v| v != 0);
            let bits = |l: TrafficLoad| (l.tx_pps.to_bits(), l.rx_pps.to_bits());
            let mut before = t.loads().to_vec();
            for (step, &(kind, raw, raw2, batch_end)) in events.iter().enumerate() {
                let v = 1 + raw % (n.max(2) - 1); // never the sink
                match kind {
                    0 => t.set_enabled(&g, v, false),
                    1 => t.set_enabled(&g, v, true),
                    2 => t.set_generator(v, false),
                    3 => t.set_generator(v, true),
                    _ => {
                        // A handover between a generator and a
                        // non-generator, whichever way round they come.
                        let w = 1 + raw2 % (n.max(2) - 1);
                        if t.generator(v) && !t.generator(w) {
                            t.move_generator(v, w);
                        } else if t.generator(w) && !t.generator(v) {
                            t.move_generator(w, v);
                        }
                    }
                }
                if !batch_end && step + 1 < events.len() {
                    continue;
                }
                t.settle();
                t.verify(&g).map_err(|e| {
                    TestCaseError(format!("batch ending at step {step} (kind {kind}, node {v}): {e}"))
                })?;
                let mut reported = vec![false; n];
                let all = t.take_load_events(|x| reported[x as usize] = true);
                prop_assert!(!all, "a batch reported a wholesale change");
                for x in 0..n {
                    prop_assert_eq!(
                        reported[x],
                        bits(before[x]) != bits(t.loads()[x]),
                        "batch ending at step {}: load event of node {} vs its load change",
                        step,
                        x
                    );
                }
                before.copy_from_slice(t.loads());
            }
            // Final deep check against the naive pipeline.
            let enabled: Vec<bool> = (0..n).map(|v| t.enabled(v)).collect();
            let gen: Vec<bool> = (0..n).map(|v| t.generator(v)).collect();
            let (naive, loads) = oracle(&g, 0, &enabled, &gen, 0.25);
            #[allow(clippy::needless_range_loop)] // compares parallel columns
            for v in 0..n {
                prop_assert_eq!(t.next_hop(v), naive.next_hop(v), "parent of {}", v);
                prop_assert_eq!(t.distance(v).to_bits(), naive.distance(v).to_bits());
                prop_assert_eq!(t.loads()[v], loads[v], "loads of {}", v);
            }
        }

        #[test]
        fn prop_routes_are_acyclic_and_terminate_at_sink(
            pts in proptest::collection::vec((0.0f64..80.0, 0.0f64..80.0), 1..60),
            range in 5.0f64..30.0,
        ) {
            let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let g = CommGraph::build(&pts, range);
            let t = RoutingTree::toward(&g, 0);
            for v in 0..g.len() {
                if let Some(route) = t.route(v) {
                    prop_assert_eq!(*route.last().unwrap(), 0);
                    prop_assert!(route.len() <= g.len(), "cycle detected");
                    // Hop counts agree with route length.
                    prop_assert_eq!(t.hops(v).unwrap(), route.len() - 1);
                }
            }
        }
    }
}
