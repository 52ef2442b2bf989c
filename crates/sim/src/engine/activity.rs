//! Phase 2 — sensor activity management (§III) and routing refresh.
//!
//! Owns the round-robin slot handover (each cluster's rota passes the
//! monitoring duty to its next live member every `slot_s`) and the
//! derived per-sensor activity states: *active* (rota holder, detector
//! powered), *dormant* (off-duty cluster member, everything off) or
//! *watching* (duty-cycled, everyone else).
//!
//! Routing maintenance is event-incremental (DESIGN.md §4f): the phases
//! queue what changed in [`super::RoutingDirty`] and
//! [`refresh_routing`] replays only that —
//!
//! * a **full** rebuild (cluster structure changed) re-derives activity
//!   wholesale and rebuilds the tree with one Dijkstra pass;
//! * otherwise each dirty *node* is an enabled-set toggle on the
//!   maintained [`wrsn_net::DynamicRoutingTree`] (subtree detach/repair)
//!   and each dirty *cluster* (all of them after a slot advance)
//!   re-derives its members' activity, changing tree generators only
//!   where the active bit actually changed. A round-robin cluster whose
//!   holder changed makes one handover
//!   ([`move_generator`](wrsn_net::DynamicRoutingTree::move_generator)),
//!   which walks the two holders' ancestor chains only up to where they
//!   meet. A switch-off with no partner in its cluster (a holder that
//!   departed the structure or now serves in another cluster) waits in
//!   [`Handovers`] for a switch-on with none either; only what is left
//!   unpaired at the end is a single ancestor-chain delta.
//!
//! The handovers leave their loads unsettled, and [`refresh_routing`]
//! settles the tree once at its end, so each touched node's load is
//! materialized once and the tree reports only the loads that moved net.
//! No phase seeds a dispatch re-check for an activity flip: the drain
//! phase's draw refresh does that for every draw that rose.
//!
//! The final tree is a pure function of the final enabled/generator sets
//! (canonical-tree argument, DESIGN.md §4f), so replay order and event
//! coalescing don't matter. [`naive_activity`] keeps the historical
//! wholesale recompute in the build: the full path uses it directly, and
//! the invariant checker replays it as the differential oracle.

use super::{SensorSoA, WorldState};
use wrsn_core::SensorId;
use wrsn_net::DynamicRoutingTree;

/// Hands the monitoring duty to the next live rota member when the slot
/// boundary passed. Marks all rotas dirty so loads follow the holders.
pub(crate) fn advance_slots(state: &mut WorldState) {
    if state.t >= state.next_slot {
        state.next_slot = state.t + state.cfg.slot_s;
        let sensors = &state.sensors;
        for rota in &mut state.rotas {
            rota.advance(|s| !sensors.is_depleted(s.index()) && !sensors.suspended(s.index()));
        }
        state.routing_dirty.note_slots();
    }
}

/// The historical wholesale activity recompute, kept as the differential
/// oracle (and the full-rebuild path): returns per-sensor
/// `(active, dormant)` exactly as the pre-SoA code derived them from the
/// clusters, rotas and liveness.
pub(crate) fn naive_activity(state: &WorldState) -> (Vec<bool>, Vec<bool>) {
    let mut active = vec![false; state.cfg.num_sensors];
    let mut dormant = vec![false; state.cfg.num_sensors];
    let sensors = &state.sensors;
    let alive = |s: SensorId| !sensors.is_depleted(s.index()) && !sensors.suspended(s.index());
    for (ci, cluster) in state.clusters.iter() {
        if state.cfg.activity.round_robin {
            // Off-duty members sleep entirely; the rota holder monitors.
            for &m in &cluster.members {
                dormant[m.index()] = true;
            }
            if let Some(s) = state.rotas[ci.index()].active(alive) {
                active[s.index()] = true;
                dormant[s.index()] = false;
            }
        } else {
            for &m in &cluster.members {
                if alive(m) {
                    active[m.index()] = true;
                }
            }
        }
    }
    (active, dormant)
}

/// Replays the pending [`super::RoutingDirty`] work onto the activity
/// flags and the maintained routing tree, then clears the queues.
pub(crate) fn refresh_routing(state: &mut WorldState) {
    if state.routing_dirty.is_full() {
        refresh_full(state);
    } else {
        refresh_incremental(state);
    }
    state.routing.settle();
    let num_clusters = state.clusters.len();
    state.routing_dirty.reset(num_clusters);
}

/// Full fallback: wholesale activity recompute + one Dijkstra rebuild.
/// Used when the cluster structure itself changed (mobility rebuilds,
/// snapshot resume with pending work) — membership and rotas are new, so
/// per-cluster diffs have no baseline to diff against.
fn refresh_full(state: &mut WorldState) {
    let (active, dormant) = naive_activity(state);
    for s in 0..state.cfg.num_sensors {
        state.sensors.set_active(s, active[s]);
        state.sensors.set_dormant(s, dormant[s]);
    }
    let sensors = &state.sensors;
    state.routing.rebuild(
        &state.graph,
        |v| v == 0 || (!sensors.is_depleted(v - 1) && !sensors.suspended(v - 1)),
        |v| v > 0 && sensors.active(v - 1),
    );
}

/// Generator switch-offs of one refresh still waiting for a switch-on
/// to pair with, oldest first from `next`. Pairing any switch-off with
/// any switch-on is exact: the two chain deltas cancel above the node
/// where the chains meet, whichever nodes they are. Clusters stay
/// ordered by target across a repair, so oldest-first mostly pairs the
/// departed holder of a target's old cluster with the new holder of the
/// same target's cluster, whose chains usually meet nearby.
struct Handovers {
    offs: Vec<u32>,
    next: usize,
}

impl Handovers {
    /// Switches tree node `v`'s generator on, as the far end of the
    /// oldest waiting switch-off if there is one.
    fn on(&mut self, routing: &mut DynamicRoutingTree, v: usize) {
        match self.offs.get(self.next) {
            Some(&from) => {
                self.next += 1;
                routing.move_generator(from as usize, v);
            }
            None => routing.set_generator(v, true),
        }
    }

    /// Queues tree node `v`'s generator switch-off for a partner.
    fn off(&mut self, v: usize) {
        self.offs.push(v as u32);
    }

    /// Switches off whatever found no partner, and hands back the
    /// emptied buffer.
    fn finish(mut self, routing: &mut DynamicRoutingTree) -> Vec<u32> {
        for &v in &self.offs[self.next..] {
            routing.set_generator(v as usize, false);
        }
        self.offs.clear();
        self.offs
    }
}

/// Event-incremental path: toggle the enabled bit of each dirty node
/// (subtree detach/repair inside the tree), then re-derive activity for
/// each dirty cluster — all clusters after a slot advance — changing
/// generators only where the active bit actually changed.
fn refresh_incremental(state: &mut WorldState) {
    for i in 0..state.routing_dirty.nodes.len() {
        let s = state.routing_dirty.nodes[i] as usize;
        let on = !state.sensors.is_depleted(s) && !state.sensors.suspended(s);
        state.routing.set_enabled(&state.graph, s + 1, on);
    }
    let mut handovers = Handovers {
        offs: std::mem::take(&mut state.routing_dirty.handover_offs),
        next: 0,
    };
    // Sensors the incremental cluster repair dropped from the structure:
    // back to the duty-cycled watch (active = dormant = false), exactly
    // what `naive_activity` derives for unassigned sensors.
    for i in 0..state.routing_dirty.departed.len() {
        let s = state.routing_dirty.departed[i] as usize;
        if state.sensors.active(s) {
            state.sensors.set_active(s, false);
            handovers.off(s + 1);
        }
        state.sensors.set_dormant(s, false);
    }
    if state.routing_dirty.slots {
        for ci in 0..state.clusters.len() {
            apply_cluster_activity(state, ci, &mut handovers);
        }
    } else {
        for i in 0..state.routing_dirty.clusters.len() {
            let ci = state.routing_dirty.clusters[i] as usize;
            apply_cluster_activity(state, ci, &mut handovers);
        }
    }
    state.routing_dirty.handover_offs = handovers.finish(&mut state.routing);
}

/// Re-derives one cluster's activity from its rota and liveness (same
/// rule as [`naive_activity`], restricted to `ci`) and diffs it against
/// the stored flags, changing tree generators on change. Sensors outside
/// every cluster keep active = dormant = false, so never need visiting.
///
/// Under round robin the diff pass collects the old holder (switched
/// off) and the new one (switched on) and hands the duty over with one
/// [`move_generator`](wrsn_net::DynamicRoutingTree::move_generator). A
/// flip with no partner in the cluster (a dead holder, no live member, a
/// member that held another cluster's duty before a repair), and every
/// flip under full-time activation, goes through `handovers`.
fn apply_cluster_activity(state: &mut WorldState, ci: usize, handovers: &mut Handovers) {
    let WorldState {
        cfg,
        clusters,
        rotas,
        sensors,
        routing,
        ..
    } = state;
    let cluster = &clusters.clusters()[ci];
    if cfg.activity.round_robin {
        let sn: &SensorSoA = sensors;
        let holder =
            rotas[ci].active(|s: SensorId| !sn.is_depleted(s.index()) && !sn.suspended(s.index()));
        let (mut off, mut on) = (None, None);
        for &m in &cluster.members {
            let mi = m.index();
            let want_active = holder == Some(m);
            if sensors.active(mi) != want_active {
                sensors.set_active(mi, want_active);
                if want_active {
                    on = Some(mi + 1);
                } else if let Some(prev) = off.replace(mi + 1) {
                    handovers.off(prev);
                }
            }
            sensors.set_dormant(mi, !want_active);
        }
        match (off, on) {
            (Some(from), Some(to)) => routing.move_generator(from, to),
            (Some(v), None) => handovers.off(v),
            (None, Some(v)) => handovers.on(routing, v),
            (None, None) => {}
        }
    } else {
        for &m in &cluster.members {
            let mi = m.index();
            let want_active = !sensors.is_depleted(mi) && !sensors.suspended(mi);
            if sensors.active(mi) != want_active {
                sensors.set_active(mi, want_active);
                if want_active {
                    handovers.on(routing, mi + 1);
                } else {
                    handovers.off(mi + 1);
                }
            }
            // Dormancy is a round-robin concept; stays false here.
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ActivityConfig, SimConfig, World};

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn round_robin_drains_less_than_full_time() {
        // §III-C: dormant off-duty members make cluster consumption drop.
        let mk = |rr: bool| {
            let mut cfg = tiny_cfg(2.0);
            cfg.activity.round_robin = rr;
            cfg.activity.erp = None;
            cfg.target_period_s = cfg.duration_s * 2.0; // static clusters
            World::new(&cfg, 21).run().total_drained_j
        };
        let full = mk(false);
        let rr = mk(true);
        assert!(rr < full, "round robin drained {rr} ≥ full time {full}");
    }

    #[test]
    fn exactly_one_member_monitors_under_round_robin() {
        let mut cfg = tiny_cfg(0.5);
        cfg.target_period_s = cfg.duration_s * 2.0; // static clusters
        let w = World::new(&cfg, 17);
        for (ci, cluster) in w.clusters().iter() {
            let _ = ci;
            let active = cluster.members.iter().filter(|&&m| w.is_active(m)).count();
            assert_eq!(active, 1, "one rota holder per cluster");
        }
    }

    #[test]
    fn full_time_activation_wakes_every_member() {
        let mut cfg = tiny_cfg(0.5);
        cfg.activity = ActivityConfig {
            round_robin: false,
            erp: None,
        };
        let w = World::new(&cfg, 17);
        for (_ci, cluster) in w.clusters().iter() {
            assert!(cluster.members.iter().all(|&m| w.is_active(m)));
        }
    }
}
