//! Phase 1 — target mobility and balanced clustering (Alg. 1).
//!
//! Moves the monitored targets according to the configured
//! [`TargetMobility`](crate::TargetMobility) model and rebuilds the
//! coverage map, clusters, rotas and §III-A request groups whenever
//! coverage may have changed: on every teleport, or once a waypoint
//! target drifts half a sensing radius from where its cluster was formed.

use super::WorldState;
use wrsn_core::{CoverageMap, RoundRobinRota, SensorId, TargetId};
use wrsn_geom::{Field, GridIndex, Point2};

/// Persistent geometry behind the incremental cluster repair
/// (DESIGN.md §4f). Sensor positions never change, so the grid index is
/// built once; the coverage map and the covering-sensor set `A` are then
/// patched per *moved target* instead of recomputed over every sensor.
///
/// `None` until the first wholesale rebuild constructs it (world
/// construction always runs wholesale) and in naive-repair mode.
/// Snapshots do not persist it: it is a pure function of the sensor
/// positions and the targets' anchors, which equal `synced` after every
/// rebuild, so snapshot decode rebuilds it from the restored anchors
/// ([`RepairState::new`]) and the first rebuild after a resume is
/// incremental, like every live one.
pub(crate) struct RepairState {
    /// Grid over the fixed sensor positions (cell = sensing range,
    /// matching [`CoverageMap::build`]'s internal index).
    grid: GridIndex,
    /// Maintained coverage map, always reflecting `synced`.
    cov: CoverageMap,
    /// The target positions `cov` currently reflects.
    synced: Vec<Point2>,
    /// Maintained Alg. 1 input set `A` (sensors with load > 0), sorted
    /// ascending; patched on load 0↔positive transitions.
    covering: Vec<SensorId>,
    /// Scratch for [`CoverageMap::retarget`]'s grid query.
    query: Vec<SensorId>,
    /// Scratch: the members of the clusters a repair replaces.
    old_members: Vec<SensorId>,
}

impl RepairState {
    /// The repair baseline for targets at `synced`: `grid` indexes the
    /// sensors ([`CoverageMap::grid_for`]) and `cov` is the coverage map
    /// built on it for `synced`.
    pub(crate) fn new(grid: GridIndex, cov: CoverageMap, synced: Vec<Point2>) -> Self {
        Self {
            grid,
            covering: cov.covering_sensors(),
            synced,
            cov,
            query: Vec::new(),
            old_members: Vec::new(),
        }
    }
}

/// Advances target positions by one tick and rebuilds clustering when the
/// motion invalidated it.
pub(crate) fn step_targets(state: &mut WorldState, dt: f64) {
    let mut rebuild = false;
    match state.cfg.target_mobility {
        crate::TargetMobility::Static => {}
        crate::TargetMobility::RandomTeleport => {
            for j in 0..state.target_pos.len() {
                if state.t >= state.target_next_move[j] {
                    let field = Field::new(state.cfg.field_side);
                    state.target_pos[j] = field.random_point(&mut state.rng);
                    state.target_next_move[j] = state.t + state.cfg.target_period_s;
                    rebuild = true;
                }
            }
        }
        crate::TargetMobility::RandomWaypoint { speed_mps } => {
            let field = Field::new(state.cfg.field_side);
            let step = speed_mps * dt;
            for j in 0..state.target_pos.len() {
                let pos = state.target_pos[j];
                let goal = state.target_waypoint[j];
                let d = pos.distance(goal);
                if d <= step {
                    state.target_pos[j] = goal;
                    state.target_waypoint[j] = field.random_point(&mut state.rng);
                } else {
                    state.target_pos[j] = pos.lerp(goal, step / d);
                }
                // Rebuild once a target drifts half a sensing radius
                // from where its cluster was formed.
                if state.target_pos[j].distance(state.target_anchor[j])
                    > state.cfg.sensing_range * 0.5
                {
                    rebuild = true;
                }
            }
        }
    }
    if rebuild {
        state.target_anchor.copy_from_slice(&state.target_pos);
        rebuild_clusters(state);
    }
}

/// Recomputes coverage, balanced clusters (Alg. 1), round-robin rotas and
/// the §III-A request groups from the current target positions.
///
/// Dispatches to the incremental [`repair_clusters`] once a
/// [`RepairState`] exists (i.e. after the first wholesale rebuild); the
/// two paths produce bitwise-identical end-of-tick world state — the
/// equivalence proptests diff their snapshots under churny mobility.
pub(crate) fn rebuild_clusters(state: &mut WorldState) {
    if state.repair.is_some() && !state.naive_repair {
        repair_clusters(state);
    } else {
        rebuild_clusters_wholesale(state);
    }
}

/// The wholesale path: fresh coverage map, fresh Alg. 1 run, fresh
/// assignment scan. Also (re)constructs the [`RepairState`] the
/// incremental path patches from then on.
pub(crate) fn rebuild_clusters_wholesale(state: &mut WorldState) {
    let grid = CoverageMap::grid_for(&state.sensor_pos, state.cfg.sensing_range);
    let coverage = CoverageMap::build_on(&grid, &state.target_pos, state.cfg.sensing_range);
    state.clusters = wrsn_core::balanced_clusters(&coverage);
    state.assignment = state.clusters.sensor_assignment(state.cfg.num_sensors);
    refresh_request_groups(state);
    // Seed (or refresh) the incremental-repair geometry: subsequent
    // rebuilds patch this instead of re-scanning every sensor. Skipped in
    // naive-repair oracle mode, which must stay pure wholesale.
    state.repair = if state.naive_repair {
        None
    } else {
        Some(RepairState::new(grid, coverage, state.target_pos.clone()))
    };
    // The cluster structure changed: the routing refresh falls back to
    // its wholesale recompute, which supersedes any queued node/cluster
    // events. (The incremental path below keeps even this moment
    // event-wise.)
    state.routing_dirty.note_full();
}

/// Installs what follows a new clustering: fresh rotas (cursor reset,
/// reusing the old rotas' storage), the rebuild trace event, and each
/// member's stored request group (§III-A member lists), appending a
/// group only for a cluster whose membership changed. Past `2 ·
/// num_sensors` groups it compacts them. A parked dispatch request whose
/// stored group is replaced goes back to the next scan: its quorum
/// recount may have changed (DESIGN.md §4j).
fn refresh_request_groups(state: &mut WorldState) {
    let clusters = state.clusters.clusters();
    state.rotas.truncate(clusters.len());
    for (rota, c) in state.rotas.iter_mut().zip(clusters) {
        rota.reset(&c.members);
    }
    for c in &clusters[state.rotas.len()..] {
        state.rotas.push(RoundRobinRota::new(c.members.clone()));
    }
    state.trace.push(crate::TraceEvent::ClustersRebuilt {
        t: state.t,
        clusters: state.clusters.len(),
    });
    for cluster in state.clusters.clusters() {
        let unchanged = cluster
            .members
            .first()
            .and_then(|&m| state.group_of[m.index()])
            .is_some_and(|gid| {
                let (start, len) = state.groups[gid as usize];
                let slice = &state.group_arena[start as usize..(start + len) as usize];
                slice == cluster.members.as_slice()
                    && cluster
                        .members
                        .iter()
                        .all(|&m| state.group_of[m.index()] == Some(gid))
            });
        if unchanged {
            continue;
        }
        let gid = state.groups.len() as u32;
        let start = state.group_arena.len() as u32;
        state.group_arena.extend_from_slice(&cluster.members);
        state.groups.push((start, cluster.members.len() as u32));
        for &m in &cluster.members {
            state.group_of[m.index()] = Some(gid);
            state.crossings.unpark(m.index());
        }
    }
    compact_request_groups(state);
}

/// Once more than `2 · num_sensors` request groups exist (at most
/// `num_sensors` are live), keeps only the groups some `group_of` points
/// to, renumbered in their old order so the quorum and planner orders,
/// and thus every figure byte, stay the same (DESIGN.md §4j).
pub(crate) fn compact_request_groups(state: &mut WorldState) {
    if state.groups.len() <= 2 * state.cfg.num_sensors {
        return;
    }
    let mut remap = vec![None; state.groups.len()];
    for &gid in state.group_of.iter().flatten() {
        remap[gid as usize] = Some(0);
    }
    let (mut groups, mut arena) = (Vec::new(), Vec::new());
    for (&(start, len), new) in state.groups.iter().zip(&mut remap) {
        if let Some(new) = new {
            *new = groups.len() as u32;
            groups.push((arena.len() as u32, len));
            arena.extend_from_slice(&state.group_arena[start as usize..(start + len) as usize]);
        }
    }
    for gid in state.group_of.iter_mut().flatten() {
        *gid = remap[*gid as usize].expect("a pointed-to group is kept");
    }
    state.groups = groups;
    state.group_arena = arena;
}

/// Event-incremental cluster rebuild: patches the maintained coverage map
/// for the targets that actually moved, re-runs Alg. 1 over the
/// maintained `A` set, and diffs the result into the world — bitwise
/// identical to [`rebuild_clusters_wholesale`] (Alg. 1 is a pure function
/// of the coverage map and `A`, and `A`'s order is irrelevant under its
/// total `(load, id)` sort key).
///
/// Flag updates for sensors *departed* from the cluster structure are
/// deferred to the routing refresh via [`super::RoutingDirty::departed`],
/// keeping flag bytes phase-identical to the wholesale path (which also
/// only touches flags at refresh time).
fn repair_clusters(state: &mut WorldState) {
    // 1. Sync the maintained coverage map to the moved targets.
    let mut rs = state.repair.take().expect("repair state present");
    {
        let RepairState {
            grid,
            cov,
            synced,
            covering,
            query,
            ..
        } = &mut rs;
        for (j, &p) in state.target_pos.iter().enumerate() {
            if synced[j] != p {
                synced[j] = p;
                cov.retarget(
                    TargetId(j as u32),
                    grid,
                    p,
                    state.cfg.sensing_range,
                    query,
                    |s, old, new| {
                        if old == 0 {
                            let i = covering
                                .binary_search(&s)
                                .expect_err("covering set out of sync");
                            covering.insert(i, s);
                        } else if new == 0 {
                            let i = covering
                                .binary_search(&s)
                                .expect("covering set out of sync");
                            covering.remove(i);
                        }
                    },
                );
            }
        }
    }

    // 2. Assignment diff, first half: clear the old members. Only
    // members ever hold `Some`, so the diff equals a fresh assignment
    // scan.
    rs.old_members.clear();
    for cluster in state.clusters.clusters() {
        for &m in &cluster.members {
            rs.old_members.push(m);
            state.assignment[m.index()] = None;
        }
    }

    // 3. Alg. 1 over the maintained A set, into the old clusters'
    // storage, then the new members' assignment.
    wrsn_core::balanced_clusters_into(&rs.cov, &rs.covering, &mut state.clusters);
    for (ci, cluster) in state.clusters.iter() {
        for &m in &cluster.members {
            state.assignment[m.index()] = Some(ci);
        }
    }

    // 4. Fresh rotas for every cluster (the same cursor reset the
    // wholesale path performs) and each member's stored request group.
    refresh_request_groups(state);

    // 5. Sensors departed from the structure entirely: their flag clears
    // happen at the refresh (and a draw that rises there seeds their
    // dispatch re-check).
    for &m in &rs.old_members {
        if state.assignment[m.index()].is_none() {
            state.routing_dirty.note_departed(m.index());
        }
    }
    state.repair = Some(rs);

    // 6. Queued cluster ids refer to the pre-repair structure: drop them
    // and queue every new cluster for re-derivation (the wholesale path's
    // `note_full` supersedes them the same way). The node queue is kept —
    // sensor ids are stable and their enabled bits still need repairing.
    state.routing_dirty.drop_stale_clusters();
    for ci in 0..state.clusters.len() {
        state.routing_dirty.note_cluster(ci);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::WorldState;
    use crate::{SimConfig, TargetMobility, TraceEvent, World};
    use wrsn_core::SensorId;

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 3;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    #[test]
    fn static_targets_never_rebuild_clusters() {
        let mut cfg = tiny_cfg(0.5);
        cfg.target_mobility = TargetMobility::Static;
        let mut w = World::new(&cfg, 4);
        w.enable_trace(100_000);
        let before = w.targets().to_vec();
        w.run();
        assert_eq!(w.targets(), &before[..]);
        // Only the construction-time rebuild appears in the trace.
        let rebuilds = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ClustersRebuilt { .. }))
            .count();
        assert_eq!(rebuilds, 0, "no mid-run rebuilds for static targets");
    }

    #[test]
    fn waypoint_mobility_keeps_targets_moving_and_covered() {
        let mut cfg = tiny_cfg(1.0);
        cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
        let mut w = World::new(&cfg, 12);
        let start = w.targets().to_vec();
        for _ in 0..120 {
            w.step();
        }
        // Two hours at 0.5 m/s: every target has moved.
        let moved = w
            .targets()
            .iter()
            .zip(&start)
            .filter(|(a, b)| a.distance(**b) > 1.0)
            .count();
        assert!(
            moved >= start.len() / 2,
            "targets should wander: {moved}/{}",
            start.len()
        );
        let out = w.run();
        assert!(out.report.coverage_ratio_pct > 50.0);
    }

    #[test]
    fn teleporting_targets_rebuild_clusters_mid_run() {
        let mut cfg = tiny_cfg(1.0);
        cfg.target_mobility = TargetMobility::RandomTeleport;
        cfg.target_period_s = 3_600.0; // hourly relocations
        let mut w = World::new(&cfg, 4);
        w.enable_trace(100_000);
        w.run();
        let rebuilds = w
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ClustersRebuilt { .. }))
            .count();
        assert!(rebuilds > 0, "teleports must rebuild clustering");
    }

    /// What the incremental repair reads of its baseline: every target's
    /// candidate set, the covering set `A` and the synced positions.
    fn repair_baseline(w: &World) -> (Vec<Vec<SensorId>>, Vec<SensorId>, Vec<wrsn_geom::Point2>) {
        let rs = w.state().repair.as_ref().expect("repair state present");
        let candidates = (0..rs.cov.num_targets())
            .map(|j| rs.cov.candidates(wrsn_core::TargetId(j as u32)).to_vec())
            .collect();
        (candidates, rs.covering.clone(), rs.synced.clone())
    }

    #[test]
    fn resumed_repair_state_equals_the_live_one() {
        let mut waypoint = tiny_cfg(1.0);
        waypoint.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
        let mut teleport = tiny_cfg(1.0);
        teleport.target_mobility = TargetMobility::RandomTeleport;
        teleport.target_period_s = 1_200.0;
        for cfg in [waypoint, teleport] {
            let mut live = World::new(&cfg, 5);
            let mut checked = 0;
            for tick in 1..=400 {
                live.step();
                if tick % 37 != 0 {
                    continue;
                }
                let resumed = World::resume(&live.save_snapshot()).expect("resume");
                assert_eq!(
                    repair_baseline(&resumed),
                    repair_baseline(&live),
                    "{:?} at tick {tick}",
                    cfg.target_mobility
                );
                checked += 1;
            }
            assert!(checked > 0);
            let moved = repair_baseline(&live).2 != World::new(&cfg, 5).targets();
            assert!(moved, "{:?}: the baseline never moved", cfg.target_mobility);
        }
    }

    #[test]
    fn compaction_keeps_live_member_lists_in_order() {
        let mut state = WorldState::new(&tiny_cfg(1.0), 4);
        let n = state.cfg.num_sensors;
        let members = |st: &WorldState| -> Vec<Option<Vec<SensorId>>> {
            st.group_of
                .iter()
                .map(|g| {
                    g.map(|g| {
                        let (start, len) = st.groups[g as usize];
                        st.group_arena[start as usize..(start + len) as usize].to_vec()
                    })
                })
                .collect()
        };
        // Put two dead copies in front of every live group, then pad
        // with dead groups past the compaction bound.
        let live = std::mem::take(&mut state.groups);
        for &span in &live {
            state.groups.extend([span, span, span]);
        }
        while state.groups.len() <= 2 * n {
            state.groups.push(live[0]);
        }
        for g in state.group_of.iter_mut().flatten() {
            *g = 3 * *g + 2;
        }
        let before = members(&state);
        let ids = state.group_of.clone();
        super::compact_request_groups(&mut state);
        assert_eq!(state.groups.len(), live.len());
        assert_eq!(members(&state), before);
        // Renumbering keeps the old id order.
        let mut pairs: Vec<(u32, u32)> = ids
            .iter()
            .zip(&state.group_of)
            .filter_map(|(&old, &new)| Some((old?, new?)))
            .collect();
        pairs.sort_unstable();
        assert!(pairs.windows(2).all(|w| w[0].1 <= w[1].1));
        crate::engine::invariants::check(&state).unwrap();
    }
}
