//! Incremental coverage/cluster cache — the sample-tick fast path.
//!
//! [`WorldState::coverage_ratio`](super::WorldState::coverage_ratio) and
//! [`WorldState::alive_count`](super::WorldState::alive_count) used to
//! rescan every cluster member (and every battery) on each call, which
//! dominates the metrics-sampling loop on large fields. This module keeps
//! both answers materialized and updates them *event-wise*:
//!
//! * a per-cluster count of on-duty members (`live_members`), refreshed
//!   lazily through a deduplicated **dirty-set** of clusters,
//! * the number of clusters with at least one on-duty member (`covered`),
//! * the number of sensors with non-depleted batteries (`alive`),
//!   maintained as an exact integer delta on every depletion / revival /
//!   permanent-failure event.
//!
//! The invalidation contract (who must call which hook) is documented in
//! DESIGN.md §4c and enforced by the debug oracle: the naive recomputes
//! ([`naive_coverage_ratio`], [`naive_alive_count`]) stay in the build and
//! [`super::invariants::check`] compares them against the cache after
//! every tick in debug builds, so every test run doubles as a
//! differential sweep. `crates/sim/tests/chaos_properties.rs` runs the
//! same comparison explicitly so it also holds in `--release`
//! (debug-assert-free) builds.
//!
//! Correctness note (cursor independence): a cluster counts as covered
//! when [`RoundRobinRota::active`](wrsn_core::RoundRobinRota::active)
//! returns `Some`, and `active` fails over from the scheduled holder to
//! *any* live member — so coverage depends only on the member set and the
//! per-sensor on-duty bits, never on the rota cursor. A rota advance
//! therefore cannot change coverage; [`note_slots_advanced`] still
//! dirties the rotated clusters so the contract stays conservative (the
//! hook is O(clusters) once per slot, and the oracle would catch any
//! future rota semantics that break the lemma).

use super::WorldState;
use wrsn_core::{ClusterId, ClusterSet, SensorId};

/// The materialized coverage/cluster state. Owned by
/// [`WorldState`](super::WorldState); every mutation goes through the
/// `note_*` hooks below.
#[derive(Debug, Default)]
pub(crate) struct CoverageCache {
    /// Per-cluster count of on-duty members (battery not depleted, not
    /// suspended). Parallel to `WorldState::clusters`. Entries listed in
    /// `dirty` may be stale until the next [`flush`].
    live_members: Vec<u32>,
    /// Clusters with `live_members > 0`, as of the counts above.
    covered: usize,
    /// Deduplicated list of clusters whose count needs a recount.
    dirty: Vec<u32>,
    /// Parallel to `live_members`: whether the cluster is in `dirty`.
    dirty_flag: Vec<bool>,
    /// Sensors with non-depleted batteries — exact at all times (updated
    /// by integer delta at every transition, no dirty state).
    alive: usize,
}

impl CoverageCache {
    /// Marks cluster `ci` for recount before the next read.
    fn mark_dirty(&mut self, ci: ClusterId) {
        let i = ci.index();
        if !self.dirty_flag[i] {
            self.dirty_flag[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Cached covered-cluster count, with stale (dirty) clusters
    /// recounted on the fly — read-only, used by the non-mutating
    /// [`ratio`] path between flushes.
    fn covered_adjusted(&self, state: &WorldState) -> usize {
        let mut covered = self.covered;
        for &i in &self.dirty {
            let was = self.live_members[i as usize] > 0;
            let is = cluster_live_count(state, i as usize) > 0;
            match (was, is) {
                (true, false) => covered -= 1,
                (false, true) => covered += 1,
                _ => {}
            }
        }
        covered
    }
}

/// Counts cluster `ci`'s on-duty members from ground truth.
fn cluster_live_count(state: &WorldState, ci: usize) -> u32 {
    state.clusters.clusters()[ci]
        .members
        .iter()
        .filter(|&&m| !state.sensors.is_depleted(m.index()) && !state.sensors.suspended(m.index()))
        .count() as u32
}

/// Rebuilds the whole cache from scratch: per-cluster counts, the covered
/// counter, and the alive counter. Called when the cluster structure
/// itself changed (mobility's cluster rebuild, world construction) — the
/// only O(sensors × clusters)-ish moment the cache has.
pub(crate) fn rebuild(state: &mut WorldState) {
    state.coverage.alive = (0..state.sensors.len())
        .filter(|&s| !state.sensors.is_depleted(s))
        .count();
    clusters_rebuilt(state);
}

/// [`rebuild`] minus the O(sensors) alive recount: re-derives the
/// per-cluster live counts and the covered counter for a *new* cluster
/// structure while keeping the (exact, event-maintained) alive counter —
/// clustering changes cannot alter which batteries are depleted. Used by
/// the incremental cluster repair so a mid-run rebuild stays proportional
/// to cluster membership, not to the sensor count. Reuses the cache's
/// storage.
pub(crate) fn clusters_rebuilt(state: &mut WorldState) {
    let n_clusters = state.clusters.len();
    let mut live = std::mem::take(&mut state.coverage.live_members);
    live.clear();
    live.extend((0..n_clusters).map(|ci| cluster_live_count(state, ci)));
    let cache = &mut state.coverage;
    cache.covered = live.iter().filter(|&&c| c > 0).count();
    cache.live_members = live;
    cache.dirty.clear();
    cache.dirty_flag.clear();
    cache.dirty_flag.resize(n_clusters, false);
}

/// Recounts every dirty cluster and settles the covered counter. O(dirty
/// × cluster size); called from the sample phase of
/// [`World::step`](crate::World::step) so reads between samples stay
/// cheap and the dirty-set stays bounded by the cluster count.
pub(crate) fn flush(state: &mut WorldState) {
    if state.coverage.dirty.is_empty() {
        return;
    }
    let dirty = std::mem::take(&mut state.coverage.dirty);
    for &i in &dirty {
        let fresh = cluster_live_count(state, i as usize);
        let cache = &mut state.coverage;
        let was = cache.live_members[i as usize] > 0;
        cache.live_members[i as usize] = fresh;
        cache.dirty_flag[i as usize] = false;
        match (was, fresh > 0) {
            (true, false) => cache.covered -= 1,
            (false, true) => cache.covered += 1,
            _ => {}
        }
    }
}

/// Cached coverage ratio — the fast path behind
/// [`WorldState::coverage_ratio`](super::WorldState::coverage_ratio).
/// O(dirty) (O(1) right after a flush); exactly equal to
/// [`naive_coverage_ratio`], which the debug oracle asserts every tick.
pub(crate) fn ratio(state: &WorldState) -> f64 {
    if state.clusters.is_empty() {
        return 1.0;
    }
    state.coverage.covered_adjusted(state) as f64 / state.clusters.len() as f64
}

/// Cached alive count — exact integer, O(1).
pub(crate) fn alive(state: &WorldState) -> usize {
    state.coverage.alive
}

/// Covered-cluster count `(covered, total)` for diagnostics/rendering.
pub(crate) fn covered_clusters(state: &WorldState) -> (usize, usize) {
    (state.coverage.covered_adjusted(state), state.clusters.len())
}

// --- Event hooks (the invalidation contract, DESIGN.md §4c) ------------

/// Energy phase: sensor `s`'s battery just crossed into depletion.
pub(crate) fn note_depleted(state: &mut WorldState, s: SensorId) {
    state.coverage.alive -= 1;
    note_duty_changed(state, s);
}

/// Fleet phase: a previously depleted sensor was charged back to life.
pub(crate) fn note_revived(state: &mut WorldState, s: SensorId) {
    state.coverage.alive += 1;
    note_duty_changed(state, s);
}

/// Energy phase: a live sensor suffered a permanent hardware failure
/// (its battery is emptied, so it also leaves the alive set).
pub(crate) fn note_failed(state: &mut WorldState, s: SensorId) {
    state.coverage.alive -= 1;
    note_duty_changed(state, s);
}

/// Faults phase: sensor `s` was suspended by, or resumed from, a
/// transient outage (battery untouched — only duty status changed).
pub(crate) fn note_suspension_changed(state: &mut WorldState, s: SensorId) {
    note_duty_changed(state, s);
}

/// Activity phase: every rota advanced one slot. Coverage is provably
/// cursor-independent (see the module docs), but any phase touching rota
/// state dirties its clusters so the contract stays conservative.
pub(crate) fn note_slots_advanced(state: &mut WorldState) {
    for i in 0..state.clusters.len() {
        state.coverage.mark_dirty(ClusterId(i as u32));
    }
}

/// Marks the cluster of sensor `s` (if any) dirty. Unassigned sensors
/// (pure relays) are in no cluster and cannot affect coverage.
fn note_duty_changed(state: &mut WorldState, s: SensorId) {
    if let Some(ci) = state.assignment[s.index()] {
        state.coverage.mark_dirty(ci);
    }
}

// --- The naive oracle ---------------------------------------------------

/// Brute-force coverage recompute — the pre-cache implementation, kept
/// verbatim as the differential oracle. O(sum of cluster sizes) per call.
pub(crate) fn naive_coverage_ratio(state: &WorldState) -> f64 {
    naive_covered(&state.clusters, &state.rotas, |s| state.on_duty(s))
        .map(|(covered, total)| covered as f64 / total as f64)
        .unwrap_or(1.0)
}

/// Brute-force covered-cluster count over arbitrary cluster/rota state:
/// `None` when there are no clusters (full coverage by definition).
pub(crate) fn naive_covered<F: Fn(SensorId) -> bool>(
    clusters: &ClusterSet,
    rotas: &[wrsn_core::RoundRobinRota],
    on_duty: F,
) -> Option<(usize, usize)> {
    if clusters.is_empty() {
        return None;
    }
    let mut covered = 0usize;
    for (ci, _cluster) in clusters.iter() {
        let rota = &rotas[ci.index()];
        // With round-robin, the rota fails over to any live member, so
        // coverage holds as long as one member lives — same criterion
        // as full-time activation.
        if rota.active(&on_duty).is_some() {
            covered += 1;
        }
    }
    Some((covered, clusters.len()))
}

/// Brute-force alive recount — the oracle for the cached counter.
pub(crate) fn naive_alive_count(state: &WorldState) -> usize {
    (0..state.sensors.len())
        .filter(|&s| !state.sensors.is_depleted(s))
        .count()
}

/// Differential audit of the cache against the naive oracle — the
/// coverage section of [`super::invariants::check`], run after every
/// tick in debug builds. Checks structural agreement (vector lengths),
/// every *clean* per-cluster count against a ground-truth recount, the
/// covered counter, the alive counter, and finally bitwise equality of
/// the cached and brute-force coverage ratios.
pub(crate) fn verify(state: &WorldState) -> Result<(), String> {
    let cache = &state.coverage;
    let n = state.clusters.len();
    if cache.live_members.len() != n || cache.dirty_flag.len() != n {
        return Err(format!(
            "coverage cache tracks {} clusters but the world has {n}",
            cache.live_members.len()
        ));
    }
    let mut covered_from_counts = 0usize;
    for ci in 0..n {
        let truth = cluster_live_count(state, ci);
        if !cache.dirty_flag[ci] && cache.live_members[ci] != truth {
            return Err(format!(
                "cluster {ci} cached live count {} != recount {truth} (not dirty)",
                cache.live_members[ci]
            ));
        }
        if cache.live_members[ci] > 0 {
            covered_from_counts += 1;
        }
    }
    if cache.covered != covered_from_counts {
        return Err(format!(
            "covered counter {} disagrees with {covered_from_counts} positive cached counts",
            cache.covered
        ));
    }
    let naive_alive = naive_alive_count(state);
    if cache.alive != naive_alive {
        return Err(format!(
            "alive counter {} != {naive_alive} non-depleted batteries",
            cache.alive
        ));
    }
    let cached = ratio(state);
    let naive = naive_coverage_ratio(state);
    if cached != naive {
        return Err(format!(
            "cached coverage ratio {cached} != naive recompute {naive}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{SimConfig, TargetMobility, World};

    fn tiny_cfg(days: f64) -> SimConfig {
        let mut cfg = SimConfig::small(days);
        cfg.num_sensors = 60;
        cfg.num_targets = 4;
        cfg.num_rvs = 1;
        cfg.field_side = 60.0;
        cfg
    }

    /// Steps a world to the end, asserting cache == oracle on every tick.
    /// (Debug builds also assert this inside the invariant checker; the
    /// explicit loop documents the contract and survives release mode.)
    fn assert_differential(cfg: &SimConfig, seed: u64) {
        let mut w = World::new(cfg, seed);
        loop {
            assert_eq!(
                w.coverage_ratio(),
                w.oracle_coverage_ratio(),
                "cache diverged from oracle at t = {} s",
                w.time()
            );
            assert_eq!(w.alive_count(), w.oracle_alive_count());
            if w.finished() {
                break;
            }
            w.step();
        }
    }

    #[test]
    fn cache_matches_oracle_on_healthy_run() {
        assert_differential(&tiny_cfg(0.5), 3);
    }

    #[test]
    fn cache_matches_oracle_under_deaths_and_revivals() {
        let mut cfg = tiny_cfg(4.0);
        cfg.initial_soc = (0.05, 0.5); // deaths early, revivals later
        assert_differential(&cfg, 17);
    }

    #[test]
    fn cache_matches_oracle_under_faults_and_teleports() {
        let mut cfg = tiny_cfg(2.0);
        cfg.target_period_s = 3_600.0; // hourly cluster rebuilds
        cfg.permanent_failures_per_day = 0.1;
        cfg.faults.transients_per_day = 4.0;
        cfg.faults.transient_outage_s = (300.0, 3_600.0);
        assert_differential(&cfg, 29);
    }

    #[test]
    fn cache_matches_oracle_with_waypoint_mobility() {
        let mut cfg = tiny_cfg(1.0);
        cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
        assert_differential(&cfg, 11);
    }

    #[test]
    fn no_targets_is_full_coverage() {
        let mut cfg = tiny_cfg(0.2);
        cfg.num_targets = 0;
        let w = World::new(&cfg, 1);
        assert_eq!(w.coverage_ratio(), 1.0);
        assert_eq!(w.oracle_coverage_ratio(), 1.0);
    }
}
