//! Coverage and alive accounting — what the sample phase reads.
//!
//! **Coverage** is read from the rotas on every call: a cluster counts as
//! covered while [`RoundRobinRota::active`](wrsn_core::RoundRobinRota::active)
//! returns `Some`, and `active` fails over from the scheduled holder to
//! *any* live member (the §III-C "try the next node" rule). That is one
//! probe per cluster, usually a single member check — O(clusters), with
//! no state to keep in step with the phases.
//!
//! **Alive** is an exact counter, [`WorldState::alive`], because a recount
//! is O(sensors). It is counted at construction and on snapshot decode
//! ([`SensorSoA::count_alive`](super::SensorSoA::count_alive)) and moved
//! by one at each of the four battery transitions: a permanent failure
//! and a depletion (two sites) in [`super::energy`], a revival in
//! [`super::fleet`]. [`super::invariants::check`] compares it with a full
//! recount after every debug tick.

use super::WorldState;

/// `(covered, total)` cluster counts — the integer form of [`ratio`].
pub(crate) fn covered_clusters(state: &WorldState) -> (usize, usize) {
    let covered = state
        .rotas
        .iter()
        .filter(|rota| rota.active(|s| state.on_duty(s)).is_some())
        .count();
    (covered, state.clusters.len())
}

/// Fraction of clusters with an on-duty member; 1.0 with no clusters.
pub(crate) fn ratio(state: &WorldState) -> f64 {
    match covered_clusters(state) {
        (_, 0) => 1.0,
        (covered, total) => covered as f64 / total as f64,
    }
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

    /// Steps a world to the end, asserting on every tick that the alive
    /// counter equals a full recount. (Debug builds also check it inside
    /// the invariant checker; the explicit loop survives release mode.)
    fn assert_alive_counted(cfg: &SimConfig, seed: u64) {
        let mut w = World::new(cfg, seed);
        loop {
            assert_eq!(
                w.alive_count(),
                w.oracle_alive_count(),
                "alive counter diverged from the recount at t = {} s",
                w.time()
            );
            if w.finished() {
                break;
            }
            w.step();
        }
    }

    #[test]
    fn alive_counter_matches_recount_on_healthy_run() {
        assert_alive_counted(&tiny_cfg(0.5), 3);
    }

    #[test]
    fn alive_counter_matches_recount_under_deaths_and_revivals() {
        let mut cfg = tiny_cfg(4.0);
        cfg.initial_soc = (0.05, 0.5); // deaths early, revivals later
        assert_alive_counted(&cfg, 17);
    }

    #[test]
    fn alive_counter_matches_recount_under_faults_and_teleports() {
        let mut cfg = tiny_cfg(2.0);
        cfg.target_period_s = 3_600.0; // hourly cluster rebuilds
        cfg.permanent_failures_per_day = 0.1;
        cfg.faults.transients_per_day = 4.0;
        cfg.faults.transient_outage_s = (300.0, 3_600.0);
        assert_alive_counted(&cfg, 29);
    }

    #[test]
    fn alive_counter_matches_recount_with_waypoint_mobility() {
        let mut cfg = tiny_cfg(1.0);
        cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
        assert_alive_counted(&cfg, 11);
    }

    #[test]
    fn no_targets_is_full_coverage() {
        let mut cfg = tiny_cfg(0.2);
        cfg.num_targets = 0;
        let w = World::new(&cfg, 1);
        assert_eq!(w.coverage_ratio(), 1.0);
        assert_eq!(w.covered_clusters(), (0, 0));
    }
}
