//! Request-group compaction keeps every byte contract (DESIGN.md §4j).
//!
//! A random-waypoint chaos world whose targets drift far enough to
//! rebuild the clusters almost every tick appends request groups fast,
//! so a few hundred ticks pass several compactions. Across them:
//!
//! * the naive-dispatch, naive-drain, naive-repair twin stays
//!   byte-identical in lockstep;
//! * a world resumed from a snapshot taken between two compactions
//!   matches the uninterrupted run;
//! * the final snapshot stays small, because dead groups no longer
//!   accumulate.

use wrsn_sim::{SimConfig, TargetMobility, World};

/// Fixed seed of every world below.
const SEED: u64 = 5;

/// 40 sensors and 4 fast waypoint targets under transient outages and a
/// lossy uplink: ~4 new groups per tick against a compaction bound of 80.
fn churny_cfg() -> SimConfig {
    let mut cfg = SimConfig::small(0.25);
    cfg.num_sensors = 40;
    cfg.num_targets = 4;
    cfg.num_rvs = 2;
    cfg.field_side = 50.0;
    cfg.initial_soc = (0.2, 1.0);
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 2.0 };
    cfg.faults.transients_per_day = 6.0;
    cfg.faults.transient_outage_s = (120.0, 1_800.0);
    cfg.faults.uplink_loss = 0.3;
    cfg.faults.uplink_backoff_s = 300.0;
    cfg.faults.uplink_backoff_cap_s = 3_600.0;
    cfg.min_batch_demand_j = 10e3;
    cfg
}

/// Steps `w` once and reports whether the step compacted its groups.
fn step_counting(w: &mut World) -> bool {
    let before = w.request_group_count();
    w.step();
    w.request_group_count() < before
}

#[test]
fn compaction_matches_naive_twin_in_lockstep() {
    let cfg = churny_cfg();
    let mut fast = World::new(&cfg, SEED);
    let mut slow = World::new(&cfg, SEED);
    slow.set_naive_dispatch(true);
    slow.set_naive_drain(true);
    slow.set_naive_repair(true);
    let mut compactions = 0;
    while !fast.finished() {
        compactions += usize::from(step_counting(&mut fast));
        slow.step();
        assert_eq!(
            fast.save_snapshot(),
            slow.save_snapshot(),
            "twins diverged at t = {} s",
            fast.time()
        );
        assert!(fast.request_group_count() <= 2 * cfg.num_sensors);
    }
    assert!(compactions >= 2, "only {compactions} compactions ran");
    fast.check_invariants().unwrap();
}

#[test]
fn resume_between_compactions_matches_uninterrupted_run() {
    let cfg = churny_cfg();
    let mut live = World::new(&cfg, SEED);
    while !step_counting(&mut live) {}
    // One tick past the first compaction, well before the second.
    live.step();
    let mut resumed = World::resume(&live.save_snapshot()).unwrap();
    let mut later = 0;
    while !live.finished() {
        later += usize::from(step_counting(&mut live));
        resumed.step();
    }
    assert!(later >= 1, "no compaction after the resume point");
    assert!(resumed.finished());
    assert_eq!(live.save_snapshot(), resumed.save_snapshot());
}

#[test]
fn final_snapshot_size_is_pinned() {
    // 8,779 bytes with compaction. Without it, this world ends with
    // hundreds of dead groups in a 28,551-byte snapshot.
    let mut w = World::new(&churny_cfg(), SEED);
    w.run();
    let len = w.save_snapshot().len();
    assert!(len < 12_000, "final snapshot is {len} bytes");
}
