//! Property-based differential oracles for the event-proportional tick
//! (DESIGN.md §4f/§4j): the crossing-prediction dispatch scan, the
//! drain kernel over the maintained draw column and incremental cluster
//! repair must each be
//! **byte-identical** to the historical naive pipeline they replaced —
//! not statistically close, the same world, snapshot for snapshot.
//!
//! Random churny worlds (deaths, recharges, permanent failures,
//! transient suspends, lossy uplinks, rota handovers, every target
//! mobility model) are run twice — fast path vs. the `set_naive_*`
//! oracle knobs — in lockstep, comparing full `save_snapshot()` bytes as
//! they go. In debug builds every tick additionally sweeps the
//! whole-state invariant checker (which audits the crossing watch/seed
//! coverage); CI runs this suite in **both** profiles so the contract
//! also holds where debug asserts are compiled out.

use proptest::prelude::*;
use wrsn_core::SensorId;
use wrsn_sim::{SimConfig, TargetMobility, TraceEvent, World};

prop_compose! {
    /// Small worlds biased to stress every invalidation rule: everyone
    /// starts low (crossings + recharges + deaths), faults are common,
    /// targets move under all three mobility models, the ERP spans its
    /// range, and the zero data-rate edge (activity flips without load
    /// events) and self-discharge are sampled.
    fn arb_churny_config()(
        sensors in 20usize..70,
        targets in 1usize..5,
        rvs in 1usize..4,
        field in 40.0f64..100.0,
        soc_lo in 0.15f64..0.4,
        round_robin in proptest::bool::ANY,
        failures in prop_oneof![Just(0.0), Just(0.1)],
        transients in prop_oneof![Just(0.0), Just(6.0)],
        uplink_loss in prop_oneof![Just(0.0), Just(0.4)],
        mobility in prop_oneof![
            Just(TargetMobility::RandomTeleport),
            Just(TargetMobility::RandomWaypoint { speed_mps: 0.5 }),
            Just(TargetMobility::Static),
        ],
        // Zero data rate (activity flips without load events) and
        // self-discharge (a level-dependent term on top of the maintained
        // per-sensor draw), paired to stay within the strategy tuple.
        rates in (
            proptest::bool::weighted(0.25),
            prop_oneof![Just(0.0), Just(0.02)],
        ),
        // K = 1 parks almost every pending request behind its quorum;
        // K = 0 releases on the first vote and parks none.
        erp in prop_oneof![Just(0.0), Just(0.6), Just(1.0)],
    ) -> SimConfig {
        let mut cfg = SimConfig::small(0.5); // half a simulated day
        cfg.num_sensors = sensors;
        cfg.num_targets = targets;
        cfg.num_rvs = rvs;
        cfg.field_side = field;
        cfg.initial_soc = (soc_lo, 1.0);
        cfg.activity.round_robin = round_robin;
        cfg.permanent_failures_per_day = failures;
        cfg.faults.transients_per_day = transients;
        cfg.faults.transient_outage_s = (120.0, 1_800.0);
        cfg.faults.uplink_loss = uplink_loss;
        cfg.faults.uplink_backoff_s = 300.0;
        cfg.faults.uplink_backoff_cap_s = 3_600.0;
        cfg.target_mobility = mobility;
        cfg.target_period_s = 5_400.0; // several rebuilds per run
        let (zero_rate, self_discharge) = rates;
        cfg.self_discharge_per_day = self_discharge;
        if zero_rate {
            // Activity flips change detector power but produce no relay
            // load events — the seed path load events cannot cover.
            cfg.data_rate_pps = 0.0;
        }
        cfg.activity.erp = Some(erp);
        cfg.min_batch_demand_j = 10e3;
        cfg
    }
}

/// Builds the naive-oracle twin of a world: every event-proportional
/// accelerator replaced by the historical full recompute it shadows.
fn naive_twin(cfg: &SimConfig, seed: u64, dispatch: bool, drain: bool, repair: bool) -> World {
    let mut w = World::new(cfg, seed);
    w.set_naive_dispatch(dispatch);
    w.set_naive_drain(drain);
    w.set_naive_repair(repair);
    w
}

/// Steps `fast` and `slow` in lockstep, demanding byte-identical
/// snapshots every `every` ticks and at the end.
fn assert_lockstep(fast: &mut World, slow: &mut World, every: u64) -> Result<(), TestCaseError> {
    let mut ticks = 0u64;
    while !fast.finished() {
        fast.step();
        slow.step();
        ticks += 1;
        if ticks.is_multiple_of(every) {
            prop_assert_eq!(
                fast.save_snapshot(),
                slow.save_snapshot(),
                "fast and naive worlds diverged at t = {} s",
                fast.time()
            );
        }
    }
    prop_assert!(slow.finished());
    prop_assert_eq!(
        fast.save_snapshot(),
        slow.save_snapshot(),
        "fast and naive worlds diverged at the end of the run"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_tick_matches_fully_naive_pipeline(
        cfg in arb_churny_config(),
        seed in 0u64..1_000,
    ) {
        // The headline property: predicted dispatch + column drain +
        // incremental repair together vs. the all-naive pipeline,
        // snapshot-compared throughout the run.
        let mut fast = World::new(&cfg, seed);
        let mut slow = naive_twin(&cfg, seed, true, true, true);
        assert_lockstep(&mut fast, &mut slow, 16)?;
    }

    #[test]
    fn each_accelerator_matches_its_own_oracle(
        cfg in arb_churny_config(),
        seed in 0u64..1_000,
    ) {
        // Each accelerator isolated against just its own naive twin, so
        // a divergence names the guilty subsystem instead of the trio.
        for (dispatch, drain, repair) in
            [(true, false, false), (false, true, false), (false, false, true)]
        {
            let mut fast = World::new(&cfg, seed);
            let mut slow = naive_twin(&cfg, seed, dispatch, drain, repair);
            assert_lockstep(&mut fast, &mut slow, 64)?;
        }
    }

    #[test]
    fn fast_path_survives_snapshot_resume(
        cfg in arb_churny_config(),
        seed in 0u64..1_000,
        cut in 50usize..200,
    ) {
        // The crossing predictions, drain-rate column and repair
        // baseline are *not* serialized: resume restarts them
        // (all-pending scan / column rebuilt from the restored flags and
        // loads / one wholesale rebuild). That restart must be invisible — the resumed world
        // continues byte-identically to the never-paused one.
        let mut paused = World::new(&cfg, seed);
        for _ in 0..cut {
            if paused.finished() {
                break;
            }
            paused.step();
        }
        let mut resumed = match World::resume(&paused.save_snapshot()) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError(format!("resume failed: {e}"))),
        };
        let mut ticks = 0u64;
        while !paused.finished() {
            paused.step();
            resumed.step();
            ticks += 1;
            if ticks.is_multiple_of(32) {
                prop_assert_eq!(
                    paused.save_snapshot(),
                    resumed.save_snapshot(),
                    "resumed world diverged at t = {} s",
                    paused.time()
                );
            }
        }
        prop_assert_eq!(paused.save_snapshot(), resumed.save_snapshot());
    }
}

/// Regression for the dispatch fold (DESIGN.md §4j): outage waits.
///
/// A sensor suspended below threshold takes no dispatch action until it
/// resumes — but the naive scan *re-examines it every tick* of the
/// outage, and the moment it resumes (or its request is dropped by the
/// lossy uplink and backs off) the scan acts on exactly that tick. The
/// fast scan must reproduce that timing exactly: below-threshold sensors
/// stay in the next-scan set through the whole outage, and resumes are
/// explicitly seeded. This pins the combination with per-tick snapshot
/// granularity rather than the property suite's sampled checkpoints.
#[test]
fn outage_wait_dispatch_matches_naive_scan_every_tick() {
    let mut cfg = SimConfig::small(0.25);
    cfg.num_sensors = 50;
    cfg.num_targets = 3;
    cfg.num_rvs = 2;
    cfg.field_side = 60.0;
    cfg.initial_soc = (0.18, 0.55); // most sensors cross the threshold
    cfg.faults.transients_per_day = 12.0; // frequent outages
    cfg.faults.transient_outage_s = (300.0, 2_400.0);
    cfg.faults.uplink_loss = 0.5; // plus retransmit backoff waits
    cfg.faults.uplink_backoff_s = 240.0;
    cfg.faults.uplink_backoff_cap_s = 1_800.0;
    cfg.min_batch_demand_j = 10e3;

    for seed in [3u64, 17, 29] {
        let mut fast = World::new(&cfg, seed);
        let mut slow = naive_twin(&cfg, seed, true, false, false);
        while !fast.finished() {
            fast.step();
            slow.step();
            assert_eq!(
                fast.save_snapshot(),
                slow.save_snapshot(),
                "seed {seed}: heap dispatch diverged from the naive scan at t = {} s",
                fast.time()
            );
        }
        let out = fast.outcome();
        assert!(
            out.transient_faults > 0,
            "seed {seed}: the scenario never exercised an outage"
        );
        assert!(
            out.uplink_drops > 0,
            "seed {seed}: the scenario never exercised a backoff wait"
        );
    }
}

/// The crossing and depletion predictions are bounded per 1024-sensor
/// chunk; every proptest world above fits in one chunk. This fixed world
/// spans three chunks with a ragged last one (2,100 sensors), runs with
/// uplink loss and transient outages, and resumes the fast world from
/// its own snapshot mid-run (predictions are rebuilt from scratch) while
/// the naive twin runs uninterrupted. Two cases:
///
/// * everyone starts near the 50 % threshold, so crossings land in every
///   chunk, against a naive-dispatch twin;
/// * everyone starts nearly empty and levels are lazy (no
///   self-discharge, sparse draw changes), so depletions land in every
///   chunk, against a naive-drain twin.
#[test]
fn multi_chunk_dispatch_matches_naive_scan_across_resume() {
    for depletions in [false, true] {
        multi_chunk_lockstep(depletions);
    }
}

fn multi_chunk_lockstep(depletions: bool) {
    let mut cfg = SimConfig::small(0.3);
    cfg.num_sensors = 2_100;
    cfg.num_targets = 20;
    cfg.num_rvs = 3;
    cfg.field_side = 60.0 * (2_100.0f64 / 60.0).sqrt();
    cfg.initial_soc = if depletions {
        (0.001, 0.02)
    } else {
        (0.4, 0.55)
    };
    cfg.faults.transients_per_day = 6.0;
    cfg.faults.transient_outage_s = (120.0, 1_800.0);
    cfg.faults.uplink_loss = 0.4;
    cfg.faults.uplink_backoff_s = 300.0;
    cfg.faults.uplink_backoff_cap_s = 3_600.0;
    cfg.min_batch_demand_j = 10e3;
    assert_eq!(cfg.self_discharge_per_day, 0.0);

    let seed = 11;
    let mut fast = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, !depletions, depletions, false);
    for w in [&mut fast, &mut slow] {
        w.enable_trace(1 << 16);
    }
    let soc = |w: &World, s: usize| w.battery(SensorId(s as u32)).soc();
    let above: Vec<bool> = (0..cfg.num_sensors)
        .map(|s| soc(&fast, s) >= cfg.recharge_threshold_frac)
        .collect();
    let (mut ticks, mut lazy_checks, mut checks) = (0u64, 0, 0);
    while !fast.finished() {
        fast.step();
        slow.step();
        ticks += 1;
        if ticks == 200 {
            fast = World::resume(&fast.save_snapshot()).expect("resume");
        }
        if ticks.is_multiple_of(8) {
            assert_eq!(
                fast.save_snapshot(),
                slow.save_snapshot(),
                "three-chunk world diverged from its naive twin at t = {} s",
                fast.time()
            );
            checks += 1;
            lazy_checks +=
                (0..cfg.num_sensors).any(|s| fast.lazy_lane_lag(SensorId(s as u32)) > 0) as u32;
        }
    }
    assert!(slow.finished());
    assert_eq!(fast.save_snapshot(), slow.save_snapshot());
    let depleted: Vec<usize> = (fast.trace().events().iter())
        .filter_map(|e| match e {
            TraceEvent::SensorDepleted { sensor, .. } => Some(sensor.index()),
            _ => None,
        })
        .collect();
    // Lazy from the first pass; only a check just after the resume may
    // find every lane freshly stamped.
    assert!(4 * lazy_checks >= 3 * checks, "levels stayed eager");
    for c0 in (0..cfg.num_sensors).step_by(1024) {
        let chunk = c0..(c0 + 1024).min(cfg.num_sensors);
        if depletions {
            assert!(
                depleted.iter().any(|s| chunk.contains(s)),
                "no sensor in the chunk at {c0} depleted"
            );
        } else {
            // Every chunk, the ragged last one included, saw predicted
            // crossings.
            let crossed = chunk
                .filter(|&s| above[s] && soc(&fast, s) < cfg.recharge_threshold_frac)
                .count();
            assert!(
                crossed > 0,
                "no sensor in the chunk at {c0} crossed the threshold"
            );
        }
    }
    let out = fast.outcome();
    assert!(out.transient_faults > 0, "no outage was exercised");
    assert!(out.uplink_drops > 0, "no uplink backoff was exercised");
}

/// Regression for the naive-dispatch switch: the fast scan's crossing
/// predictions are keyed to a tick counter that stands still while the
/// naive pass runs, so switching back to the fast pass must restart its
/// scan state rather than trust predictions made before the naive
/// stretch.
#[test]
fn naive_dispatch_switched_off_mid_run_matches_naive_twin() {
    let mut cfg = SimConfig::small(1.0);
    cfg.initial_soc = (0.45, 0.9);
    let seed = 1;
    let mut mixed = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, true, false, false);
    let mut ticks = 0u64;
    while !mixed.finished() {
        if ticks == 100 || ticks == 400 {
            mixed.set_naive_dispatch(ticks == 100);
        }
        mixed.step();
        slow.step();
        ticks += 1;
        assert_eq!(
            mixed.save_snapshot(),
            slow.save_snapshot(),
            "the switched world diverged from the naive twin at tick {ticks}"
        );
    }
}

/// Regression for the naive-drain switch: the drain-rate column is
/// refreshed in both drain modes, so a world that runs the naive loop
/// from tick 100 to tick 400 and the column kernel around it stays
/// byte-identical to an all-naive-drain twin. Faults, depletions and
/// self-discharge keep the refresh marks busy across both switches.
#[test]
fn naive_drain_switched_off_mid_run_matches_naive_twin() {
    let mut cfg = SimConfig::small(1.0);
    cfg.num_sensors = 80;
    cfg.num_targets = 4;
    cfg.num_rvs = 1;
    cfg.field_side = 50.0;
    cfg.initial_soc = (0.01, 0.7);
    cfg.self_discharge_per_day = 0.02;
    cfg.permanent_failures_per_day = 0.2;
    cfg.faults.transients_per_day = 6.0;
    cfg.faults.transient_outage_s = (300.0, 2_400.0);
    cfg.faults.uplink_loss = 0.3;
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
    cfg.min_batch_demand_j = 10e3;
    let seed = 3;
    let mut mixed = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, false, true, false);
    let mut ticks = 0u64;
    while !mixed.finished() {
        if ticks == 100 || ticks == 400 {
            mixed.set_naive_drain(ticks == 100);
        }
        mixed.step();
        slow.step();
        ticks += 1;
        assert_eq!(
            mixed.save_snapshot(),
            slow.save_snapshot(),
            "the switched world diverged from the naive-drain twin at tick {ticks}"
        );
    }
    let out = mixed.outcome();
    assert!(out.deaths > 0, "no sensor depleted");
    assert!(out.permanent_failures > 0, "no permanent failure happened");
    assert!(out.transient_faults > 0, "no outage was exercised");
}

/// The naive-drain switch where levels are lazy (no self-discharge):
/// switching to the naive loop materializes every lane at its level,
/// and switching back predicts every lane's depletion afresh and
/// recounts the drain sum. Depletions, failures and outages fall on both
/// sides of each switch; snapshots are compared every tick.
#[test]
fn naive_drain_switch_materializes_lazy_levels() {
    let mut cfg = SimConfig::small(1.0);
    cfg.num_sensors = 80;
    cfg.num_targets = 4;
    cfg.num_rvs = 1;
    cfg.field_side = 50.0;
    cfg.initial_soc = (0.005, 0.7);
    cfg.permanent_failures_per_day = 0.2;
    cfg.faults.transients_per_day = 6.0;
    cfg.faults.transient_outage_s = (300.0, 2_400.0);
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
    cfg.min_batch_demand_j = 10e3;
    let seed = 3;
    let mut mixed = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, false, true, false);
    let mut ticks = 0u64;
    while !mixed.finished() {
        if ticks == 100 || ticks == 400 {
            mixed.set_naive_drain(ticks == 100);
        }
        mixed.step();
        slow.step();
        ticks += 1;
        assert!(
            mixed.save_snapshot() == slow.save_snapshot(),
            "the switched world diverged from the naive-drain twin at tick {ticks}"
        );
    }
    let out = mixed.outcome();
    assert!(out.deaths > 0, "no sensor depleted");
    assert!(out.permanent_failures > 0, "no permanent failure happened");
    assert!(out.transient_faults > 0, "no outage was exercised");
}

/// Parking under the strictest quorum (DESIGN.md §4j): at K = 1 nearly
/// every pending grouped request waits behind its group while sensors
/// deplete, fail, go down and come back, lose uplinks and see their
/// groups replaced by teleport rebuilds. One RV keeps the queue long. The
/// fast world resumes from its own snapshot mid-run (nothing parked
/// after a resume) while the naive twin runs on; snapshots are compared
/// every tick.
#[test]
fn parked_requests_match_naive_scan_every_tick_at_full_quorum() {
    let mut cfg = SimConfig::small(1.0);
    cfg.num_sensors = 100;
    cfg.num_targets = 6;
    cfg.num_rvs = 1;
    cfg.field_side = 40.0;
    cfg.initial_soc = (0.01, 0.6);
    cfg.activity.erp = Some(1.0);
    cfg.permanent_failures_per_day = 0.2;
    cfg.faults.transients_per_day = 6.0;
    cfg.faults.transient_outage_s = (300.0, 2_400.0);
    cfg.faults.uplink_loss = 0.4;
    cfg.faults.uplink_backoff_s = 240.0;
    cfg.faults.uplink_backoff_cap_s = 1_800.0;
    cfg.target_mobility = TargetMobility::RandomTeleport;
    cfg.target_period_s = 3_600.0;
    cfg.min_batch_demand_j = 10e3;

    let seed = 5;
    let mut fast = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, true, false, false);
    let (mut ticks, mut max_parked) = (0u64, 0usize);
    while !fast.finished() {
        fast.step();
        slow.step();
        ticks += 1;
        max_parked = max_parked.max(fast.parked_request_count());
        if ticks == 500 {
            fast = World::resume(&fast.save_snapshot()).expect("resume");
        }
        assert_eq!(
            fast.save_snapshot(),
            slow.save_snapshot(),
            "parked dispatch diverged from the naive scan at tick {ticks}"
        );
    }
    let out = fast.outcome();
    assert!(out.deaths > 0, "no sensor depleted");
    assert!(out.permanent_failures > 0, "no permanent failure happened");
    assert!(out.transient_faults > 0, "no outage was exercised");
    assert!(out.uplink_drops > 0, "no uplink backoff was exercised");
    assert!(max_parked > 0, "no request was ever parked");
}

/// Paper-length lockstep: the Table II world for its full 120 days at two
/// seeds, the fast tick against three oracle twins, naive dispatch, naive
/// drain and wholesale cluster rebuilds (the run makes ~12.5k incremental
/// repairs, one per target teleport), snapshots compared every simulated
/// day and at the end.
/// Release only (seconds there; the per-tick debug audit makes it
/// minutes).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_length_dispatch_matches_naive_scan() {
    let cfg = SimConfig::paper_defaults();
    let ticks_per_day = (86_400.0 / cfg.tick_s).round() as u64;
    for seed in [1u64, 7] {
        let mut fast = World::new(&cfg, seed);
        let mut twins = [
            ("dispatch", naive_twin(&cfg, seed, true, false, false)),
            ("drain", naive_twin(&cfg, seed, false, true, false)),
            ("repair", naive_twin(&cfg, seed, false, false, true)),
        ];
        let mut ticks = 0u64;
        while !fast.finished() {
            fast.step();
            ticks += 1;
            let day_end = ticks.is_multiple_of(ticks_per_day);
            let snap = day_end.then(|| fast.save_snapshot());
            for (oracle, twin) in &mut twins {
                twin.step();
                if let Some(snap) = &snap {
                    assert!(
                        *snap == twin.save_snapshot(),
                        "seed {seed}: paper-scale world diverged from the naive {oracle} \
                         twin on day {}",
                        ticks / ticks_per_day
                    );
                }
            }
        }
        let snap = fast.save_snapshot();
        for (oracle, twin) in &twins {
            assert!(twin.finished());
            assert!(
                snap == twin.save_snapshot(),
                "seed {seed}: paper-scale world diverged from the naive {oracle} twin at \
                 the end of the run"
            );
        }
    }
}

/// Lockstep where handovers churn hardest: the `chaos-replay` benchmark
/// world (Table II scale, RV breakdowns, lossy uplink, transient outages,
/// random-waypoint targets at 0.5 m/s, which re-anchor and rebuild the
/// clusters on nearly every tick) for ten days, against a naive-dispatch
/// twin, a naive-drain twin and a naive-repair twin, snapshots compared
/// every simulated day and at the end. It is also where lazy battery
/// levels rebase most: outages drop draws to 0 and back, RVs charge, and
/// about 100 lanes change draw per tick. Release only, like the
/// paper-length lockstep.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn chaos_waypoint_world_matches_naive_twins() {
    let mut cfg = SimConfig::paper_defaults();
    cfg.duration_days = 10.0;
    cfg.duration_s = cfg.duration_days * 86_400.0;
    cfg.initial_soc = (0.3, 1.0);
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
    cfg.faults = wrsn_sim::FaultConfig {
        rv_breakdowns_per_day: 2.0,
        rv_repair_s: (1_800.0, 7_200.0),
        uplink_loss: 0.2,
        transients_per_day: 1.0,
        transient_outage_s: (300.0, 1_800.0),
        ..wrsn_sim::FaultConfig::none()
    };
    let ticks_per_day = (86_400.0 / cfg.tick_s).round() as u64;
    let seed = 1;
    let mut fast = World::new(&cfg, seed);
    let mut twins = [
        ("dispatch", naive_twin(&cfg, seed, true, false, false)),
        ("drain", naive_twin(&cfg, seed, false, true, false)),
        ("repair", naive_twin(&cfg, seed, false, false, true)),
    ];
    let mut ticks = 0u64;
    while !fast.finished() {
        fast.step();
        ticks += 1;
        let day_end = ticks.is_multiple_of(ticks_per_day);
        let snap = day_end.then(|| fast.save_snapshot());
        for (oracle, twin) in &mut twins {
            twin.step();
            if let Some(snap) = &snap {
                assert!(
                    *snap == twin.save_snapshot(),
                    "chaos waypoint world diverged from the naive {oracle} twin on day {}",
                    ticks / ticks_per_day
                );
            }
        }
    }
    let snap = fast.save_snapshot();
    for (oracle, twin) in &twins {
        assert!(twin.finished());
        assert!(
            snap == twin.save_snapshot(),
            "chaos waypoint world diverged from the naive {oracle} twin at the end of the run"
        );
    }
    let out = fast.outcome();
    assert!(out.rv_breakdowns > 0, "no RV breakdown was exercised");
    assert!(out.transient_faults > 0, "no outage was exercised");
    assert!(out.uplink_drops > 0, "no uplink backoff was exercised");
}

/// Resume where lazy battery levels lag furthest behind their stamps
/// (DESIGN.md §4j): on the Table II world a sensor that neither monitors
/// a target nor relays keeps one draw for days, so after two days most
/// lanes have not been materialized since construction. The fast world
/// resumes from its own snapshot there (decode stamps every lane with
/// the current pass) and must stay byte-identical to a naive-drain twin
/// that runs uninterrupted, snapshots compared every simulated hour.
#[test]
fn lazy_levels_days_behind_their_stamp_survive_resume() {
    let mut cfg = SimConfig::paper_defaults();
    cfg.duration_days = 2.5;
    cfg.duration_s = cfg.duration_days * 86_400.0;
    let seed = 3;
    let mut fast = World::new(&cfg, seed);
    let mut slow = naive_twin(&cfg, seed, false, true, false);
    let ticks_per_day = (86_400.0 / cfg.tick_s).round() as u64;
    let mut ticks = 0u64;
    while !fast.finished() {
        fast.step();
        slow.step();
        ticks += 1;
        if ticks == 2 * ticks_per_day {
            let lagging = (0..cfg.num_sensors)
                .filter(|&s| fast.lazy_lane_lag(SensorId(s as u32)) >= ticks_per_day)
                .count();
            assert!(
                lagging >= cfg.num_sensors / 4,
                "only {lagging} lanes lag a day or more behind their stamp"
            );
            fast = World::resume(&fast.save_snapshot()).expect("resume");
            assert_eq!(fast.lazy_lane_lag(SensorId(0)), 0);
        }
        if ticks.is_multiple_of(60) {
            assert!(
                fast.save_snapshot() == slow.save_snapshot(),
                "resumed lazy world diverged from the naive-drain twin at tick {ticks}"
            );
        }
    }
    assert!(slow.finished());
    assert!(fast.save_snapshot() == slow.save_snapshot());
}
