//! Property-based tests for the chaos engine: random fault schedules on
//! random small configurations must never violate the whole-state
//! invariants, lose a request forever, break run/step equivalence, or
//! trip the RV phase-loop guard. In debug builds `World::step` already
//! audits the invariant checker after every tick, so merely *running*
//! these cases sweeps energy conservation and board/route/phase
//! consistency across thousands of fault interleavings.
//!
//! It also checks the sample-phase accounting: the `alive_count_*` and
//! `coverage_*` properties step worlds tick by tick and demand that the
//! exact alive counter equals a full recount, that `coverage_ratio` is the
//! `covered_clusters` fraction, and that reads never perturb a run, under
//! random fault schedules and teleporting targets. Unlike the per-tick
//! debug audit, these assertions also run when the suite is compiled
//! `--release` (CI runs both profiles).

use proptest::prelude::*;
use wrsn_core::{SchedulerKind, SensorId};
use wrsn_sim::{FaultConfig, SimConfig, SimOutcome, World};

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Greedy),
        Just(SchedulerKind::Insertion),
        Just(SchedulerKind::Combined),
        Just(SchedulerKind::Savings),
    ]
}

prop_compose! {
    /// A fault plan with every class independently off or aggressive —
    /// includes the all-off corner and the everything-at-once corner.
    fn arb_faults()(
        breakdowns_on in proptest::bool::ANY,
        breakdowns in 0.5f64..6.0,
        repair_lo in 300.0f64..3_600.0,
        repair_spread in 0.0f64..7_200.0,
        loss_on in proptest::bool::ANY,
        loss in 0.1f64..0.9,
        backoff in 30.0f64..600.0,
        transients_on in proptest::bool::ANY,
        transients in 0.5f64..8.0,
        outage_lo in 60.0f64..1_800.0,
        outage_spread in 0.0f64..3_600.0,
    ) -> FaultConfig {
        FaultConfig {
            rv_breakdowns_per_day: if breakdowns_on { breakdowns } else { 0.0 },
            rv_repair_s: (repair_lo, repair_lo + repair_spread),
            uplink_loss: if loss_on { loss } else { 0.0 },
            uplink_backoff_s: backoff,
            uplink_backoff_cap_s: backoff * 16.0,
            transients_per_day: if transients_on { transients } else { 0.0 },
            transient_outage_s: (outage_lo, outage_lo + outage_spread),
        }
    }
}

prop_compose! {
    fn arb_config()(
        sensors in 20usize..70,
        targets in 0usize..5,
        rvs in 1usize..4,
        field in 40.0f64..100.0,
        scheduler in arb_scheduler(),
        soc_lo in 0.2f64..0.6,
        failures in prop_oneof![Just(0.0), Just(0.05)],
        faults in arb_faults(),
    ) -> SimConfig {
        let mut cfg = SimConfig::small(1.0); // 1 simulated day keeps it fast
        cfg.num_sensors = sensors;
        cfg.num_targets = targets;
        cfg.num_rvs = rvs;
        cfg.field_side = field;
        cfg.scheduler = scheduler;
        cfg.initial_soc = (soc_lo, 1.0);
        cfg.permanent_failures_per_day = failures;
        cfg.min_batch_demand_j = 10e3;
        cfg.faults = faults;
        cfg
    }
}

fn assert_same_outcome(a: &SimOutcome, b: &SimOutcome) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.report, &b.report);
    prop_assert_eq!(a.total_drained_j, b.total_drained_j);
    prop_assert_eq!(a.total_delivered_j, b.total_delivered_j);
    prop_assert_eq!(a.deaths, b.deaths);
    prop_assert_eq!(a.plans, b.plans);
    prop_assert_eq!(a.rv_breakdowns, b.rv_breakdowns);
    prop_assert_eq!(a.transient_faults, b.transient_faults);
    prop_assert_eq!(a.uplink_drops, b.uplink_drops);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_under_random_fault_schedules(cfg in arb_config(), seed in 0u64..1_000) {
        // World::step audits the invariant checker every tick in debug
        // builds (panicking on violation); the explicit end-of-run check
        // also covers release-mode runs of this suite.
        let mut w = World::new(&cfg, seed);
        let out = w.run();
        prop_assert!(w.check_invariants().is_ok(), "{:?}", w.check_invariants());

        // Ledgers stay consistent under faults.
        prop_assert!((out.report.recharged_mj * 1e6 - out.total_delivered_j).abs() < 1e-6);
        prop_assert!(out.rv_energy_shortfall_j < 1.0, "shortfall {}", out.rv_energy_shortfall_j);
        prop_assert!(out.final_alive <= cfg.num_sensors);
        let r = &out.report;
        prop_assert!((0.0..=100.0 + 1e-9).contains(&r.coverage_ratio_pct));
        prop_assert!((0.0..=100.0 + 1e-9).contains(&r.nonfunctional_pct));

        // Fault ledgers only fire for enabled classes.
        if cfg.faults.rv_breakdowns_per_day == 0.0 {
            prop_assert_eq!(out.rv_breakdowns, 0);
        }
        if cfg.faults.transients_per_day == 0.0 {
            prop_assert_eq!(out.transient_faults, 0);
        }
        if cfg.faults.uplink_loss == 0.0 {
            prop_assert_eq!(out.uplink_drops, 0);
        }
    }

    #[test]
    fn run_equals_manual_stepping_with_faults_on(cfg in arb_config(), seed in 0u64..1_000) {
        let auto = World::new(&cfg, seed).run();
        let mut manual = World::new(&cfg, seed);
        while !manual.finished() {
            manual.step();
        }
        assert_same_outcome(&auto, &manual.outcome())?;
    }

    #[test]
    fn determinism_with_faults_on(cfg in arb_config(), seed in 0u64..1_000) {
        let a = World::new(&cfg, seed).run();
        let b = World::new(&cfg, seed).run();
        assert_same_outcome(&a, &b)?;
    }

    #[test]
    fn no_request_is_lost_forever(cfg in arb_config(), seed in 0u64..1_000) {
        // Under a lossy uplink, every live sensor that lost an exchange
        // must hold a scheduled (finite, future-or-past but finite)
        // retransmit — a request can be delayed, never dropped on the
        // floor while its sensor is alive.
        let mut w = World::new(&cfg, seed);
        w.run();
        let board = w.board();
        for s in 0..cfg.num_sensors {
            let id = SensorId(s as u32);
            if board.uplink_attempts(id) > 0 {
                prop_assert!(!board.is_released(id),
                    "sensor {s}: released requests cannot have a retry pending");
                prop_assert!(board.retry_time(id).is_finite(),
                    "sensor {s}: lost uplink without a scheduled retransmit");
                prop_assert!(!w.is_failed(id),
                    "sensor {s}: failed sensors must leave the board");
            }
        }
    }

    #[test]
    fn alive_count_equals_oracle_every_tick(cfg in arb_config(), seed in 0u64..1_000) {
        // On every single tick of a run under a random fault schedule,
        // the exact alive counter must equal the recount over all
        // batteries, and the coverage ratio must be the covered-cluster
        // fraction. Target teleports are forced to happen mid-run so
        // cluster rebuilds are exercised, not just battery transitions.
        let mut cfg = cfg;
        cfg.target_period_s = 7_200.0; // several teleports per simulated day
        let mut w = World::new(&cfg, seed);
        loop {
            prop_assert_eq!(
                w.alive_count(),
                w.oracle_alive_count(),
                "alive counter != recount at t = {} s",
                w.time()
            );
            let (covered, total) = w.covered_clusters();
            if total == 0 {
                prop_assert_eq!(w.coverage_ratio(), 1.0);
            } else {
                prop_assert_eq!(w.coverage_ratio(), covered as f64 / total as f64);
            }
            if w.finished() {
                break;
            }
            w.step();
        }
    }

    #[test]
    fn coverage_cache_is_read_only(cfg in arb_config(), seed in 0u64..1_000) {
        // Interleaving coverage/alive reads between ticks (as render/watch
        // loops do) must not change the run: reads are non-mutating.
        let plain = World::new(&cfg, seed).run();
        let mut probed = World::new(&cfg, seed);
        let mut ticks = 0u64;
        while !probed.finished() {
            probed.step();
            ticks += 1;
            if ticks.is_multiple_of(7) {
                let _ = probed.coverage_ratio();
                let _ = probed.alive_count();
                let _ = probed.covered_clusters();
            }
        }
        assert_same_outcome(&plain, &probed.outcome())?;
    }

    #[test]
    fn zero_rates_match_fault_config_none(
        sensors in 20usize..60,
        rvs in 1usize..3,
        seed in 0u64..1_000,
        backoff in 30.0f64..600.0,
        repair_lo in 300.0f64..3_600.0,
    ) {
        // Secondary knobs (repair times, backoff) are inert while their
        // class's rate is zero: outcomes match FaultConfig::none() exactly.
        let mut cfg = SimConfig::small(0.5);
        cfg.num_sensors = sensors;
        cfg.num_targets = 2;
        cfg.num_rvs = rvs;
        cfg.field_side = 60.0;
        cfg.initial_soc = (0.3, 1.0);
        cfg.faults = FaultConfig {
            rv_breakdowns_per_day: 0.0,
            rv_repair_s: (repair_lo, repair_lo * 2.0),
            uplink_loss: 0.0,
            uplink_backoff_s: backoff,
            uplink_backoff_cap_s: backoff * 8.0,
            transients_per_day: 0.0,
            transient_outage_s: (60.0, 120.0),
        };
        let a = World::new(&cfg, seed).run();
        let mut plain = cfg.clone();
        plain.faults = FaultConfig::none();
        let b = World::new(&plain, seed).run();
        assert_same_outcome(&a, &b)?;
    }
}
