//! Property-based tests for the snapshot/resume subsystem: saving a world
//! at a *random* tick under a *random* fault schedule and resuming from
//! the bytes must continue the run **bitwise identically** — the resumed
//! world's final outcome, trace, alive counter and complete serialized
//! state equal the uninterrupted run's, f64s compared by bit pattern.
//!
//! Unlike the per-tick debug audits, these assertions also run when the
//! suite is compiled `--release` (CI runs both profiles), so the
//! determinism contract is checked under the optimizer too.

use proptest::prelude::*;
use wrsn_core::SchedulerKind;
use wrsn_sim::{FaultConfig, SimConfig, SimOutcome, World};

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Greedy),
        Just(SchedulerKind::Insertion),
        Just(SchedulerKind::Partition),
        Just(SchedulerKind::Combined),
        Just(SchedulerKind::Savings),
        Just(SchedulerKind::Deadline),
    ]
}

prop_compose! {
    /// Random fault schedule — every class independently off or active, so
    /// the RNG ledgers the snapshot must preserve are actually exercised.
    fn arb_faults()(
        breakdowns_on in proptest::bool::ANY,
        breakdowns in 0.5f64..5.0,
        repair_lo in 300.0f64..1_800.0,
        loss_on in proptest::bool::ANY,
        loss in 0.1f64..0.6,
        transients_on in proptest::bool::ANY,
        transients in 0.5f64..6.0,
    ) -> FaultConfig {
        FaultConfig {
            rv_breakdowns_per_day: if breakdowns_on { breakdowns } else { 0.0 },
            rv_repair_s: (repair_lo, repair_lo * 2.0),
            uplink_loss: if loss_on { loss } else { 0.0 },
            transients_per_day: if transients_on { transients } else { 0.0 },
            transient_outage_s: (120.0, 900.0),
            ..FaultConfig::none()
        }
    }
}

prop_compose! {
    fn arb_config()(
        sensors in 20usize..60,
        targets in 0usize..5,
        rvs in 1usize..3,
        field in 40.0f64..90.0,
        scheduler in arb_scheduler(),
        failures in prop_oneof![Just(0.0), Just(0.1)],
        faults in arb_faults(),
    ) -> SimConfig {
        let mut cfg = SimConfig::small(0.5); // half a simulated day
        cfg.num_sensors = sensors;
        cfg.num_targets = targets;
        cfg.num_rvs = rvs;
        cfg.field_side = field;
        cfg.scheduler = scheduler;
        cfg.initial_soc = (0.3, 1.0);
        cfg.permanent_failures_per_day = failures;
        cfg.min_batch_demand_j = 10e3;
        cfg.faults = faults;
        cfg
    }
}

/// Bitwise outcome comparison: every f64 by bit pattern (so even NaN
/// payloads and signed zeros must match), every counter exactly.
fn assert_bitwise_equal(a: &SimOutcome, b: &SimOutcome) -> Result<(), TestCaseError> {
    let fa = [
        a.report.travel_distance_m,
        a.report.travel_energy_mj,
        a.report.recharged_mj,
        a.report.objective_mj,
        a.report.coverage_ratio_pct,
        a.report.missing_rate_pct,
        a.report.nonfunctional_pct,
        a.report.recharging_cost_m_per_sensor,
        a.total_drained_j,
        a.total_delivered_j,
        a.rv_energy_shortfall_j,
        a.rv_charging_utilization,
    ];
    let fb = [
        b.report.travel_distance_m,
        b.report.travel_energy_mj,
        b.report.recharged_mj,
        b.report.objective_mj,
        b.report.coverage_ratio_pct,
        b.report.missing_rate_pct,
        b.report.nonfunctional_pct,
        b.report.recharging_cost_m_per_sensor,
        b.total_drained_j,
        b.total_delivered_j,
        b.rv_energy_shortfall_j,
        b.rv_charging_utilization,
    ];
    for (i, (x, y)) in fa.iter().zip(&fb).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "f64 field {i}: {x} != {y}");
    }
    prop_assert_eq!(a.report.recharge_visits, b.report.recharge_visits);
    prop_assert_eq!(a.deaths, b.deaths);
    prop_assert_eq!(a.plans, b.plans);
    prop_assert_eq!(a.final_alive, b.final_alive);
    prop_assert_eq!(a.permanent_failures, b.permanent_failures);
    prop_assert_eq!(a.rv_breakdowns, b.rv_breakdowns);
    prop_assert_eq!(a.transient_faults, b.transient_faults);
    prop_assert_eq!(a.uplink_drops, b.uplink_drops);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn save_at_random_tick_resume_and_finish_is_bitwise_identical(
        cfg in arb_config(),
        seed in 0u64..1_000,
        frac in 0.05f64..0.95,
        traced in proptest::bool::ANY,
    ) {
        // Uninterrupted reference run.
        let mut reference = World::new(&cfg, seed);
        if traced {
            reference.enable_trace(512);
        }

        // Interrupted run: step to a random cut point, snapshot, resume.
        let mut interrupted = World::new(&cfg, seed);
        if traced {
            interrupted.enable_trace(512);
        }
        let total_ticks = (cfg.duration_s / cfg.tick_s).ceil() as usize;
        let cut = ((total_ticks as f64) * frac) as usize;
        for _ in 0..cut {
            if interrupted.finished() {
                break;
            }
            interrupted.step();
        }
        let blob = interrupted.save_snapshot();
        let mut resumed = World::resume(&blob).expect("snapshot decodes");

        // Re-encoding the freshly resumed world reproduces the bytes:
        // decode loses nothing the encoder writes.
        prop_assert_eq!(resumed.save_snapshot(), blob, "encode∘decode is not the identity");
        prop_assert!(resumed.check_invariants().is_ok(), "{:?}", resumed.check_invariants());

        while !reference.finished() {
            reference.step();
        }
        while !resumed.finished() {
            resumed.step();
        }

        // Outcome, alive counter, trace and the complete final state must
        // all be indistinguishable from the uninterrupted run's.
        assert_bitwise_equal(&reference.outcome(), &resumed.outcome())?;
        prop_assert_eq!(resumed.alive_count(), resumed.oracle_alive_count());
        prop_assert_eq!(reference.trace().events(), resumed.trace().events());
        prop_assert_eq!(reference.trace().dropped(), resumed.trace().dropped());
        prop_assert_eq!(
            reference.save_snapshot(),
            resumed.save_snapshot(),
            "final serialized states diverge"
        );
        prop_assert!(resumed.check_invariants().is_ok(), "{:?}", resumed.check_invariants());
    }

    #[test]
    fn snapshot_chain_of_saves_is_stable(
        cfg in arb_config(),
        seed in 0u64..1_000,
        cuts in proptest::collection::vec(0.1f64..0.4, 1..4),
    ) {
        // Saving and resuming repeatedly along one run (checkpoint every
        // so often, as a supervised sweep would) never drifts from the
        // uninterrupted run.
        let mut reference = World::new(&cfg, seed);
        while !reference.finished() {
            reference.step();
        }

        let mut world = World::new(&cfg, seed);
        let total_ticks = (cfg.duration_s / cfg.tick_s).ceil() as usize;
        for frac in cuts {
            let chunk = ((total_ticks as f64) * frac) as usize;
            for _ in 0..chunk {
                if world.finished() {
                    break;
                }
                world.step();
            }
            world = World::resume(&world.save_snapshot()).expect("snapshot decodes");
        }
        while !world.finished() {
            world.step();
        }
        assert_bitwise_equal(&reference.outcome(), &world.outcome())?;
        prop_assert_eq!(reference.save_snapshot(), world.save_snapshot());
    }

    #[test]
    fn corrupting_any_prefix_never_panics(
        cfg in arb_config(),
        seed in 0u64..1_000,
        frac in 0.0f64..1.0,
    ) {
        // Truncation at any byte boundary must produce a clean error,
        // never a panic or a silently wrong world.
        let mut w = World::new(&cfg, seed);
        for _ in 0..50 {
            if w.finished() {
                break;
            }
            w.step();
        }
        let blob = w.save_snapshot();
        let cut = ((blob.len() as f64) * frac) as usize;
        if cut < blob.len() {
            prop_assert!(World::resume(&blob[..cut]).is_err());
        }
    }
}
