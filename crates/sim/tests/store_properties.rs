//! Property-based tests for the event-sourced run store: the determinism
//! contract says materializing tick `T` of a recorded run (nearest
//! snapshot-chain link + deterministic replay) yields a world whose
//! `WRSNSNAP` bytes are **identical** to a live run stepped to `T`.
//!
//! Like `snapshot_properties.rs`, these assertions run in debug AND
//! `--release` in CI, so the contract is checked under the optimizer too:
//!
//! * random-tick materialization ≡ live world, full byte equality;
//! * snapshot-chain spacing invariance — the materialized bytes do not
//!   depend on the recorder's `snap_every`;
//! * resume-then-record continuity — a recording torn mid-write and
//!   resumed produces a byte-identical log and store to an uninterrupted
//!   recording's.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use wrsn_core::SchedulerKind;
use wrsn_sim::store::{RecordOptions, RunRecorder, StoredRun, LOG_FILE};
use wrsn_sim::{FaultConfig, SimConfig, TargetMobility, World};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per proptest case.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wrsn-store-prop-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Greedy),
        Just(SchedulerKind::Insertion),
        Just(SchedulerKind::Combined),
        Just(SchedulerKind::Deadline),
    ]
}

prop_compose! {
    /// Chaos on by default: breakdowns, uplink loss and transients make
    /// the trace (and therefore the event log) actually carry events.
    fn arb_faults()(
        breakdowns in 0.0f64..6.0,
        loss in 0.0f64..0.5,
        transients in 0.0f64..6.0,
    ) -> FaultConfig {
        FaultConfig {
            rv_breakdowns_per_day: breakdowns,
            rv_repair_s: (600.0, 1_800.0),
            uplink_loss: loss,
            transients_per_day: transients,
            transient_outage_s: (120.0, 900.0),
            ..FaultConfig::none()
        }
    }
}

fn arb_mobility() -> impl Strategy<Value = TargetMobility> {
    (0usize..3, 0.1f64..1.0).prop_map(|(kind, speed_mps)| match kind {
        0 => TargetMobility::Static,
        1 => TargetMobility::RandomTeleport,
        _ => TargetMobility::RandomWaypoint { speed_mps },
    })
}

/// A cap of a handful of events half the time, 512 (no eviction in a
/// run this short) otherwise.
fn arb_trace_cap() -> impl Strategy<Value = usize> {
    (proptest::bool::ANY, 4usize..32).prop_map(|(small, cap)| if small { cap } else { 512 })
}

prop_compose! {
    /// A recorded config and the recorder's trace cap. Every target
    /// mobility model is drawn (teleports at least hourly-ish, so the
    /// short run rebuilds its clusters), and caps from a handful of
    /// events, which evict all run long, to one that never does.
    fn arb_config()(
        sensors in 20usize..50,
        targets in 1usize..4,
        rvs in 1usize..3,
        field in 40.0f64..80.0,
        scheduler in arb_scheduler(),
        faults in arb_faults(),
        mobility in arb_mobility(),
        target_period_s in 1_200.0f64..7_200.0,
        trace_cap in arb_trace_cap(),
    ) -> (SimConfig, usize) {
        let mut cfg = SimConfig::small(0.25); // 360 ticks at the 60 s tick
        cfg.num_sensors = sensors;
        cfg.num_targets = targets;
        cfg.num_rvs = rvs;
        cfg.field_side = field;
        cfg.scheduler = scheduler;
        cfg.initial_soc = (0.3, 1.0);
        cfg.min_batch_demand_j = 10e3;
        cfg.faults = faults;
        cfg.target_mobility = mobility;
        cfg.target_period_s = target_period_s;
        (cfg, trace_cap)
    }
}

/// A live world configured exactly as the recorder configures its own
/// (the trace cap is part of the snapshot bytes, so the twin must match).
fn live_twin(cfg: &SimConfig, seed: u64, trace_cap: usize, ticks: u64) -> World {
    let mut w = World::new(cfg, seed);
    w.enable_trace(trace_cap);
    for _ in 0..ticks {
        w.step();
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn materialized_tick_is_bitwise_identical_to_live_run(
        case in arb_config(),
        seed in 0u64..1_000,
        snap_every in 40u64..200,
        frac in 0.0f64..1.0,
    ) {
        let (cfg, trace_cap) = case;
        let dir = scratch("mat");
        let opts = RecordOptions { snap_every, trace_cap, label: "prop".into() };
        let mut rec = RunRecorder::create(&dir, cfg.clone(), seed, opts).expect("create");
        rec.run().expect("record to completion");
        let end = rec.tick();
        drop(rec);

        let run = StoredRun::open(&dir).expect("open");
        prop_assert_eq!(run.end_tick(), Some(end), "run must be sealed");
        let tick = ((end as f64) * frac) as u64;

        // The headline contract: materialize(T) == live run at T, byte
        // for byte — via the nearest link and via the tick-0 link alike.
        let live = live_twin(&cfg, seed, trace_cap, tick).save_snapshot();
        let near = run.materialize(tick).expect("materialize").save_snapshot();
        prop_assert_eq!(&near, &live, "nearest-snapshot materialization diverges at tick {}", tick);
        let zero = run.materialize_from_zero(tick).expect("from zero").save_snapshot();
        prop_assert_eq!(&zero, &live, "from-zero materialization diverges at tick {}", tick);

        // And past the end the store must refuse rather than extrapolate.
        prop_assert!(run.materialize(end + 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn materialization_is_invariant_to_snapshot_spacing(
        case in arb_config(),
        seed in 0u64..1_000,
        spacing_a in 20u64..80,
        spacing_b in 150u64..500,
        frac in 0.0f64..1.0,
    ) {
        let (cfg, trace_cap) = case;
        // Two recordings of the same run with very different snapshot
        // chains must materialize every tick identically — the chain is a
        // replay accelerator, never part of the answer.
        let (dir_a, dir_b) = (scratch("spa"), scratch("spb"));
        for (dir, snap_every) in [(&dir_a, spacing_a), (&dir_b, spacing_b)] {
            let opts = RecordOptions { snap_every, trace_cap, label: String::new() };
            let mut rec = RunRecorder::create(dir, cfg.clone(), seed, opts).expect("create");
            rec.run().expect("record");
        }
        let run_a = StoredRun::open(&dir_a).expect("open a");
        let run_b = StoredRun::open(&dir_b).expect("open b");
        prop_assert_eq!(run_a.last_tick(), run_b.last_tick());
        prop_assert!(run_a.snapshots().len() > run_b.snapshots().len());
        let tick = ((run_a.last_tick() as f64) * frac) as u64;
        prop_assert_eq!(
            run_a.materialize(tick).expect("a").save_snapshot(),
            run_b.materialize(tick).expect("b").save_snapshot(),
            "snapshot spacing leaked into the materialized state at tick {}", tick
        );
        // The event/sample streams must agree too, not just the states.
        prop_assert_eq!(run_a.events(), run_b.events());
        prop_assert_eq!(run_a.samples(), run_b.samples());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn resume_then_record_reproduces_an_uninterrupted_log(
        case in arb_config(),
        seed in 0u64..1_000,
        snap_every in 30u64..120,
        cut_frac in 0.2f64..0.9,
        torn_bytes in 0usize..40,
    ) {
        let (cfg, trace_cap) = case;
        // Reference: one uninterrupted recording.
        let dir_ref = scratch("ref");
        let opts = RecordOptions { snap_every, trace_cap, label: "res".into() };
        let mut rec = RunRecorder::create(&dir_ref, cfg.clone(), seed, opts.clone()).expect("create");
        rec.run().expect("record");
        let end = rec.tick();
        drop(rec);

        // Crashed recording: stop mid-run, then tear the log's tail a few
        // bytes short (a `kill -9` mid-frame).
        let dir = scratch("res");
        let mut rec = RunRecorder::create(&dir, cfg.clone(), seed, opts).expect("create");
        let cut = ((end as f64) * cut_frac) as u64;
        for _ in 0..cut {
            rec.step().expect("step");
        }
        drop(rec);
        let log_path = dir.join(LOG_FILE);
        let bytes = std::fs::read(&log_path).expect("read log");
        let keep = bytes.len().saturating_sub(torn_bytes).max(12);
        std::fs::write(&log_path, &bytes[..keep]).expect("tear tail");

        // Resume and finish: determinism regenerates the discarded frames.
        let mut rec = RunRecorder::resume(&dir).expect("resume");
        prop_assert!(rec.tick() <= cut);
        rec.run().expect("finish recording");
        prop_assert_eq!(rec.tick(), end);
        drop(rec);

        prop_assert_eq!(
            std::fs::read(&log_path).expect("resumed log"),
            std::fs::read(dir_ref.join(LOG_FILE)).expect("reference log"),
            "resumed recording's log must be byte-identical to an uninterrupted one's"
        );
        // And the resulting store materializes correctly.
        let run = StoredRun::open(&dir).expect("open");
        let live = live_twin(&cfg, seed, trace_cap, cut).save_snapshot();
        prop_assert_eq!(run.materialize(cut).expect("materialize").save_snapshot(), live);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir_ref).ok();
    }
}
