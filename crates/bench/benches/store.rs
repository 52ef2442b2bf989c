//! Time travel through the run store: record one small chaos run (the
//! `chaos-replay` world — Table II scale, every chaos class on,
//! random-waypoint targets — over a shortened horizon), then price
//! `StoredRun::open` + `materialize(T)`.
//!
//! Before criterion runs, the bench prints one `materialize-phases` line
//! per materialized tick to stderr: the mean time of each step a
//! materialization takes — open the log, read and verify the link, resume
//! it, the first re-stepped tick (the first tick after a resume), and the
//! remaining re-steps — re-enacted through the public API and checked
//! against `materialize(T)` byte for byte. The ticks are a snapshot-chain
//! link, the tick after it, and one mid-interval. `results/
//! BENCH_materialize.json` snapshots runs of this bench:
//! `cargo bench -p wrsn-bench --bench store`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wrsn_sim::codec::checksum;
use wrsn_sim::store::{snap_file_name, RecordOptions, RunRecorder, StoredRun};
use wrsn_sim::{FaultConfig, SimConfig, TargetMobility, World};

/// Snapshot-chain spacing: two simulated hours, as in `chaos-replay`.
const SNAP_EVERY: u64 = 120;
/// Materializations averaged per phase line.
const PHASE_REPS: u32 = 30;

/// The `chaos-replay` world over half a day (720 ticks).
fn chaos_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_defaults();
    cfg.duration_s = 0.5 * 86_400.0;
    cfg.duration_days = 0.5;
    cfg.initial_soc = (0.3, 1.0);
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
    cfg.faults = FaultConfig {
        rv_breakdowns_per_day: 2.0,
        rv_repair_s: (1_800.0, 7_200.0),
        uplink_loss: 0.2,
        transients_per_day: 1.0,
        transient_outage_s: (300.0, 1_800.0),
        ..FaultConfig::none()
    };
    cfg
}

/// Records the run once into a fresh directory.
fn record() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RecordOptions {
        snap_every: SNAP_EVERY,
        label: "bench".into(),
        ..RecordOptions::default()
    };
    RunRecorder::create(&dir, chaos_cfg(), 11, opts)
        .and_then(|mut rec| rec.run())
        .expect("record the chaos run");
    dir
}

/// A link tick, the first tick after it, and a mid-interval tick.
fn ticks() -> [(&'static str, u64); 3] {
    let link = 3 * SNAP_EVERY;
    [
        ("link", link),
        ("link+1", link + 1),
        ("mid", link + SNAP_EVERY / 2),
    ]
}

/// Seconds spent in each step of one materialization of `tick`.
#[derive(Default)]
struct Phases {
    open: f64,
    link: f64,
    resume: f64,
    first_step: f64,
    restep: f64,
}

/// Re-enacts `StoredRun::open` + `materialize(tick)` step by step.
fn materialize_in_phases(dir: &Path, tick: u64) -> (Phases, World) {
    let mut p = Phases::default();
    let t = Instant::now();
    let run = StoredRun::open(dir).expect("open");
    p.open = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let m = *run
        .snapshots()
        .iter()
        .rev()
        .find(|m| m.tick <= tick)
        .expect("a link at or before the tick");
    let blob = std::fs::read(dir.join(snap_file_name(m.tick))).expect("read the link");
    assert!(
        blob.len() as u64 == m.bytes && checksum(&blob) == m.hash,
        "link verifies"
    );
    p.link = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut world = World::resume(&blob).expect("resume");
    p.resume = t.elapsed().as_secs_f64();

    if tick > m.tick {
        let t = Instant::now();
        world.step();
        p.first_step = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in m.tick + 1..tick {
            world.step();
        }
        p.restep = t.elapsed().as_secs_f64();
    }
    (p, world)
}

fn print_phases(dir: &Path) {
    for (label, tick) in ticks() {
        let run = StoredRun::open(dir).expect("open");
        let reference = run.materialize(tick).expect("materialize").save_snapshot();
        let mut sum = Phases::default();
        for _ in 0..PHASE_REPS {
            let (p, world) = materialize_in_phases(dir, tick);
            assert!(world.save_snapshot() == reference, "phased replay diverged");
            sum.open += p.open;
            sum.link += p.link;
            sum.resume += p.resume;
            sum.first_step += p.first_step;
            sum.restep += p.restep;
        }
        let us = |s: f64| (s / f64::from(PHASE_REPS) * 1e6).round();
        let total = sum.open + sum.link + sum.resume + sum.first_step + sum.restep;
        eprintln!(
            "materialize-phases tick={tick} ({label}) reps={PHASE_REPS} mean_us: open={} \
             link={} resume={} first_step={} restep={} total={}",
            us(sum.open),
            us(sum.link),
            us(sum.resume),
            us(sum.first_step),
            us(sum.restep),
            us(total)
        );
    }
}

fn bench_store(c: &mut Criterion) {
    let dir = record();
    print_phases(&dir);
    let dir = dir.as_path();
    let mut group = c.benchmark_group("store");
    group.sample_size(20);
    group.bench_function("open", |b| b.iter(|| StoredRun::open(dir).expect("open")));
    for (label, tick) in ticks() {
        group.bench_with_input(
            BenchmarkId::new("open_materialize", label),
            &tick,
            |b, &tick| {
                b.iter(|| {
                    let run = StoredRun::open(dir).expect("open");
                    black_box(run.materialize(tick).expect("materialize"))
                })
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
