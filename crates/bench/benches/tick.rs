//! Tick-scaling benchmark for the event-proportional engine: one full
//! `World::step` at 100 / 1k / 10k / 100k sensors (constant density, so
//! per-sensor work is the honest unit), next to the naive wholesale
//! routing pipeline priced at the same scales — plus the million-sensor
//! variants behind `WRSN_BENCH_1M=1`.
//!
//! * `step` — one engine tick on a warmed mid-run world with mixed
//!   battery health (deaths, requests, revivals). With the SoC crossing
//!   predictions + drain-rate column + dirty-set routing this costs event-
//!   rather than population-proportional time.
//! * `naive_refresh` — the historical per-refresh pipeline: a
//!   from-scratch canonical Dijkstra rebuild + full relay-load fold +
//!   wholesale activity recompute, via [`World::verify_routing`]. The
//!   audit *asserts* the maintained tree equals that naive recompute
//!   before returning, so a divergence fails this bench outright — the
//!   `--test` run in CI's bench-smoke / tick-scale-smoke jobs is the
//!   release-profile divergence gate.
//! * `step_quiescent` — one tick on a healthy (90–100 % SoC) world at
//!   100k and (env-gated) 1M sensors: nothing crosses, nothing dies, so
//!   this prices the pure per-tick floor. Sublinear growth between 100k
//!   and 1M is the headline claim in `results/BENCH_tick.json`.
//! * `step_waypoint` — the quiescent world under continuous
//!   random-waypoint target motion (incremental cluster repair on the
//!   hot path instead of the rare teleport rebuild).
//!
//! Setting `WRSN_TICK_PHASES=1` additionally prints a per-phase
//! breakdown (via [`World::step_timed`]) before the criterion run: one
//! line per quiescent and waypoint world, and one per tick class of a
//! 20-day Table II world (quiet, slot handover, cluster rebuild, both).
//! `results/BENCH_tick.json` snapshots a run of this bench; refresh it
//! with `WRSN_BENCH_1M=1 WRSN_TICK_PHASES=1 cargo bench -p wrsn-bench
//! --bench tick`.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use wrsn_sim::{SimConfig, StepTimings, TargetMobility, TraceEvent, World};

/// A field at the seed tests' sensor density (60 sensors on a 60 m
/// square) scaled to `sensors`, with a capped target count so the
/// clustering stage stays comparable across scales.
fn scaled_cfg(sensors: usize) -> SimConfig {
    let mut cfg = SimConfig::small(1.0);
    cfg.num_sensors = sensors;
    cfg.num_targets = (sensors / 20).clamp(1, 20);
    cfg.num_rvs = 2;
    cfg.field_side = 60.0 * (sensors as f64 / 60.0).sqrt();
    cfg
}

/// Steps past a few slot boundaries so rotas, deaths and the dirty sets
/// look like a mid-run world rather than a freshly built one.
fn warmed(cfg: &SimConfig) -> World {
    let mut w = World::new(cfg, 42);
    for _ in 0..30 {
        w.step();
    }
    w
}

fn scaled_world(sensors: usize) -> World {
    let mut cfg = scaled_cfg(sensors);
    cfg.initial_soc = (0.1, 1.0); // mixed health: deaths, requests, revivals
    warmed(&cfg)
}

/// Healthy fleet-free steady state: no crossings, no deaths, no routes —
/// the quiescent-tick floor the crossing predictions are supposed to expose.
fn quiescent_world(sensors: usize) -> World {
    let mut cfg = scaled_cfg(sensors);
    cfg.initial_soc = (0.9, 1.0);
    warmed(&cfg)
}

/// Quiescent world under continuous random-waypoint target motion:
/// cluster maintenance runs incremental repair instead of waiting for
/// the teleport period.
fn waypoint_world(sensors: usize) -> World {
    let mut cfg = scaled_cfg(sensors);
    cfg.initial_soc = (0.9, 1.0);
    cfg.target_mobility = TargetMobility::RandomWaypoint { speed_mps: 0.5 };
    warmed(&cfg)
}

/// Million-sensor points are opt-in: they dominate wall-clock time.
fn million_enabled() -> bool {
    std::env::var_os("WRSN_BENCH_1M").is_some_and(|v| v != "0")
}

/// `WRSN_TICK_PHASES=1`: prints the mean per-phase ns over 50 timed
/// steps of each quiescent and waypoint world, and over each tick class
/// of the Table II world, for `results/BENCH_tick.json`'s phase
/// breakdowns.
fn print_phase_breakdown() {
    if std::env::var_os("WRSN_TICK_PHASES").is_none() {
        return;
    }
    let mut sizes = vec![10_000usize, 100_000];
    if million_enabled() {
        sizes.push(1_000_000);
    }
    for &sensors in &sizes {
        print_world_phases("quiescent", sensors, quiescent_world(sensors));
    }
    for &sensors in &sizes {
        print_world_phases("waypoint", sensors, waypoint_world(sensors));
    }
    print_tick_classes();
}

/// Times 50 steps of `w` and prints the mean per-phase ns.
fn print_world_phases(world: &str, sensors: usize, mut w: World) {
    let ticks = 50u64;
    let mut sum = StepTimings::default();
    for _ in 0..ticks {
        add(&mut sum, &w.step_timed());
    }
    print_means(&format!("world={world} sensors={sensors}"), ticks, &sum);
}

/// Steps the Table II world (seed 1, the `paper-run` world) for 20 days
/// and prints the mean per-phase ns of each tick class: quiet, a slot
/// handover (every rota passes its duty on), a cluster rebuild (a target
/// teleport), or both at once.
fn print_tick_classes() {
    let mut cfg = SimConfig::paper_defaults();
    cfg.duration_days = 20.0;
    cfg.duration_s = cfg.duration_days * 86_400.0;
    let mut w = World::new(&cfg, 1);
    w.enable_trace(64);
    // Mirrors the activity phase's slot clock.
    let mut next_slot = cfg.slot_s;
    let mut classes = [(0u64, StepTimings::default()); 4];
    while !w.finished() {
        let slot = w.time() >= next_slot;
        if slot {
            next_slot = w.time() + cfg.slot_s;
        }
        let seen = w.trace().total_recorded();
        let t = w.step_timed();
        let fresh = (w.trace().total_recorded() - seen) as usize;
        let events = w.trace().events();
        let rebuild = events[events.len().saturating_sub(fresh)..]
            .iter()
            .any(|e| matches!(e, TraceEvent::ClustersRebuilt { .. }));
        let (ticks, sum) = &mut classes[slot as usize + 2 * rebuild as usize];
        *ticks += 1;
        add(sum, &t);
    }
    for (class, (ticks, sum)) in ["quiet", "slot", "rebuild", "slot+rebuild"]
        .into_iter()
        .zip(&classes)
    {
        print_means(&format!("world=table2 days=20 class={class}"), *ticks, sum);
    }
}

fn add(sum: &mut StepTimings, t: &StepTimings) {
    sum.mobility_ns += t.mobility_ns;
    sum.activity_ns += t.activity_ns;
    sum.faults_ns += t.faults_ns;
    sum.routing_ns += t.routing_ns;
    sum.drain_ns += t.drain_ns;
    sum.dispatch_ns += t.dispatch_ns;
    sum.fleet_ns += t.fleet_ns;
    sum.sample_ns += t.sample_ns;
}

/// Prints one `tick-phases` line: `sum`'s per-phase means over `ticks`.
fn print_means(label: &str, ticks: u64, sum: &StepTimings) {
    let n = ticks.max(1);
    eprintln!(
        "tick-phases {label} ticks={ticks} mean_ns: mobility={} activity={} \
         faults={} routing={} drain={} dispatch={} fleet={} sample={} total={}",
        sum.mobility_ns / n,
        sum.activity_ns / n,
        sum.faults_ns / n,
        sum.routing_ns / n,
        sum.drain_ns / n,
        sum.dispatch_ns / n,
        sum.fleet_ns / n,
        sum.sample_ns / n,
        sum.total_ns() / n
    );
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick");
    group.sample_size(10);
    for &sensors in &[100usize, 1_000, 10_000, 100_000] {
        let mut stepping = scaled_world(sensors);
        group.bench_with_input(BenchmarkId::new("step", sensors), &(), |b, _unit: &()| {
            b.iter(|| {
                stepping.step();
                black_box(stepping.time())
            })
        });
        // The wholesale pipeline the incremental path replaced, plus the
        // bitwise equality gate against the maintained tree.
        let mut audited = scaled_world(sensors);
        group.bench_with_input(
            BenchmarkId::new("naive_refresh", sensors),
            &(),
            |b, _unit: &()| {
                b.iter(|| {
                    audited
                        .verify_routing()
                        .expect("incremental routing diverged from the naive oracle");
                })
            },
        );
    }

    let mut quiescent_sizes = vec![100_000usize];
    let mut waypoint_sizes = vec![10_000usize, 100_000];
    if million_enabled() {
        quiescent_sizes.push(1_000_000);
        waypoint_sizes.push(1_000_000);
    }
    for &sensors in &quiescent_sizes {
        let mut stepping = quiescent_world(sensors);
        group.bench_with_input(
            BenchmarkId::new("step_quiescent", sensors),
            &(),
            |b, _unit: &()| {
                b.iter(|| {
                    stepping.step();
                    black_box(stepping.time())
                })
            },
        );
        // Release-profile gate for the 1M config: the maintained tree
        // must still verify bitwise against the naive oracle at scale.
        stepping
            .verify_routing()
            .expect("incremental routing diverged from the naive oracle at scale");
    }
    for &sensors in &waypoint_sizes {
        let mut stepping = waypoint_world(sensors);
        group.bench_with_input(
            BenchmarkId::new("step_waypoint", sensors),
            &(),
            |b, _unit: &()| {
                b.iter(|| {
                    stepping.step();
                    black_box(stepping.time())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tick);

fn main() {
    print_phase_breakdown();
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
}
