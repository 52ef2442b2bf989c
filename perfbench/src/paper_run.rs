//! `paper-run`: Table II runs (500 sensors, 15 targets, 3 RVs,
//! Combined-Scheme, round-robin + ERC K = 0.6, teleporting targets, no
//! faults, 120 days of 60 s ticks) stepped one after another on one
//! thread — the run every figure point is made of.
//!
//! Closed loop: the next run starts when the previous one ends, until the
//! time budget is spent. Each run's world seed is drawn from the workload
//! seed, so one benchmark run averages over several deployments.

use crate::calib::{self, Calibrator};
use crate::engine_probe::{EngineProbe, OracleTwin, PROBE_TRACE_CAP};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{quantile, Summary};
use crate::sub_seed;
use std::time::{Duration, Instant};
use wrsn_sim::{SimConfig, World};

fn config() -> SimConfig {
    SimConfig::paper_defaults()
}

/// Ticks stepped between two calibration probes (about 35 ms).
const CHUNK_TICKS: usize = 2880;

/// Untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration) -> Result<Report, String> {
    let cfg = config();
    let mut cal = Calibrator::new();
    let mut r = Report::default();
    let (mut setup_s, mut ticks_per_s, mut raw_ticks_per_s) = (vec![], vec![], vec![]);
    let (mut p50_ms, mut p99_ms, mut factors) = (vec![], vec![], vec![]);
    let mut tick_ms: Vec<f64> = Vec::with_capacity((cfg.duration_s / cfg.tick_s) as usize + 1);
    let mut chunk_s = Vec::with_capacity(CHUNK_TICKS);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget {
        let mut f = cal.factor();
        let t = Instant::now();
        let mut world = World::new(&cfg, sub_seed(seed, i));
        setup_s.push(t.elapsed().as_secs_f64() * f);

        tick_ms.clear();
        let (mut wall_s, mut calibrated_s) = (0.0, 0.0);
        while !world.finished() {
            chunk_s.clear();
            let chunk = Instant::now();
            while chunk_s.len() < CHUNK_TICKS && !world.finished() {
                let t = Instant::now();
                world.step();
                chunk_s.push(t.elapsed().as_secs_f64());
            }
            let elapsed = chunk.elapsed().as_secs_f64();
            // The machine's speed over the chunk: the mean of the probes
            // on either side of it.
            let next = cal.factor();
            let k = (f + next) / 2.0;
            f = next;
            factors.push(k);
            wall_s += elapsed;
            calibrated_s += elapsed * k;
            tick_ms.extend(chunk_s.iter().map(|s| s * k * 1e3));
        }
        ticks_per_s.push(tick_ms.len() as f64 / calibrated_s);
        raw_ticks_per_s.push(tick_ms.len() as f64 / wall_s);
        tick_ms.sort_by(f64::total_cmp);
        p50_ms.push(quantile(&tick_ms, 0.5));
        p99_ms.push(quantile(&tick_ms, 0.99));

        let verdict = world.check_invariants();
        let plans = world.outcome().plans;
        r.check(verdict.is_ok() && plans > 0, || {
            format!("world {i}: invariants {verdict:?}, {plans} plans")
        });
        if i == 0 {
            r.peak_rss_after_first_op("first world")?;
        }
        i += 1;
    }
    r.e2e_median("setup_s", "world_construct_s", "worlds", &setup_s);
    r.e2e_median("throughput_per_s", "ticks_per_s", "worlds", &ticks_per_s);
    r.e2e_median("latency_p50_ms", "tick_p50_ms", "worlds", &p50_ms);
    r.e2e_median("latency_tail_ms", "tick_p99_ms", "worlds", &p99_ms);
    r.note(format!(
        "{} ticks timed ({} per world); per-world tick p50/p99 are over every tick",
        tick_ms.len() * i as usize,
        tick_ms.len()
    ));
    r.note(calib::note("ticks_per_s", &raw_ticks_per_s, &factors));
    Ok(r)
}

/// Traced run: per world, an untraced pass, a traced pass (step_timed +
/// planner/watch-set probes) and a lockstep oracle twin. The traced pass
/// must reproduce the untraced outcome; the twin must end byte-equal.
pub fn trace(seed: u64, budget: Duration, spans: &mut Spans) -> Report {
    let cfg = config();
    let mut r = Report::default();
    let mut probe = EngineProbe::default();
    let mut twin = OracleTwin::default();
    let (mut plain_s, mut encode_us, mut decode_ms, mut snap_bytes) = (0.0, vec![], vec![], vec![]);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget {
        let s = sub_seed(seed, i);
        let root = spans.begin("paper-run.world", None);

        let span = spans.begin("engine.run_untraced", Some(root));
        let t = Instant::now();
        let mut plain = World::new(&cfg, s);
        while !plain.finished() {
            plain.step();
        }
        plain_s += t.elapsed().as_secs_f64();
        spans.end(span);

        let span = spans.begin("engine.run_traced", Some(root));
        let mut traced = World::new(&cfg, s);
        traced.enable_trace(PROBE_TRACE_CAP);
        let plans_before = probe.plan_ticks.len();
        probe.run(&mut traced);
        for &(a, b) in &probe.plan_ticks[plans_before..] {
            spans.record("scheduling.plan_tick", Some(span), a, b);
        }
        spans.end(span);
        let (untraced, traced) = (
            format!("{:?}", plain.outcome()),
            format!("{:?}", traced.outcome()),
        );
        r.check(untraced == traced, || {
            format!("world {i}: traced outcome differs from untraced")
        });

        let span = spans.begin("engine.oracle_twin", Some(root));
        let same = twin.run(World::new(&cfg, s), World::new(&cfg, s));
        spans.end(span);
        r.check(same, || {
            format!("world {i}: naive-oracle twin snapshot differs")
        });

        let span = spans.begin("snapshot.encode", Some(root));
        let t = Instant::now();
        let bytes = plain.save_snapshot();
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.end(span);
        let span = spans.begin("snapshot.decode", Some(root));
        let t = Instant::now();
        let resumed = World::resume(&bytes);
        decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.end(span);
        let round_trip = resumed.map(|w| w.save_snapshot() == bytes).unwrap_or(false);
        r.check(round_trip, || {
            format!("world {i}: snapshot does not round-trip")
        });
        snap_bytes.push(bytes.len() as f64);

        spans.end(root);
        i += 1;
    }
    probe.report(&mut r);
    twin.report(&mut r);
    r.layer("snapshot.encode_us", Summary::of(&encode_us).median);
    r.layer("snapshot.decode_ms", Summary::of(&decode_ms).median);
    r.layer("snapshot.bytes", Summary::of(&snap_bytes).median);
    r.layer("trace.overhead_frac", probe.wall_s / plain_s - 1.0);
    r
}
