//! `chaos-replay`: record a faulted run into the run store, then travel
//! back in time. The run is Table II scale with every chaos class on (RV
//! breakdowns, uplink loss, transient outages) and random-waypoint targets,
//! so cluster repair and the chaos engine do real work; its horizon is two
//! days because its tick costs several paper-run ticks.
//!
//! Closed loop: record a run through `RunRecorder`, capturing the live
//! world's snapshot at ticks drawn from the seed, then `StoredRun::open` +
//! `materialize(T)` each of those ticks, which must be byte-equal to the
//! capture. Repeat with the next world seed until the budget is spent.

use crate::calib::{self, Calibrator};
use crate::engine_probe::{EngineProbe, OracleTwin, PROBE_TRACE_CAP};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{mean, Summary};
use crate::sub_seed;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wrsn_sim::store::{snap_file_name, RecordOptions, RunRecorder, StoredRun, LOG_FILE};
use wrsn_sim::{FaultConfig, SimConfig, TargetMobility, World};

const DAYS: f64 = 2.0;
/// Snapshot-chain spacing: two simulated hours.
const SNAP_EVERY: u64 = 120;
/// Ticks materialized per recorded run.
const SAMPLES_PER_RUN: u64 = 16;
/// Materializations needed before the run may stop, so that at least ten
/// samples lie beyond the reported p90.
const MIN_SAMPLES: usize = 100;

fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_defaults();
    cfg.duration_s = DAYS * 86_400.0;
    cfg.duration_days = DAYS;
    // Start part-drained so requests, plans and RV tours happen within the
    // short horizon.
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

fn horizon(cfg: &SimConfig) -> u64 {
    (cfg.duration_s / cfg.tick_s).ceil() as u64
}

/// Ticks to materialize for the run seeded `seed`, ascending, distinct.
fn sample_ticks(seed: u64, horizon: u64) -> Vec<u64> {
    let mut ticks: Vec<u64> = (0..SAMPLES_PER_RUN)
        .map(|k| 1 + sub_seed(seed, k) % horizon)
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

fn record_options(i: u64) -> RecordOptions {
    RecordOptions {
        snap_every: SNAP_EVERY,
        label: format!("chaos-{i}"),
        ..RecordOptions::default()
    }
}

/// Recorded ticks between two calibration probes (about 20 ms).
const CHUNK_TICKS: u64 = 240;

/// The live world's snapshot at one sampled tick, parked on disk beside
/// the run so the captures do not inflate (and vary) the peak RSS.
struct Capture {
    tick: u64,
    path: PathBuf,
    bytes: usize,
}

impl Capture {
    /// Whether `world` serializes to exactly the captured bytes.
    fn matches(&self, world: &World) -> bool {
        std::fs::read(&self.path).is_ok_and(|live| live == world.save_snapshot())
    }
}

/// A recorded run: the recorder's stepping time (captures excluded), raw
/// and at reference speed, and the live snapshots captured at the sampled
/// ticks.
struct Recording {
    setup_s: f64,
    record_s: f64,
    calibrated_s: f64,
    factors: Vec<f64>,
    ticks: u64,
    live: Vec<Capture>,
    /// Time of each capture's `save_snapshot` (s).
    encode_s: Vec<f64>,
}

fn record(
    dir: &Path,
    cfg: &SimConfig,
    seed: u64,
    i: u64,
    cal: &mut Calibrator,
) -> Result<Recording, String> {
    let err = |e: wrsn_sim::store::StoreError| format!("run store at {}: {e}", dir.display());
    let want = sample_ticks(seed, horizon(cfg));
    let mut f = cal.factor();
    let t = Instant::now();
    let mut rec = RunRecorder::create(dir, cfg.clone(), seed, record_options(i)).map_err(err)?;
    let mut out = Recording {
        setup_s: t.elapsed().as_secs_f64() * f,
        record_s: 0.0,
        calibrated_s: 0.0,
        factors: Vec::new(),
        ticks: 0,
        live: Vec::new(),
        encode_s: Vec::new(),
    };
    let mut next = want.iter().peekable();
    let mut chunk_s = 0.0;
    loop {
        let done = rec.finished();
        if done || (rec.tick() > 0 && rec.tick().is_multiple_of(CHUNK_TICKS)) {
            let t = Instant::now();
            if done {
                rec.seal().map_err(err)?;
            }
            chunk_s += t.elapsed().as_secs_f64();
            let next_f = cal.factor();
            let k = (f + next_f) / 2.0;
            f = next_f;
            out.factors.push(k);
            out.record_s += chunk_s;
            out.calibrated_s += chunk_s * k;
            chunk_s = 0.0;
            if done {
                break;
            }
        }
        let t = Instant::now();
        rec.step().map_err(err)?;
        chunk_s += t.elapsed().as_secs_f64();
        if next.next_if_eq(&&rec.tick()).is_some() {
            let t = Instant::now();
            let bytes = rec.world().save_snapshot();
            out.encode_s.push(t.elapsed().as_secs_f64());
            let path = dir.join(format!("live-{}.bin", rec.tick()));
            std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            out.live.push(Capture {
                tick: rec.tick(),
                path,
                bytes: bytes.len(),
            });
        }
    }
    out.ticks = rec.tick();
    Ok(out)
}

/// Untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration, work: &Path) -> Result<Report, String> {
    let cfg = config();
    let base = work.join(format!("chaos-{}", std::process::id()));
    let mut r = Report::default();
    let mut cal = Calibrator::new();
    let (mut setup_s, mut ticks_per_s, mut raw_ticks_per_s) = (vec![], vec![], vec![]);
    let (mut materialize_ms, mut raw_ms, mut factors) = (vec![], vec![], vec![]);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget || materialize_ms.len() < MIN_SAMPLES {
        let s = sub_seed(seed, i);
        let dir = base.join(format!("run-{i}"));
        let rec = record(&dir, &cfg, s, i, &mut cal)?;
        r.check(rec.ticks == horizon(&cfg), || {
            format!("run {i}: recorded {} ticks", rec.ticks)
        });
        setup_s.push(rec.setup_s);
        ticks_per_s.push(rec.ticks as f64 / rec.calibrated_s);
        raw_ticks_per_s.push(rec.ticks as f64 / rec.record_s);
        factors.extend(rec.factors);
        let mut f = cal.factor();
        for live in &rec.live {
            let tick = live.tick;
            let t = Instant::now();
            let world = StoredRun::open(&dir).and_then(|run| run.materialize(tick));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let next = cal.factor();
            let k = (f + next) / 2.0;
            f = next;
            match world {
                Ok(w) => {
                    materialize_ms.push(ms * k);
                    raw_ms.push(ms);
                    factors.push(k);
                    r.check(live.matches(&w), || {
                        format!("run {i}: materialize({tick}) differs from the live world")
                    });
                }
                Err(e) => r.check(false, || format!("run {i}: materialize({tick}): {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if i == 0 {
            r.peak_rss_after_first_op("first recording")?;
        }
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&base);
    let m = Summary::of(&materialize_ms);
    r.e2e_median("setup_s", "recorder_create_s", "recordings", &setup_s);
    r.e2e_median(
        "throughput_per_s",
        "record_ticks_per_s",
        "recordings",
        &ticks_per_s,
    );
    r.e2e_value(
        "latency_p50_ms",
        "materialize_p50_ms",
        "materializations",
        m.median,
        m,
    );
    r.e2e_value(
        "latency_tail_ms",
        "materialize_p90_ms",
        "materializations",
        m.p90,
        m,
    );
    r.note(calib::note(
        "record_ticks_per_s",
        &raw_ticks_per_s,
        &factors,
    ));
    r.note(calib::note("materialize_ms", &raw_ms, &factors));
    Ok(r)
}

fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut snaps = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("snap-") && name.ends_with(".snap") {
            snaps.0 += entry.metadata().map(|m| m.len()).unwrap_or(0);
            snaps.1 += 1;
        }
    }
    snaps
}

/// Traced run: per recorded world, an untraced plain run, the recording,
/// an engine probe, a lockstep oracle twin, and every materialization
/// split into log open, snapshot decode and re-stepping.
pub fn trace(
    seed: u64,
    budget: Duration,
    work: &Path,
    spans: &mut Spans,
) -> Result<Report, String> {
    let cfg = config();
    let base = work.join(format!("chaos-{}", std::process::id()));
    let mut r = Report::default();
    let mut probe = EngineProbe::default();
    let mut twin = OracleTwin::default();
    let (mut plain_s, mut record_s, mut setup_s) = (0.0, 0.0, vec![]);
    let (mut log_bytes, mut snap_bytes, mut snap_count) = (vec![], vec![], vec![]);
    let (mut encode_us, mut live_bytes) = (vec![], vec![]);
    let (mut open_ms, mut decode_ms, mut restep_ms, mut restep_ticks) =
        (vec![], vec![], vec![], vec![]);
    let trace_cap = RecordOptions::default().trace_cap;
    let mut cal = Calibrator::new();
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget {
        let s = sub_seed(seed, i);
        let dir = base.join(format!("run-{i}"));
        let root = spans.begin("chaos-replay.run", None);

        // The recorder traces its world at the default cap, so the plain
        // baseline does too: the difference is the store's work alone.
        let span = spans.begin("engine.run_untraced", Some(root));
        let t = Instant::now();
        let mut plain = World::new(&cfg, s);
        plain.enable_trace(trace_cap);
        while !plain.finished() {
            plain.step();
        }
        plain_s += t.elapsed().as_secs_f64();
        spans.end(span);

        let span = spans.begin("store.record", Some(root));
        let rec = record(&dir, &cfg, s, i, &mut cal)?;
        spans.end(span);
        setup_s.push(rec.setup_s);
        record_s += rec.record_s;
        encode_us.extend(rec.encode_s.iter().map(|s| s * 1e6));
        live_bytes.extend(rec.live.iter().map(|c| c.bytes as f64));
        log_bytes.push(
            std::fs::metadata(dir.join(LOG_FILE))
                .map(|m| m.len())
                .unwrap_or(0) as f64,
        );
        let (bytes, count) = dir_bytes(&dir);
        snap_bytes.push(bytes as f64);
        snap_count.push(count as f64);

        let span = spans.begin("engine.run_traced", Some(root));
        let mut traced = World::new(&cfg, s);
        traced.enable_trace(PROBE_TRACE_CAP);
        let plans_before = probe.plan_ticks.len();
        probe.run(&mut traced);
        for &(a, b) in &probe.plan_ticks[plans_before..] {
            spans.record("scheduling.plan_tick", Some(span), a, b);
        }
        spans.end(span);
        let same = format!("{:?}", plain.outcome()) == format!("{:?}", traced.outcome());
        r.check(same, || {
            format!("run {i}: traced outcome differs from untraced")
        });

        let span = spans.begin("engine.oracle_twin", Some(root));
        let same = twin.run(World::new(&cfg, s), World::new(&cfg, s));
        spans.end(span);
        r.check(same, || {
            format!("run {i}: naive-oracle twin snapshot differs")
        });

        for live in &rec.live {
            let tick = live.tick;
            let m = spans.begin("store.materialize", Some(root));
            let span = spans.begin("store.open", Some(m));
            let t = Instant::now();
            let run = StoredRun::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.end(span);
            let Some(link) = run
                .snapshots()
                .iter()
                .rev()
                .find(|l| l.tick <= tick)
                .copied()
            else {
                spans.end(m);
                r.check(false, || {
                    format!("run {i}: no snapshot link at or before tick {tick}")
                });
                continue;
            };
            let span = spans.begin("snapshot.decode", Some(m));
            let t = Instant::now();
            let world = World::resume_from(dir.join(snap_file_name(link.tick)));
            decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.end(span);
            let Ok(mut world) = world else {
                spans.end(m);
                r.check(false, || {
                    format!("run {i}: snapshot link {} does not decode", link.tick)
                });
                continue;
            };
            let span = spans.begin("store.restep", Some(m));
            let t = Instant::now();
            for _ in link.tick..tick {
                world.step();
            }
            restep_ms.push(t.elapsed().as_secs_f64() * 1e3);
            restep_ticks.push((tick - link.tick) as f64);
            spans.end(span);
            spans.end(m);
            r.check(live.matches(&world), || {
                format!("run {i}: replayed tick {tick} differs from the live world")
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        spans.end(root);
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&base);

    probe.report(&mut r);
    twin.report(&mut r);
    r.layer("store.record_overhead", record_s / plain_s - 1.0);
    r.layer("store.log_bytes", mean(&log_bytes));
    r.layer("store.snap_bytes", mean(&snap_bytes));
    r.layer("store.snap_count", mean(&snap_count));
    r.layer("snapshot.encode_us", Summary::of(&encode_us).median);
    r.layer("snapshot.bytes", Summary::of(&live_bytes).median);
    r.layer("store.open_ms", Summary::of(&open_ms).median);
    r.layer("snapshot.decode_ms", Summary::of(&decode_ms).median);
    r.layer("store.restep_ms", Summary::of(&restep_ms).median);
    r.layer("store.restep_ticks_mean", mean(&restep_ticks));
    r.layer("trace.overhead_frac", probe.wall_s / plain_s - 1.0);
    r.note(format!(
        "{i} recording(s); recorder create median {:.3} ms",
        Summary::of(&setup_s).median * 1e3
    ));
    Ok(r)
}
